"""The orders-table queries that stay: the CDC merge and diff over one
key-sharded exchange (``ops/merge.py``) and the three mergeable sketches
(KMV, HyperLogLog, Count-Min; ``ops/sketch.py``), each mirrored exactly
by its DuckDB oracle.  Registers into the shared registry."""

from __future__ import annotations

import pyarrow as pa

import ray
import ray.data

from .._shared import QUERIES, ORACLE_SQL


def q_approx_distinct(sf_dir: str):
    """KMV sketch estimate of the distinct customers placing orders —
    deterministic and exactly mirrored by the SQL oracle."""
    from ....ops.sketch import kmv_distinct

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    return kmv_distinct(orders, "o_custkey", k=256)


def q_hll_custkeys(sf_dir: str):
    """HyperLogLog register state for distinct customers in orders —
    `ops/sketch.HllSketch` (fixed 1024-register array per block,
    elementwise-max tree combine; order-independent, so the registers
    are bit-equal to the SQL mirror)."""
    from ....ops.sketch import hll_registers

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    return hll_registers(orders, "o_custkey")


def _orders_cdc(sf_dir: str):
    """(snapshot, changes) for the CDC queries: the orders snapshot in
    integer cents plus a deterministic changeset (delete keys % 7 == 0,
    restate keys % 7 == 3, insert shifted new keys from % 7 == 5)."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    )

    def snap(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_orderstatus": batch["o_orderstatus"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch["o_totalprice"], pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    snapshot = orders.map_batches(snap, batch_format="pyarrow")

    def changes(df):
        import pandas as pd

        k = df["o_orderkey"].to_numpy()
        c = df["cents"].to_numpy()
        out = []
        d = k % 7 == 0
        out.append(
            pd.DataFrame(
                {"o_orderkey": k[d], "o_orderstatus": None, "cents": 0,
                 "op": "delete", "version": 1}
            )
        )
        u = k % 7 == 3
        out.append(
            pd.DataFrame(
                {"o_orderkey": k[u], "o_orderstatus": "X",
                 "cents": c[u] + 100, "op": "upsert", "version": 2}
            )
        )
        i = k % 7 == 5
        out.append(
            pd.DataFrame(
                {"o_orderkey": k[i] + 10_000_000, "o_orderstatus": "N",
                 "cents": 0, "op": "upsert", "version": 1}
            )
        )
        return pd.concat(out, ignore_index=True)

    chg = snapshot.map_batches(changes, batch_format="pandas")
    return snapshot, chg


def q_orders_merge(sf_dir: str):
    """CDC merge: apply a deterministic changeset (delete keys % 7 == 0,
    restate keys % 7 == 3, insert shifted new keys from % 7 == 5) to the
    orders snapshot — `ops/merge.py`, one key-sharded exchange resolving
    last-version-wins upsert/delete semantics."""
    from ....ops.merge import apply_changeset

    snapshot, chg = _orders_cdc(sf_dir)
    out = apply_changeset(snapshot, chg, key="o_orderkey", num_shards=16)

    def typed(df):
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "o_orderstatus": pa.array(
                    df["o_orderstatus"], type=pa.string(), from_pandas=True
                ),
                "cents": pa.array(df["cents"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_orders_diff(sf_dir: str):
    """Row-level diff of the orders snapshot against its merged
    successor — the FUSED `ops/merge.apply_changeset_diff`: merge
    resolution and keyed diff both shard on o_orderkey, so one exchange
    does both (the unfused composition paid two all-to-alls over the
    same rows; pinned equal by test).  Deleted keys surface as
    only_left, restated keys as changed, inserted keys as only_right."""
    from ....ops.merge import apply_changeset_diff

    snapshot, chg = _orders_cdc(sf_dir)
    out = apply_changeset_diff(snapshot, chg, key="o_orderkey", num_shards=16)

    def typed(df):
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "status": pa.array(df["status"], type=pa.string()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_approx_counts(sf_dir: str):
    """Count-Min point estimates for the event types — bounded-size sketch
    exchange (depth x width ints per block), exactly mirrored in SQL."""
    from ....ops.sketch import countmin_counts

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return countmin_counts(ev, "event_type", probes=EVENT_TYPES, depth=4, width=512)


QUERIES["approx_distinct"] = q_approx_distinct
QUERIES["hll_custkeys"] = q_hll_custkeys
QUERIES["orders_merge"] = q_orders_merge
QUERIES["orders_diff"] = q_orders_diff
QUERIES["approx_counts"] = q_approx_counts

# KMV sketch mirror: identical md5-60bit hash, identical integer estimate
from ....ops.sketch import kmv_oracle_sql as _kmv_sql  # noqa: E402

ORACLE_SQL["approx_distinct"] = _kmv_sql("orders", "o_custkey", k=256)

from ....ops.sketch import hll_oracle_sql as _hll_sql  # noqa: E402

ORACLE_SQL["hll_custkeys"] = _hll_sql("orders", "o_custkey")

from ....ops.sketch import countmin_oracle_sql as _cm_sql  # noqa: E402

ORACLE_SQL["approx_counts"] = _cm_sql(
    "events", "event_type", probes=EVENT_TYPES, depth=4, width=512
)

ORACLE_SQL["orders_diff"] = """
    SELECT o_orderkey, 'only_left' AS status FROM orders
    WHERE o_orderkey % 7 = 0
    UNION ALL
    SELECT o_orderkey, 'changed' FROM orders WHERE o_orderkey % 7 = 3
    UNION ALL
    SELECT o_orderkey + 10000000, 'only_right' FROM orders
    WHERE o_orderkey % 7 = 5
"""

ORACLE_SQL["orders_merge"] = """
    WITH snap AS (
        SELECT o_orderkey, o_orderstatus,
               CAST(round(o_totalprice * 100.0) AS BIGINT) AS cents
        FROM orders)
    SELECT o_orderkey, o_orderstatus, cents FROM snap
    WHERE o_orderkey % 7 <> 0 AND o_orderkey % 7 <> 3
    UNION ALL
    SELECT o_orderkey, 'X', cents + 100 FROM snap WHERE o_orderkey % 7 = 3
    UNION ALL
    SELECT o_orderkey + 10000000, 'N', CAST(0 AS BIGINT)
    FROM snap WHERE o_orderkey % 7 = 5
"""
