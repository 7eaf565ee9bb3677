"""RFM segmentation and the correlated above-average-order count over
the orders table (split from the relational.py monolith)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .._shared import QUERIES, ORACLE_SQL


def _ntile_bucket(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) from 0-based dense ranks: first n%k buckets get one
    extra row (the q_curriculum replication, shared here)."""
    q, rem = divmod(n, k)
    big = (q + 1) * rem
    return np.where(
        rank < big,
        rank // (q + 1) + 1,
        rem + (rank - big) // max(q, 1) + 1 if q else rem,
    ).astype(np.int64)


def q_rfm_segments(sf_dir: str):
    """RFM customer segmentation (recency / frequency / monetary
    quintiles — the classic CRM scheme): per-customer order rollup via
    one sharded combine, then THREE rank-by-sort NTILE(5) passes
    (`ops/index.zip_with_index` over packed (metric, custkey) int64
    keys — no rank-table joins; quintile 1 = most recent / most orders
    / highest spend).  Packing bound: custkey < 2^20, metrics within
    their documented headroom — guarded loudly."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.index import zip_with_index

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    def pre(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "c_custkey": batch["o_custkey"].to_numpy(
                    zero_copy_only=False),
                "last": batch["o_orderdate"].to_numpy(
                    zero_copy_only=False).astype("datetime64[us]")
                .astype(np.int64),
                "m": np.rint(
                    batch["o_totalprice"].to_numpy(zero_copy_only=False)
                    * 100
                ).astype(np.int64),
            }
        )
        g = df.groupby("c_custkey", sort=False).agg(
            n=("m", "size"), m_c=("m", "sum"), last=("last", "max")
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("c_custkey", sort=False)
            .agg(n_orders=("n", "sum"), monetary_c=("m_c", "sum"),
                 last=("last", "max"))
            .reset_index()
        )

    cust = sharded_groupby_apply(
        orders.map_batches(pre, batch_format="pyarrow"), ["c_custkey"],
        combine, num_shards=64,
    ).materialize()

    mx = cust.max("last")
    gmax = int(mx["max(last)"]) if isinstance(mx, dict) else int(mx)
    n_cust = cust.count()

    def metrics(batch: pa.Table) -> pa.Table:
        ck = batch["c_custkey"].to_numpy(zero_copy_only=False)
        if ck.max(initial=0) >= 1 << 20:
            raise ValueError("rfm packing: custkey >= 2^20 — widen keys")
        last = batch["last"].to_numpy(zero_copy_only=False)
        r_days = (gmax - last) // 86_400_000_000
        n = batch["n_orders"].to_numpy(zero_copy_only=False)
        m = batch["monetary_c"].to_numpy(zero_copy_only=False)
        if r_days.max(initial=0) >= 1 << 30 or n.max(initial=0) >= 1 << 30 \
                or m.max(initial=0) >= 1 << 40:
            raise ValueError("rfm packing: metric exceeds headroom")
        return pa.table(
            {
                "c_custkey": pa.array(ck, type=pa.int64()),
                "r_days": pa.array(r_days, type=pa.int64()),
                "n_orders": pa.array(n, type=pa.int64()),
                "monetary_c": pa.array(m, type=pa.int64()),
                "kr": pa.array(r_days * (1 << 20) + ck, type=pa.int64()),
                "kf": pa.array(((1 << 30) - n) * (1 << 20) + ck,
                               type=pa.int64()),
                "km": pa.array(((1 << 40) - m) * (1 << 20) + ck,
                               type=pa.int64()),
            }
        )

    ds = cust.map_batches(metrics, batch_format="pyarrow")
    out_cols = ["c_custkey", "r_days", "n_orders", "monetary_c"]
    quints = {}
    for key, name in (("kr", "r_q"), ("kf", "f_q"), ("km", "m_q")):
        ds = zip_with_index(ds, sort_key=key, id_col="__rk")

        def bucketize(batch: pa.Table, _name=name) -> pa.Table:
            rk = batch["__rk"].to_numpy(zero_copy_only=False)
            return batch.drop_columns(["__rk"]).append_column(
                _name, pa.array(_ntile_bucket(rk, n_cust, 5),
                                type=pa.int64())
            )

        ds = ds.map_batches(bucketize, batch_format="pyarrow")

    def finish(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in out_cols + ["r_q", "f_q", "m_q"]}
        code = (
            batch["r_q"].to_numpy(zero_copy_only=False) * 100
            + batch["f_q"].to_numpy(zero_copy_only=False) * 10
            + batch["m_q"].to_numpy(zero_copy_only=False)
        )
        cols["rfm_code"] = pa.array(code, type=pa.int64())
        return pa.table(cols)

    return ds.map_batches(finish, batch_format="pyarrow")


QUERIES["rfm_segments"] = q_rfm_segments
ORACLE_SQL["rfm_segments"] = """
    WITH m AS (SELECT o_custkey AS c_custkey, COUNT(*) AS n_orders,
                      SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                          AS monetary_c,
                      MAX(o_orderdate) AS last
               FROM orders GROUP BY 1),
    g AS (SELECT MAX(o_orderdate) AS gmax FROM orders),
    c AS (SELECT c_custkey,
                 CAST((epoch_us(g.gmax) - epoch_us(last))
                      // 86400000000 AS BIGINT) AS r_days,
                 CAST(n_orders AS BIGINT) AS n_orders,
                 CAST(monetary_c AS BIGINT) AS monetary_c
          FROM m, g),
    q AS (SELECT c_custkey, r_days, n_orders, monetary_c,
                 NTILE(5) OVER (ORDER BY r_days, c_custkey) AS r_q,
                 NTILE(5) OVER (ORDER BY n_orders DESC, c_custkey) AS f_q,
                 NTILE(5) OVER (ORDER BY monetary_c DESC, c_custkey) AS m_q
          FROM c)
    SELECT c_custkey, r_days, n_orders, monetary_c,
           CAST(r_q AS BIGINT) AS r_q, CAST(f_q AS BIGINT) AS f_q,
           CAST(m_q AS BIGINT) AS m_q,
           CAST(100 * r_q + 10 * f_q + m_q AS BIGINT) AS rfm_code
    FROM q
"""


# ---------------------------------------------------------------------------
# Correlated-subquery pattern: orders strictly above their customer's
# average order value, counted per order status
# ---------------------------------------------------------------------------


def q_orders_above_avg(sf_dir: str):
    """Orders whose totalprice strictly exceeds their own customer's mean
    order value, counted per o_orderstatus — the canonical correlated
    scalar subquery (WHERE x > (SELECT AVG(..) .. same key)).

    Plan, scale notes: ONE hash(custkey) exchange co-locates each
    customer's orders; the mean never becomes a float — the in-shard
    comparison is price_c * n > sum_c in exact int64 — and every shard
    emits at most |status domain| = 3 cells, so the final groupby is
    over a constant-size key set."""
    from ....ops.agg import sharded_groupby_apply

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_totalprice", "o_orderstatus"],
    )

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        price_c = np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64)
        d = df.assign(__price_c=price_c)
        g = d.groupby("o_custkey", sort=False)["__price_c"]
        sum_c = g.transform("sum").to_numpy().astype(np.int64)
        n = g.transform("size").to_numpy().astype(np.int64)
        above = price_c * n > sum_c
        out = (
            d.assign(__above=above.astype(np.int64))
            .groupby("o_orderstatus", as_index=False, sort=False)
            .agg(n_above=("__above", "sum"), n_orders=("__above", "size"))
        )
        return out

    cells = sharded_groupby_apply(orders, ["o_custkey"], in_shard)
    final = (
        cells.groupby("o_orderstatus")
        .sum(["n_above", "n_orders"])
        .to_pandas()
        .rename(columns={"sum(n_above)": "n_above",
                         "sum(n_orders)": "n_orders"})
        .sort_values("o_orderstatus")
    )
    return pa.table(
        {
            "o_orderstatus": pa.array(final["o_orderstatus"], type=pa.string()),
            "n_above": pa.array(
                final["n_above"].to_numpy().astype(np.int64), type=pa.int64()),
            "n_orders": pa.array(
                final["n_orders"].to_numpy().astype(np.int64), type=pa.int64()),
        }
    )


QUERIES["orders_above_avg"] = q_orders_above_avg
ORACLE_SQL["orders_above_avg"] = """
    WITH s AS (SELECT o_custkey,
                      CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                           AS BIGINT) AS sum_c,
                      COUNT(*) AS n
               FROM orders GROUP BY o_custkey)
    SELECT o_orderstatus,
           CAST(COALESCE(SUM(CASE WHEN
                 CAST(ROUND(o_totalprice * 100) AS BIGINT) * n > sum_c
                 THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_above,
           COUNT(*) AS n_orders
    FROM orders JOIN s USING (o_custkey)
    GROUP BY o_orderstatus
    ORDER BY o_orderstatus
"""
