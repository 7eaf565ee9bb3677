"""Warehouse relational queries: joins, sketches, rollups, windows, CDC
over the TPC-H-ish tables (split from the relational.py monolith;
definitions verbatim).  Registers into the shared registry."""

from __future__ import annotations

from typing import Dict

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .._shared import QUERIES, ORACLE_SQL


def q_suppliers_by_region(sf_dir: str):
    """Star-schema rollup: suppliers enriched through two chained
    broadcast dimension joins (nation, region — the canonical pattern for
    small dims at corpus scale), per-batch pre-aggregated, then a tiny
    5-group reduce."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq_mod

    from ....ops.agg import sharded_groupby_apply
    from ....ops.join import broadcast_join

    sup = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey", "s_acctbal"]
    )
    nat = pq_mod.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).rename_columns(["s_nationkey", "n_regionkey"])
    reg = pq_mod.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).rename_columns(["n_regionkey", "r_name"])
    joined = broadcast_join(
        broadcast_join(sup, nat, on="s_nationkey", how="left"),
        reg,
        on="n_regionkey",
        how="left",
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = pa.table(
            {"r_name": batch["r_name"], "bal": batch["s_acctbal"]}
        ).to_pandas()
        g = df.groupby("r_name", sort=False).agg(
            n_suppliers=("bal", "size"), total_acctbal=("bal", "sum")
        )
        return pa.table(
            {
                "r_name": pa.array(g.index, type=pa.string()),
                "n_suppliers": pa.array(g["n_suppliers"], type=pa.int64()),
                "total_acctbal": pa.array(g["total_acctbal"], type=pa.float64()),
            }
        )

    def reduce_regions(df):
        g = df.groupby("r_name", sort=False, as_index=False).sum()
        return g

    out = sharded_groupby_apply(
        joined.map_batches(partial, batch_format="pyarrow"),
        ["r_name"],
        reduce_regions,
        num_shards=4,
    )

    def finish(df) -> pa.Table:
        return pa.table(
            {
                "r_name": pa.array(df["r_name"], type=pa.string()),
                "n_suppliers": pa.array(df["n_suppliers"], type=pa.int64()),
                "total_acctbal": pc.round(
                    pa.array(df["total_acctbal"], type=pa.float64()), 4
                ),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def q_part_brands(sf_dir: str):
    """Per-brand part stats (count, avg retail price, max size) — pruned
    scan + per-batch pre-agg + sharded reduce; avg carried as (sum, n)
    partials so the reduce stays associative."""
    import pyarrow.compute as pc

    from ....ops.agg import sharded_groupby_apply

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_retailprice", "p_size"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        # exact integer cents: float sums are order-sensitive and a value
        # on a round() boundary would diverge from the SQL mirror
        cents = pc.cast(
            pc.round(pc.multiply(batch["p_retailprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        df = batch.set_column(
            batch.schema.get_field_index("p_retailprice"), "cents", cents
        ).to_pandas()
        g = df.groupby("p_brand", sort=False).agg(
            n_parts=("cents", "size"),
            sum_cents=("cents", "sum"),
            max_size=("p_size", "max"),
        )
        return pa.table(
            {
                "p_brand": pa.array(g.index, type=pa.string()),
                "n_parts": pa.array(g["n_parts"], type=pa.int64()),
                "sum_cents": pa.array(g["sum_cents"], type=pa.int64()),
                "max_size": pa.array(g["max_size"], type=pa.int64()),
            }
        )

    def reduce_brands(df):
        return df.groupby("p_brand", sort=False, as_index=False).agg(
            n_parts=("n_parts", "sum"),
            sum_cents=("sum_cents", "sum"),
            max_size=("max_size", "max"),
        )

    out = sharded_groupby_apply(
        parts.map_batches(partial, batch_format="pyarrow"),
        ["p_brand"],
        reduce_brands,
        num_shards=8,
    )

    def finish(df) -> pa.Table:
        import numpy as np

        # integer round-half-up at 1e-4 dollars: engine round() kernels
        # disagree on the nearest double at boundary values (observed:
        # Arrow 908.1600000000001 vs DuckDB 908.16), so the rounding is
        # done in exact int64 arithmetic and divided once
        n = df["n_parts"].to_numpy(dtype=np.int64)
        s = df["sum_cents"].to_numpy(dtype=np.int64)
        scaled = (200 * s + n) // (2 * n)
        return pa.table(
            {
                "p_brand": pa.array(df["p_brand"], type=pa.string()),
                "n_parts": pa.array(df["n_parts"], type=pa.int64()),
                "avg_price": pa.array(scaled / 10000.0, type=pa.float64()),
                "max_size": pa.array(df["max_size"], type=pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def q_bloom_join(sf_dir: str):
    """Selective fact-dim join with Bloom shuffle pruning: per-order item
    count + integer-cents revenue for urgent finished orders only —
    `ops/bloom.bloom_prefilter` drops partnerless lineitem rows BEFORE
    the bucketed hash join's exchange (fixed-size bit array vs the
    semi-join's O(keys) array); Bloom false positives are removed by the
    exact join, so the result equals the plain SQL join."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.bloom import bloom_prefilter
    from ....ops.join import bucketed_hash_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_orderpriority"],
    )

    def keep_urgent(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.equal(batch["o_orderstatus"], pa.scalar("F")),
            pc.equal(batch["o_orderpriority"], pa.scalar("1-URGENT")),
        )
        return pa.table({"o_orderkey": batch.filter(m)["o_orderkey"]})

    small = orders.map_batches(keep_urgent, batch_format="pyarrow").materialize()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderkey": batch["l_orderkey"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch["l_extendedprice"], pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    pref = bloom_prefilter(
        li.map_batches(cents, batch_format="pyarrow"),
        small,
        on="o_orderkey",
        n_bits=1 << 16,
    )
    joined = bucketed_hash_join(pref, small, on="o_orderkey", num_buckets=8)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderkey", sort=False)["cents"].agg(["size", "sum"])
        return pd.DataFrame(
            {
                "o_orderkey": g.index.to_numpy(),
                "n_items": g["size"].to_numpy().astype("int64"),
                "sum_cents": g["sum"].to_numpy().astype("int64"),
            }
        )

    return sharded_groupby_apply(joined, ["o_orderkey"], fold, num_shards=16)


ZORDER_BITS = 10


def q_zorder_tiles(sf_dir: str):
    """Z-order curve partitioning audit: Morton-interleave (partkey,
    suppkey) mod 2^10 and count rows per coarse tile (top 6 of 20 key
    bits) — `ops/zorder.zorder_key`, a stateless zero-exchange map; the
    tile histogram shows the 2-D locality a z-sorted layout gives the
    range pruner."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.zorder import zorder_key

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"]
    )
    lim = 1 << ZORDER_BITS

    def mod(batch: pa.Table) -> pa.Table:
        x = batch["l_partkey"].to_numpy(zero_copy_only=False) % lim
        y = batch["l_suppkey"].to_numpy(zero_copy_only=False) % lim
        return pa.table(
            {
                "x": pa.array(x.astype(np.int64), type=pa.int64()),
                "y": pa.array(y.astype(np.int64), type=pa.int64()),
            }
        )

    z = zorder_key(
        li.map_batches(mod, batch_format="pyarrow"), "x", "y",
        bits=ZORDER_BITS,
    )

    def tile_partial(batch: pa.Table) -> pa.Table:
        t = batch["z"].to_numpy(zero_copy_only=False) >> (
            2 * ZORDER_BITS - 6
        )
        uniq, counts = np.unique(t, return_counts=True)
        return pa.table(
            {
                "tile": pa.array(uniq, type=pa.int64()),
                "n": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("tile", sort=False)["n"].sum().reset_index()

    return sharded_groupby_apply(
        z.map_batches(tile_partial, batch_format="pyarrow"),
        ["tile"],
        fold,
        num_shards=8,
    )


def q_join_broadcast(sf_dir: str):
    """Broadcast (map-side) join: orders enriched with customer attributes —
    the small side ships once via ray.put, no shuffle (ops/join.py)."""
    import pyarrow.parquet as pq_mod

    from ....ops.join import broadcast_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice", "o_orderpriority"],
    )
    cust = pq_mod.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    ).rename_columns(["o_custkey", "c_name", "c_mktsegment"])
    return broadcast_join(orders, cust, on="o_custkey", how="left")


def q_join_bucketed(sf_dir: str):
    """Partitioned hash join of two large sides (lineitem x orders) followed
    by an aggregate: revenue stats per order priority."""
    import pyarrow.compute as pc

    from ....ops.join import bucketed_hash_join

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    ).map_batches(
        lambda b: b.rename_columns(["o_orderkey", "l_quantity"]),
        batch_format="pyarrow",
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    joined = bucketed_hash_join(li, orders, on="o_orderkey", num_buckets=32)

    def partial(batch: pa.Table) -> pa.Table:
        agg: Dict[str, list] = {}
        for p, qty in zip(
            batch["o_orderpriority"].to_pylist(), batch["l_quantity"].to_pylist()
        ):
            cur = agg.setdefault(p, [0, 0.0])
            cur[0] += 1
            cur[1] += qty
        return pa.Table.from_pydict(
            {
                "o_orderpriority": list(agg),
                "n": [v[0] for v in agg.values()],
                "s": [v[1] for v in agg.values()],
            }
        )

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n", alias_name="n_items"), Sum("s", alias_name="total_qty"))
    )

    def final(batch: pa.Table) -> pa.Table:
        return batch.set_column(
            batch.schema.get_field_index("total_qty"),
            pa.field("total_qty", pa.float64()),
            pc.round(batch["total_qty"], 4),
        )

    return out.map_batches(final, batch_format="pyarrow")


def q_orders_semi(sf_dir: str):
    """Broadcast semi-join: orders of customers with acctbal > 5000."""
    from ....ops.join import semi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    rich = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    ).filter(expr="c_acctbal > 5000")
    return semi_join(orders, rich, on="o_custkey", right_on="c_custkey")


def q_orders_anti(sf_dir: str):
    """Broadcast anti-join: orders of customers with acctbal <= 5000."""
    from ....ops.join import semi_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    rich = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"]
    ).filter(expr="c_acctbal > 5000")
    return semi_join(orders, rich, on="o_custkey", right_on="c_custkey", anti=True)


def q_approx_distinct(sf_dir: str):
    """KMV sketch estimate of the distinct customers placing orders —
    deterministic and exactly mirrored by the SQL oracle."""
    from ....ops.sketch import kmv_distinct

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )
    return kmv_distinct(orders, "o_custkey", k=256)


def q_order_zscore(sf_dir: str):
    """Per-priority z-score of order totals — `ops/feature.py` (no row
    exchange: moment partials reduce to a 5-row table broadcast back
    into a stateless map)."""
    import pyarrow.compute as pc

    from ....ops.feature import zscore_by_group

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
    )
    out = zscore_by_group(orders, "o_orderpriority", "o_totalprice")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_orderpriority": batch["o_orderpriority"],
                "zscore": pc.round(batch["zscore"], 6),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


BASKET_MIN_SUPPORT = 3


def q_basket_pairs(sf_dir: str):
    """Frequent itemset pairs (market-basket level 2): part pairs
    co-ordered in >= 3 orders — `group_pairs` (order-sharded pair
    expansion, distinct per order) into one pair-sharded support count
    with the HAVING filter applied in-shard."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.triangles import group_pairs

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    pairs = group_pairs(li, "l_orderkey", "l_partkey", num_shards=16)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False).size().reset_index()
        g.columns = ["u", "v", "support"]
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["u", "v"], sort=False)["support"].sum().reset_index()
        return g[g["support"] >= BASKET_MIN_SUPPORT]

    out = sharded_groupby_apply(
        pairs.map_batches(partial, batch_format="pandas"),
        ["u", "v"],
        fold,
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "u": pa.array(df["u"].to_numpy(), type=pa.int64()),
                "v": pa.array(df["v"].to_numpy(), type=pa.int64()),
                "support": pa.array(
                    df["support"].to_numpy(), type=pa.int64()
                ),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_basket_rules(sf_dir: str):
    """Association rules u -> v from the frequent pairs: confidence =
    support(u,v) / item_support(u) >= 1/8, tested by the float-free
    cross-multiplication ``8 * sup_uv >= sup_u`` (both directions of
    each pair).  Item supports are a bounded part-sharded count
    broadcast as a lookup; the pair table streams through a stateless
    filter map."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.setops import distinct_rows

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    item = (
        distinct_rows(li, ["l_orderkey", "l_partkey"], num_shards=16)
        .map_batches(
            lambda df: df.groupby("l_partkey", sort=False)
            .size()
            .rename("n")
            .reset_index(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    sup_item = item.groupby("l_partkey")["n"].sum().to_dict()

    pairs = q_basket_pairs(sf_dir)

    def rules(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy()
        v = df["v"].to_numpy()
        s = df["support"].to_numpy()
        ante = np.concatenate([u, v])
        cons = np.concatenate([v, u])
        sup = np.concatenate([s, s])
        sup_a = pd.Series(ante).map(sup_item).to_numpy(dtype=np.int64)
        keep = 8 * sup >= sup_a
        return pa.table(
            {
                "ante": pa.array(ante[keep], type=pa.int64()),
                "cons": pa.array(cons[keep], type=pa.int64()),
                "sup_pair": pa.array(sup[keep], type=pa.int64()),
                "sup_ante": pa.array(sup_a[keep], type=pa.int64()),
            }
        )

    return pairs.map_batches(rules, batch_format="pandas")


def q_price_hist(sf_dir: str):
    """24-bin fixed-width histogram of order total price —
    `ops/profile.histogram_fixed` (per-batch bincount partials, one tiny
    bin exchange; zero shuffles of data rows)."""
    from ....ops.profile import histogram_fixed

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )
    return histogram_fixed(orders, "o_totalprice", lo=0.0, hi=600000.0,
                           nbins=24)


def q_cust_orders_left(sf_dir: str):
    """LEFT outer bucketed hash join: every customer against per-customer
    counts of a filtered order subset (o_orderkey % 3 == 0) — unmatched
    customers keep typed-null counts, exercising `bucketed_hash_join`'s
    outer path (one co-bucketed exchange, vectorized per-bucket merge)."""
    from ....ops.agg import sharded_groupby_apply
    from ....ops.join import bucketed_hash_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def rekey(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"custkey": batch["c_custkey"],
             "c_mktsegment": batch["c_mktsegment"]}
        )

    left = cust.map_batches(rekey, batch_format="pyarrow")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["o_orderkey"] % 3 == 0]
        g = df.groupby("o_custkey", sort=False, as_index=False).size()
        return pa.table(
            {"custkey": pa.array(g["o_custkey"], type=pa.int64()),
             "n_orders": pa.array(g["size"], type=pa.int64())}
        )

    right = sharded_groupby_apply(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["custkey"],
        lambda df: df.groupby("custkey", sort=False, as_index=False)[
            "n_orders"
        ].sum(),
        16,
    )
    out = bucketed_hash_join(left, right, on="custkey", num_buckets=16,
                             how="left")

    def typed(df):
        return pa.table(
            {
                "custkey": pa.array(df["custkey"], type=pa.int64()),
                "c_mktsegment": pa.array(
                    df["c_mktsegment"], type=pa.string(), from_pandas=True
                ),
                "n_orders": pa.array(
                    df["n_orders"], type=pa.int64(), from_pandas=True
                ),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_lineitem_checksum(sf_dir: str):
    """Order-independent content checksum of lineitem's key columns —
    `ops/profile.table_checksum` (commutative md5-sum mod 2^61-1; scalar
    partials per batch, nothing corpus-scale moves).  The cross-engine
    migration-validation primitive."""
    from ....ops.profile import table_checksum

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_linenumber"],
    )
    return table_checksum(li, ["l_orderkey", "l_partkey", "l_linenumber"])


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


def q_region_rollup(sf_dir: str):
    """Warehouse chain end-to-end: orders enriched with region via two
    broadcast dim joins (customer -> nation -> region), then GROUP BY
    ROLLUP (region, order priority) in exact integer cents —
    `ops/join.broadcast_join` composed with `ops/rollup.rollup_sum`."""
    import pyarrow.parquet as pq_mod

    from ....ops.join import broadcast_join
    from ....ops.rollup import rollup_sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderpriority", "o_totalprice"],
    )
    cust = pq_mod.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).rename_columns(["o_custkey", "c_nationkey"])
    nat = pq_mod.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).rename_columns(["c_nationkey", "n_regionkey"])
    reg = pq_mod.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).rename_columns(["n_regionkey", "r_name"])
    joined = broadcast_join(
        broadcast_join(
            broadcast_join(orders, cust, on="o_custkey", how="left"),
            nat,
            on="c_nationkey",
            how="left",
        ),
        reg,
        on="n_regionkey",
        how="left",
    )

    def cents(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "r_name": batch["r_name"],
                "o_orderpriority": batch["o_orderpriority"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch["o_totalprice"], pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    out = rollup_sum(
        joined.map_batches(cents, batch_format="pyarrow"),
        ["r_name", "o_orderpriority"],
        "cents",
        num_shards=8,
    )

    def typed(df):
        return pa.table(
            {
                "r_name": pa.array(df["r_name"], type=pa.string(),
                                   from_pandas=True),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], type=pa.string(), from_pandas=True
                ),
                "sum_cents": pa.array(df["sum"], type=pa.int64()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_lineitem_corr(sf_dir: str):
    """Exact sufficient statistics for the quantity/price correlation
    over lineitem — one row (n, sx, sy, sxx, syy, sxy) of int64 sums
    over integer-quantized values (qty as-is, price in floor dollars):
    per-batch scalar partials, driver fold; Pearson r derives exactly
    from the six integers on either engine."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = np.floor(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table(
            {
                "n": pa.array([len(x)], type=pa.int64()),
                "sx": pa.array([int(x.sum())], type=pa.int64()),
                "sy": pa.array([int(y.sum())], type=pa.int64()),
                "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
                "syy": pa.array([int((y * y).sum())], type=pa.int64()),
                "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow").take_all()
    agg = {
        k: sum(int(p[k]) for p in parts)
        for k in ("n", "sx", "sy", "sxx", "syy", "sxy")
    }
    return pa.table({k: pa.array([v], type=pa.int64()) for k, v in agg.items()})


def q_lineitem_wsample(sf_dir: str):
    """Probability-proportional sampling of lineitem (keep prob =
    quantity / 50) — `ops/sample.weighted_bernoulli`: the integer
    comparison h * denom < w * 2^60 IS u < w/denom exactly, so the
    sampled row set is bit-equal in SQL.  Stateless filter, zero
    exchanges, retry-reproducible."""
    from ....ops.sample import weighted_bernoulli

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )

    def keyed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "k": pc.add(
                    pc.multiply(batch["l_orderkey"], pa.scalar(10)),
                    pc.cast(batch["l_linenumber"], pa.int64()),
                ),
                "w": pc.cast(batch["l_quantity"], pa.int64()),
            }
        )

    out = weighted_bernoulli(
        li.map_batches(keyed, batch_format="pyarrow"), "k", "w", 50
    )

    def typed(df):
        return pa.table(
            {
                "k": pa.array(df["k"], type=pa.int64()),
                "w": pa.array(df["w"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_order_ranks(sf_dir: str):
    """PERCENT_RANK + NTILE(4) per priority group over orders —
    `ops/window.window_over` rank kinds, auto-routed to rank-by-sort
    (`ops/rank.with_keyed_ranks`): ONE range-partitioned sort on
    (priority, orderkey), per-key offsets from block-edge metadata.  No
    shard worker ever holds a whole priority group — with 5 distinct
    priorities the old per-key shard plan put ~20% of the table in one
    worker, a scale-killer at 100 TB.  Exact SQL NTILE bucket sizes."""
    from ....ops.window import window_over

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    out = window_over(
        orders,
        keys=["o_orderpriority"],
        order_by=["o_orderkey"],
        specs=[("percent_rank", None, "pr", None), ("ntile", None, "t4", 4)],
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], type=pa.string()
                ),
                "pr": pa.array(np.round(df["pr"], 8), type=pa.float64()),
                "t4": pa.array(df["t4"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_order_date_ranks(sf_dir: str):
    """RANK + DENSE_RANK per priority group ordered by o_orderdate —
    REAL TIES (thousands of orders share a date), resolved with exact
    SQL semantics by tie-aware rank-by-sort (`ops/rank.with_keyed_ranks`
    via `ops/window.window_over` routing): ONE range-partitioned sort on
    (priority, date); tie runs crossing block boundaries merge through
    the driver's O(num_blocks) edge metadata.  No shard worker ever
    holds a whole priority group."""
    from ....ops.window import window_over

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
    )
    out = window_over(
        orders,
        keys=["o_orderpriority"],
        order_by=["o_orderdate"],
        specs=[("rank", None, "rk", None), ("dense_rank", None, "dr", None)],
    )

    def typed(df):
        return pa.table(
            {
                "o_orderkey": pa.array(df["o_orderkey"], type=pa.int64()),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], type=pa.string()
                ),
                "rk": pa.array(df["rk"], type=pa.int64()),
                "dr": pa.array(df["dr"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_orders_diff(sf_dir: str):
    """Row-level diff of the orders snapshot against its merged
    successor — the FUSED `ops/merge.apply_changeset_diff`: merge
    resolution and keyed diff both shard on o_orderkey, so one exchange
    does both (the unfused composition paid two all-to-alls over the
    same rows; pinned equal by test).  Deleted keys surface as
    only_left, restated keys as changed, inserted keys as only_right —
    the drill-down companion to the content checksum."""
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


def q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP (priority, status) over orders: sum of total
    price in exact integer cents + row count at every prefix level
    (leaf, per-priority, grand) — `ops/rollup.py`, one leading-key
    exchange + a num_shards-row grand fold."""
    from ....ops.rollup import rollup_sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "o_orderstatus": batch["o_orderstatus"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch["o_totalprice"], pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    out = rollup_sum(
        orders.map_batches(cents, batch_format="pyarrow"),
        ["o_orderpriority", "o_orderstatus"],
        "cents",
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], type=pa.string(), from_pandas=True
                ),
                "o_orderstatus": pa.array(
                    df["o_orderstatus"], type=pa.string(), from_pandas=True
                ),
                "sum_cents": pa.array(df["sum"], type=pa.int64()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_orders_cube(sf_dir: str):
    """GROUP BY CUBE (status, priority) over orders: all four grouping
    sets (leaf, per-status, per-priority, grand) with exact integer-cents
    sums — `ops/rollup.cube_sum`, map-side 2^n grouping-set expansion of
    per-batch partials + ONE full-key-tuple exchange."""
    from ....ops.rollup import cube_sum

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    def cents(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "o_orderstatus": batch["o_orderstatus"],
                "o_orderpriority": batch["o_orderpriority"],
                "cents": pc.cast(
                    pc.round(
                        pc.multiply(batch["o_totalprice"], pa.scalar(100.0))
                    ),
                    pa.int64(),
                ),
            }
        )

    out = cube_sum(
        orders.map_batches(cents, batch_format="pyarrow"),
        ["o_orderstatus", "o_orderpriority"],
        "cents",
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "o_orderstatus": pa.array(
                    df["o_orderstatus"], type=pa.string(), from_pandas=True
                ),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], type=pa.string(), from_pandas=True
                ),
                "sum_cents": pa.array(df["sum"], type=pa.int64()),
                "n": pa.array(df["n"], type=pa.int64()),
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


def q_lineitem_melt(sf_dir: str):
    """Wide -> long explode of the lineitem charge columns."""
    from ....ops.reshape import melt

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount", "l_tax"],
    )
    return melt(
        li,
        id_vars=["l_orderkey", "l_linenumber"],
        value_vars=["l_extendedprice", "l_discount", "l_tax"],
        var_name="measure",
        value_name="amount",
    )


def q_custs_no_orders(sf_dir: str):
    """SQL EXCEPT: customers who never placed an urgent order."""
    from ....ops.setops import except_rows

    custs = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    urgent = (
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
        )
        .filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_custkey"])
    )
    return except_rows(custs, urgent, cols=["c_custkey"])


def q_order_windows(sf_dir: str):
    """Per-customer ordered window functions over orders: row_number,
    lagged price, and a running total — SQL's OVER (PARTITION BY custkey
    ORDER BY orderdate, orderkey) family on one sharded shuffle.  The
    running total is in integer cents: float summation order is engine-
    defined, int summation is exact everywhere."""
    from ....ops.window import window_over

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def add_cents(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cents = pc.cast(
            pc.round(pc.multiply(batch["o_totalprice"], pa.scalar(100.0))),
            pa.int64(),
        )
        return batch.append_column("cents", cents)

    out = window_over(
        orders.map_batches(add_cents, batch_format="pyarrow"),
        keys=["o_custkey"],
        order_by=["o_orderdate", "o_orderkey"],
        specs=[
            ("row_number", None, "rn", None),
            ("lag", "o_totalprice", "prev_price", (1, -1.0)),
            ("cumsum", "cents", "run_total_cents", None),
            ("rolling_sum", "cents", "roll3", 3),
        ],
    )

    def cast_roll(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = batch.schema.get_field_index("roll3")
        return batch.set_column(
            i, "roll3", pc.cast(batch["roll3"], pa.int64())
        )

    return out.map_batches(cast_roll, batch_format="pyarrow").select_columns(
        ["o_orderkey", "o_custkey", "rn", "prev_price", "run_total_cents", "roll3"]
    )
QUERIES["orders_cube"] = q_orders_cube
QUERIES["bloom_join"] = q_bloom_join
QUERIES["zorder_tiles"] = q_zorder_tiles
QUERIES["basket_pairs"] = q_basket_pairs
QUERIES["basket_rules"] = q_basket_rules
QUERIES["suppliers_by_region"] = q_suppliers_by_region
QUERIES["part_brands"] = q_part_brands
QUERIES["approx_counts"] = q_approx_counts
QUERIES["order_zscore"] = q_order_zscore
QUERIES["orders_rollup"] = q_orders_rollup
QUERIES["orders_merge"] = q_orders_merge
QUERIES["orders_diff"] = q_orders_diff
QUERIES["order_ranks"] = q_order_ranks
QUERIES["order_date_ranks"] = q_order_date_ranks
ORACLE_SQL["order_date_ranks"] = """
    SELECT o_orderkey, o_orderpriority,
           CAST(RANK() OVER (PARTITION BY o_orderpriority
                             ORDER BY o_orderdate) AS BIGINT) AS rk,
           CAST(DENSE_RANK() OVER (PARTITION BY o_orderpriority
                                   ORDER BY o_orderdate) AS BIGINT) AS dr
    FROM orders
"""
QUERIES["lineitem_wsample"] = q_lineitem_wsample
QUERIES["lineitem_corr"] = q_lineitem_corr
QUERIES["region_rollup"] = q_region_rollup
QUERIES["hll_custkeys"] = q_hll_custkeys
QUERIES["lineitem_checksum"] = q_lineitem_checksum
QUERIES["cust_orders_left"] = q_cust_orders_left
QUERIES["price_hist"] = q_price_hist
QUERIES["join_broadcast"] = q_join_broadcast
QUERIES["join_bucketed"] = q_join_bucketed
QUERIES["orders_semi"] = q_orders_semi
QUERIES["orders_anti"] = q_orders_anti
QUERIES["order_windows"] = q_order_windows
QUERIES["approx_distinct"] = q_approx_distinct
QUERIES["lineitem_melt"] = q_lineitem_melt
QUERIES["custs_no_orders"] = q_custs_no_orders
ORACLE_SQL["join_broadcast"] = """
        SELECT o.o_orderkey, o.o_custkey, o.o_totalprice, o.o_orderpriority,
               c.c_name, c.c_mktsegment
        FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
    """
ORACLE_SQL["join_bucketed"] = """
        SELECT o.o_orderpriority,
               CAST(COUNT(*) AS BIGINT) AS n_items,
               round(SUM(l.l_quantity), 4) AS total_qty
        FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
        GROUP BY 1
    """

ORACLE_SQL["orders_semi"] = """
    SELECT o_orderkey, o_custkey, o_totalprice FROM orders
    WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
"""

ORACLE_SQL["orders_anti"] = """
    SELECT o_orderkey, o_custkey, o_totalprice FROM orders
    WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
"""

# window functions: the running total is integer cents (float window-sum
# order is engine-defined; int sums are exact), lag is sentinel-filled
# (engines disagree on null vs NaN round-trips)
ORACLE_SQL["order_windows"] = """
    SELECT o_orderkey, o_custkey,
           CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn,
           COALESCE(LAG(o_totalprice) OVER w, -1.0) AS prev_price,
           CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                      ROWS UNBOUNDED PRECEDING) AS BIGINT) AS run_total_cents,
           CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                OVER (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
                      ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
                AS BIGINT) AS roll3
    FROM orders
    WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
"""

# KMV sketch mirror: identical md5-60bit hash, identical integer estimate
from ....ops.sketch import kmv_oracle_sql as _kmv_sql  # noqa: E402

ORACLE_SQL["approx_distinct"] = _kmv_sql("orders", "o_custkey", k=256)

from ....ops.sketch import hll_oracle_sql as _hll_sql  # noqa: E402

ORACLE_SQL["hll_custkeys"] = _hll_sql("orders", "o_custkey")

ORACLE_SQL["lineitem_melt"] = """
    SELECT l_orderkey, l_linenumber, 'l_extendedprice' AS measure,
           l_extendedprice AS amount FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem
"""

ORACLE_SQL["custs_no_orders"] = """
    SELECT c_custkey FROM customer
    EXCEPT
    SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
"""

def _zorder_tiles_sql() -> str:
    from ....ops.zorder import zorder_sql_expr

    z = zorder_sql_expr(
        f"l_partkey % {1 << ZORDER_BITS}",
        f"l_suppkey % {1 << ZORDER_BITS}",
        ZORDER_BITS,
    )
    return f"""
    SELECT ({z}) // {1 << (2 * ZORDER_BITS - 6)} AS tile,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM lineitem GROUP BY 1
"""


ORACLE_SQL["zorder_tiles"] = _zorder_tiles_sql()

ORACLE_SQL["bloom_join"] = """
    SELECT o.o_orderkey,
           CAST(COUNT(*) AS BIGINT) AS n_items,
           CAST(SUM(CAST(round(l.l_extendedprice * 100.0) AS BIGINT))
                AS BIGINT) AS sum_cents
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE o.o_orderstatus = 'F' AND o.o_orderpriority = '1-URGENT'
    GROUP BY o.o_orderkey
"""

ORACLE_SQL["suppliers_by_region"] = """
    SELECT r.r_name, CAST(COUNT(*) AS BIGINT) AS n_suppliers,
           round(SUM(s.s_acctbal), 4) AS total_acctbal
    FROM supplier s
    JOIN nation n ON s.s_nationkey = n.n_nationkey
    JOIN region r ON n.n_regionkey = r.r_regionkey
    GROUP BY r.r_name
"""

ORACLE_SQL["part_brands"] = """
    SELECT p_brand, CAST(COUNT(*) AS BIGINT) AS n_parts,
           CAST((200 * SUM(CAST(round(p_retailprice * 100.0) AS BIGINT))
                 + COUNT(*)) // (2 * COUNT(*)) AS DOUBLE) / 10000.0 AS avg_price,
           CAST(MAX(p_size) AS BIGINT) AS max_size
    FROM part GROUP BY p_brand
"""

from ....ops.sketch import countmin_oracle_sql as _cm_sql  # noqa: E402

ORACLE_SQL["approx_counts"] = _cm_sql(
    "events", "event_type", probes=EVENT_TYPES, depth=4, width=512
)

ORACLE_SQL["order_zscore"] = """
    WITH st AS (SELECT o_orderpriority AS g,
                       CAST(COUNT(*) AS DOUBLE) AS n,
                       SUM(o_totalprice) AS s,
                       SUM(o_totalprice * o_totalprice) AS ss
                FROM orders GROUP BY 1),
    mm AS (SELECT g, s / n AS m,
                  sqrt(greatest(ss / n - (s / n) * (s / n), 0.0)) AS sd
           FROM st)
    SELECT o.o_orderkey, o.o_orderpriority,
           round(CASE WHEN mm.sd > 0.0
                      THEN (o.o_totalprice - mm.m) / mm.sd
                      ELSE 0.0 END, 6) AS zscore
    FROM orders o JOIN mm ON o.o_orderpriority = mm.g
"""

ORACLE_SQL["price_hist"] = """
    SELECT CAST(LEAST(GREATEST(
               floor((o_totalprice - 0.0) * 24.0 / 600000.0), 0), 23)
               AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders GROUP BY 1
"""

ORACLE_SQL["cust_orders_left"] = """
    WITH cnt AS (SELECT o_custkey AS custkey,
                        CAST(COUNT(*) AS BIGINT) AS n_orders
                 FROM orders WHERE o_orderkey % 3 = 0
                 GROUP BY o_custkey)
    SELECT c.c_custkey AS custkey, c.c_mktsegment, cnt.n_orders
    FROM customer c LEFT JOIN cnt ON cnt.custkey = c.c_custkey
"""

from ....ops.profile import table_checksum_sql as _cksum_sql  # noqa: E402

ORACLE_SQL["lineitem_checksum"] = _cksum_sql(
    "lineitem", ["l_orderkey", "l_partkey", "l_linenumber"]
)

ORACLE_SQL["region_rollup"] = """
    SELECT r.r_name, o.o_orderpriority,
           CAST(SUM(CAST(round(o.o_totalprice * 100.0) AS BIGINT))
                AS BIGINT) AS sum_cents,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders o
    LEFT JOIN customer c ON c.c_custkey = o.o_custkey
    LEFT JOIN nation n ON n.n_nationkey = c.c_nationkey
    LEFT JOIN region r ON r.r_regionkey = n.n_regionkey
    GROUP BY ROLLUP (r.r_name, o.o_orderpriority)
"""

ORACLE_SQL["lineitem_corr"] = """
    WITH q AS (SELECT CAST(l_quantity AS BIGINT) AS x,
                      CAST(floor(l_extendedprice) AS BIGINT) AS y
               FROM lineitem)
    SELECT CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(x) AS BIGINT) AS sx,
           CAST(SUM(y) AS BIGINT) AS sy,
           CAST(SUM(x * x) AS BIGINT) AS sxx,
           CAST(SUM(y * y) AS BIGINT) AS syy,
           CAST(SUM(x * y) AS BIGINT) AS sxy
    FROM q
"""

ORACLE_SQL["lineitem_wsample"] = """
    WITH kw AS (SELECT l_orderkey * 10 + l_linenumber AS k,
                       CAST(l_quantity AS BIGINT) AS w
                FROM lineitem)
    SELECT k, w FROM kw
    WHERE CAST(CAST(('0x' || substr(md5(CAST(k AS VARCHAR)), 1, 15))
                    AS BIGINT) AS HUGEINT) * 50
          < CAST(w AS HUGEINT) * (CAST(1 AS HUGEINT) << 60)
"""

ORACLE_SQL["order_ranks"] = """
    SELECT o_orderkey, o_orderpriority,
           round(PERCENT_RANK() OVER (PARTITION BY o_orderpriority
                                      ORDER BY o_orderkey), 8) AS pr,
           CAST(NTILE(4) OVER (PARTITION BY o_orderpriority
                               ORDER BY o_orderkey) AS BIGINT) AS t4
    FROM orders
"""

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

ORACLE_SQL["orders_rollup"] = """
    SELECT o_orderpriority, o_orderstatus,
           CAST(SUM(CAST(round(o_totalprice * 100.0) AS BIGINT))
                AS BIGINT) AS sum_cents,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders
    GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
"""

ORACLE_SQL["orders_cube"] = """
    SELECT o_orderstatus, o_orderpriority,
           CAST(SUM(CAST(round(o_totalprice * 100.0) AS BIGINT))
                AS BIGINT) AS sum_cents,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders
    GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""

ORACLE_SQL["basket_pairs"] = f"""
    WITH p AS (SELECT DISTINCT a.l_orderkey, a.l_partkey AS u,
                               b.l_partkey AS v
               FROM lineitem a JOIN lineitem b
                 ON a.l_orderkey = b.l_orderkey
                AND a.l_partkey < b.l_partkey)
    SELECT u, v, CAST(COUNT(*) AS BIGINT) AS support
    FROM p GROUP BY u, v HAVING COUNT(*) >= {BASKET_MIN_SUPPORT}
"""

ORACLE_SQL["basket_rules"] = f"""
    WITH p AS (SELECT DISTINCT a.l_orderkey, a.l_partkey AS u,
                               b.l_partkey AS v
               FROM lineitem a JOIN lineitem b
                 ON a.l_orderkey = b.l_orderkey
                AND a.l_partkey < b.l_partkey),
    sup AS (SELECT u, v, CAST(COUNT(*) AS BIGINT) AS s
            FROM p GROUP BY u, v HAVING COUNT(*) >= {BASKET_MIN_SUPPORT}),
    item AS (SELECT l_partkey,
                    CAST(COUNT(DISTINCT l_orderkey) AS BIGINT) AS n
             FROM lineitem GROUP BY l_partkey),
    both_dir AS (SELECT u AS ante, v AS cons, s FROM sup
                 UNION ALL SELECT v, u, s FROM sup)
    SELECT b.ante, b.cons, b.s AS sup_pair, i.n AS sup_ante
    FROM both_dir b JOIN item i ON i.l_partkey = b.ante
    WHERE 8 * b.s >= i.n
"""


def q_part_skyline(sf_dir: str):
    """Skyline / Pareto frontier of the part table, minimizing
    (p_retailprice, p_size): parts for which no other part is both
    cheaper-or-equal AND smaller-or-equal with one strict.  Block-local
    frontier pruning (`ops/skyline.py`) shrinks each block to
    ~O((ln n)^(d-1)) candidates before a single-block final pass — the
    ICDE'01 skyline operator expressed as two map_batches rounds with
    no shuffle."""
    from ....ops.skyline import skyline

    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size", "p_retailprice"]
    )
    return skyline(parts, ["p_retailprice", "p_size"])


QUERIES["part_skyline"] = q_part_skyline
ORACLE_SQL["part_skyline"] = """
    SELECT p_partkey, p_size, p_retailprice FROM part a
    WHERE NOT EXISTS (
        SELECT 1 FROM part b
        WHERE b.p_retailprice <= a.p_retailprice AND b.p_size <= a.p_size
          AND (b.p_retailprice < a.p_retailprice OR b.p_size < a.p_size))
"""


