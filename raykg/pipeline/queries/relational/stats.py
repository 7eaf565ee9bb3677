"""Statistical-QA relational queries: rank/association tests, Benford,
Lorenz, skew and FK-integrity audits (split from the relational.py
monolith; definitions verbatim)."""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count

from ...config import PipelineConfig
from ...graph import build_nodes, concept_scores, extract_triples, triples_to_edges
from ...tag import extract_mentions, tag_dataset
from ...transcripts import TRANSCRIPTS_SQL, read_transcripts
from ....core.ontology import clean_ontology
from ....ops import dedup as dedup_ops
from ....ops import similarity as sim_ops
from ....ops import text as text_ops
from .._shared import (ONTOLOGY, ONTOLOGY_SQL_VALUES, _ONTO_CTE, _T_CTE, _OCC_CTE, _cfg, QUERIES, ORACLE_SQL)


def q_lineitem_spearman(sf_dir: str):
    """Spearman rank correlation of quantity vs extended price with
    tie-AVERAGED ranks via rank-by-sort (`ops/rank.with_avg_ranks`):
    one range-partitioned sort per column, block-local tie ranks with a
    driver-merged boundary fix-up, streaming moment partials
    (`ops/spearman.py`).  No joins — the value->rank table of the price
    column is near row-cardinality, so a join-back plan would ship the
    corpus twice more."""
    from ....ops.spearman import spearman

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice"]
    )
    return spearman(li, "l_quantity", "l_extendedprice")


def q_order_gini(sf_dir: str):
    """Per-priority Gini coefficient of order value (the inequality
    index: 2*sum(i*x_(i))/(n*sum x) - (n+1)/n over ascending order
    totals) — one hash exchange via the sharded-groupby combinator, a
    single vectorized lexsort + cumcount kernel per shard
    (`ops/gini.py`)."""
    from ....ops.gini import gini_by

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return gini_by(orders, ["o_orderpriority"], "o_totalprice")


def q_order_ranksum(sf_dir: str):
    """Mann-Whitney U (rank-sum) of order value between URGENT and LOW
    priorities — tie-averaged ranks of the combined sample via
    rank-by-sort (the group column rides along through the sort),
    two-row per-batch rank-sum partials (`ops/ranktest.py`);
    U = R - n(n+1)/2."""
    from ....ops.ranktest import rank_sum_test

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return rank_sum_test(
        orders, "o_orderpriority", "o_totalprice", "1-URGENT", "5-LOW"
    )


QUERIES["lineitem_spearman"] = q_lineitem_spearman
QUERIES["order_gini"] = q_order_gini
QUERIES["order_ranksum"] = q_order_ranksum
ORACLE_SQL["order_ranksum"] = """
    WITH f AS (SELECT o_orderpriority AS grp, o_totalprice AS v FROM orders
               WHERE o_orderpriority IN ('1-URGENT', '5-LOW')),
         r AS (SELECT grp, RANK() OVER (ORDER BY v)
                           + (COUNT(*) OVER (PARTITION BY v) - 1) / 2.0 AS rk
               FROM f)
    SELECT grp, COUNT(*) AS n, ROUND(SUM(rk), 2) AS rank_sum,
           ROUND(SUM(rk) - COUNT(*) * (COUNT(*) + 1.0) / 2.0, 2) AS u_stat
    FROM r GROUP BY grp
"""
ORACLE_SQL["lineitem_spearman"] = """
    WITH r AS (SELECT
        RANK() OVER (ORDER BY l_quantity)
            + (COUNT(*) OVER (PARTITION BY l_quantity) - 1) / 2.0 AS rx,
        RANK() OVER (ORDER BY l_extendedprice)
            + (COUNT(*) OVER (PARTITION BY l_extendedprice) - 1) / 2.0 AS ry
        FROM lineitem)
    SELECT ROUND(corr(rx, ry), 6) AS spearman_rho FROM r
"""
ORACLE_SQL["order_gini"] = """
    WITH r AS (SELECT o_orderpriority, o_totalprice AS v,
                      ROW_NUMBER() OVER (PARTITION BY o_orderpriority
                                         ORDER BY o_totalprice) AS i
               FROM orders)
    SELECT o_orderpriority,
           ROUND(2.0 * SUM(i * v) / (COUNT(*) * SUM(v))
                 - (COUNT(*) + 1.0) / COUNT(*), 6) AS gini
    FROM r GROUP BY o_orderpriority
"""


def q_order_chi2(sf_dir: str):
    """Chi-square independence test of order priority vs order status —
    observed-cells-only via the identity sum((o-e)^2/e) = sum(o^2/e) - n
    (`ops/contingency.py`); per-batch vectorized pair counts, bounded
    categorical grid, 9x3-row driver fold."""
    from ....ops.contingency import chi_square

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderstatus"]
    )
    return chi_square(orders, "o_orderpriority", "o_orderstatus")


def q_price_benford(sf_dir: str):
    """Benford leading-digit audit of extended price: exact integer
    digit extraction (scale to cents, vectorized integer division —
    never floor(log10), whose float error flips digits of exact powers
    of ten), 9-bin per-batch histograms, zero exchanges
    (`ops/digits.py`)."""
    from ....ops.digits import benford_digits

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return benford_digits(li, "l_extendedprice")


QUERIES["order_chi2"] = q_order_chi2
QUERIES["price_benford"] = q_price_benford
ORACLE_SQL["order_chi2"] = """
    WITH c AS (SELECT o_orderpriority AS a, o_orderstatus AS b,
                      CAST(COUNT(*) AS DOUBLE) AS c
               FROM orders GROUP BY 1, 2),
    ta AS (SELECT a, SUM(c) AS t FROM c GROUP BY a),
    tb AS (SELECT b, SUM(c) AS t FROM c GROUP BY b),
    tn AS (SELECT SUM(c) AS n FROM c)
    SELECT ROUND(SUM(c.c * c.c / (ta.t * tb.t / tn.n)) - ANY_VALUE(tn.n), 6)
               AS chi2,
           CAST(((SELECT COUNT(*) FROM ta) - 1)
                * ((SELECT COUNT(*) FROM tb) - 1) AS BIGINT) AS dof
    FROM c JOIN ta USING (a) JOIN tb USING (b) CROSS JOIN tn
"""
ORACLE_SQL["price_benford"] = """
    WITH i AS (SELECT CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) AS v
               FROM lineitem
               WHERE CAST(ROUND(l_extendedprice * 100, 0) AS BIGINT) > 0),
    d AS (SELECT CAST(SUBSTR(CAST(v AS VARCHAR), 1, 1) AS BIGINT) AS digit
          FROM i),
    c AS (SELECT digit, COUNT(*) AS n FROM d GROUP BY digit),
    g AS (SELECT UNNEST(GENERATE_SERIES(1, 9)) AS digit)
    SELECT g.digit, COALESCE(c.n, 0) AS n,
           ROUND(COALESCE(c.n, 0) / (SELECT SUM(n) FROM c), 6) AS p,
           ROUND(LN(1.0 + 1.0 / g.digit) / LN(10.0), 6) AS benford_p
    FROM g LEFT JOIN c USING (digit) ORDER BY g.digit
"""


def q_cust_kendall(sf_dir: str):
    """Exact Kendall tau-b between customer nation (bounded categorical
    side) and account balance — one sort(y) exchange, per-block sparse
    x-histograms, driver-merged cross-block y-tie groups, vectorized
    prefix-histogram C/D scan (`ops/kendall.py`).  The general inversion
    count doesn't distribute; the bounded-K contract is documented and
    enforced (loud error above 4096 distinct)."""
    from ....ops.kendall import kendall_tau

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_nationkey", "c_acctbal"]
    )
    return kendall_tau(cust, "c_nationkey", "c_acctbal")


QUERIES["cust_kendall"] = q_cust_kendall
ORACLE_SQL["cust_kendall"] = """
    WITH p AS (SELECT a.c_nationkey AS x1, a.c_acctbal AS y1,
                      b.c_nationkey AS x2, b.c_acctbal AS y2
               FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey),
    s AS (SELECT
            SUM(CASE WHEN (x1 < x2 AND y1 < y2) OR (x1 > x2 AND y1 > y2)
                     THEN 1 ELSE 0 END) AS c,
            SUM(CASE WHEN (x1 < x2 AND y1 > y2) OR (x1 > x2 AND y1 < y2)
                     THEN 1 ELSE 0 END) AS d,
            SUM(CASE WHEN x1 = x2 THEN 1 ELSE 0 END) AS nx,
            SUM(CASE WHEN y1 = y2 THEN 1 ELSE 0 END) AS ny,
            COUNT(*) AS n0
          FROM p)
    SELECT CAST(c AS BIGINT) AS concordant, CAST(d AS BIGINT) AS discordant,
           ROUND((c - d) / SQRT((n0 - nx) * (n0 - ny)), 6) AS kendall_tau
    FROM s
"""


def q_price_regression(sf_dir: str):
    """Per-returnflag OLS regression of extended price on quantity
    (slope ~ average unit price): six additive moments from per-batch
    vectorized grouped partials, zero exchanges, driver combine over
    the bounded flag set (`ops/regress.py`)."""
    from ....ops.regress import linreg_by

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )
    return linreg_by(li, ["l_returnflag"], "l_quantity", "l_extendedprice")


QUERIES["price_regression"] = q_price_regression
ORACLE_SQL["price_regression"] = """
    WITH m AS (SELECT l_returnflag,
                      CAST(COUNT(*) AS DOUBLE) AS n,
                      SUM(l_quantity) AS sx, SUM(l_extendedprice) AS sy,
                      SUM(l_quantity * l_quantity) AS sxx,
                      SUM(l_extendedprice * l_extendedprice) AS syy,
                      SUM(l_quantity * l_extendedprice) AS sxy
               FROM lineitem GROUP BY l_returnflag)
    SELECT l_returnflag, CAST(n AS BIGINT) AS n,
           ROUND((n * sxy - sx * sy) / (n * sxx - sx * sx), 6) AS slope,
           ROUND((sy - (n * sxy - sx * sy) / (n * sxx - sx * sx) * sx) / n, 6)
               AS intercept,
           ROUND((n * sxy - sx * sy) * (n * sxy - sx * sy)
                 / ((n * sxx - sx * sx) * (n * syy - sy * sy)), 6) AS r2
    FROM m
"""




# ---------------------------------------------------------------------------
# Referential-integrity audit: orphan-row / orphan-key counts for every
# foreign-key relationship — the data-quality gate a warehouse load runs
# ---------------------------------------------------------------------------

FK_RELATIONSHIPS = (
    # (name, child table, child key, parent table, parent key)
    ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem->part", "lineitem", "l_partkey", "part", "p_partkey"),
)


def q_fk_audit(sf_dir: str):
    """Foreign-key integrity audit: per relationship, child row/key totals
    and orphan row/key counts (child keys absent from the parent).

    Plan, scale notes: neither side is assumed small.  Every table is
    scanned exactly ONCE, emitting key-level cells for every relationship
    it participates in (lineitem's one scan yields child cells for both
    its FKs; orders yields its child cells AND its parent keys), tagged
    with a relationship id.  ONE hash(rel, key) sharded exchange
    co-locates each key's cells and every shard emits <= |relationships|
    4-cell partials, so the exchange carries key cells, never child
    rows, and the final groupby runs over the 3-value relationship
    domain.  No broadcast of a potentially corpus-sized parent key set
    anywhere."""
    from ....ops.agg import sharded_groupby_apply

    rel_ids = {rel: i for i, (rel, *_rest) in enumerate(FK_RELATIONSHIPS)}
    # per table: [(rel_id, column, is_child)]
    roles: dict = {}
    for rel, child, ckey, parent, pkey in FK_RELATIONSHIPS:
        roles.setdefault(child, []).append((rel_ids[rel], ckey, True))
        roles.setdefault(parent, []).append((rel_ids[rel], pkey, False))

    def cell_emitter(table_roles):
        def cells(batch: pa.Table) -> pa.Table:
            rels, keys, ns, sides = [], [], [], []
            for rid, col, is_child in table_roles:
                k = batch[col].to_numpy(zero_copy_only=False)
                uniq, counts = np.unique(k, return_counts=True)
                rels.append(np.full(len(uniq), rid, dtype=np.int8))
                keys.append(uniq)
                ns.append(counts.astype(np.int64) if is_child
                          else np.zeros(len(uniq), dtype=np.int64))
                sides.append(np.full(len(uniq), 0 if is_child else 1,
                                     dtype=np.int8))
            return pa.table(
                {"rel": pa.array(np.concatenate(rels), type=pa.int8()),
                 "k": pa.array(np.concatenate(keys), type=pa.int64()),
                 "n": pa.array(np.concatenate(ns), type=pa.int64()),
                 "side": pa.array(np.concatenate(sides), type=pa.int8())}
            )

        return cells

    # four reads union into one exchange, so cap each scan's block count
    # by bytes (32 MiB/block): Ray's default parallelism-driven split would
    # put 64 near-empty blocks per table on the wire at test scale (256
    # tiny Sort inputs = pure driver overhead), while at 100 TB the same
    # rule still yields thousands of read blocks per table.
    import os as _os

    streams = []
    for table, table_roles in roles.items():
        path = f"{sf_dir}/{table}.parquet"
        nb = int(max(1, min(512, _os.path.getsize(path) // (32 << 20))))
        ds = ray.data.read_parquet(
            path,
            columns=sorted({c for _, c, _ in table_roles}),
            override_num_blocks=nb,
        )
        streams.append(
            ds.map_batches(cell_emitter(table_roles), batch_format="pyarrow")
        )
    cells = streams[0]
    for s in streams[1:]:
        cells = cells.union(s)

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["rel", "k"], sort=False).agg(
            child_n=("n", "sum"), has_parent=("side", "max")
        ).reset_index()
        g = g[g["child_n"] > 0]
        orphan = (g["has_parent"] == 0).to_numpy()
        n = g["child_n"].to_numpy()
        out = pd.DataFrame({"rel": g["rel"], "child_n": n,
                            "orphan_rows": np.where(orphan, n, 0),
                            "orphan_keys": orphan.astype(np.int64),
                            "one": np.ones(len(g), dtype=np.int64)})
        return out.groupby("rel", as_index=False, sort=False).agg(
            n_child_rows=("child_n", "sum"), n_child_keys=("one", "sum"),
            n_orphan_rows=("orphan_rows", "sum"),
            n_orphan_keys=("orphan_keys", "sum"),
        )

    parts = sharded_groupby_apply(cells, ["rel", "k"], in_shard)
    final = (
        parts.groupby("rel")
        .sum(["n_child_rows", "n_child_keys", "n_orphan_rows",
              "n_orphan_keys"])
        .to_pandas()
        .rename(columns={f"sum({c})": c for c in
                         ("n_child_rows", "n_child_keys",
                          "n_orphan_rows", "n_orphan_keys")})
        .sort_values("rel")
    )
    names = [rel for rel, *_ in FK_RELATIONSHIPS]
    return pa.table(
        {
            "relationship": pa.array(
                [names[int(r)] for r in final["rel"]], type=pa.string()),
            "n_child_rows": pa.array(
                final["n_child_rows"].to_numpy().astype(np.int64)),
            "n_child_keys": pa.array(
                final["n_child_keys"].to_numpy().astype(np.int64)),
            "n_orphan_rows": pa.array(
                final["n_orphan_rows"].to_numpy().astype(np.int64)),
            "n_orphan_keys": pa.array(
                final["n_orphan_keys"].to_numpy().astype(np.int64)),
        }
    )


QUERIES["fk_audit"] = q_fk_audit
ORACLE_SQL["fk_audit"] = " UNION ALL ".join(
    f"""
    (WITH ck AS (SELECT {ckey} AS k, COUNT(*) AS n FROM {child} GROUP BY 1),
          pk AS (SELECT DISTINCT {pkey} AS k FROM {parent})
     SELECT '{rel}' AS relationship,
            CAST(SUM(ck.n) AS BIGINT) AS n_child_rows,
            COUNT(*) AS n_child_keys,
            CAST(COALESCE(SUM(CASE WHEN pk.k IS NULL THEN ck.n END), 0)
                 AS BIGINT) AS n_orphan_rows,
            CAST(COALESCE(SUM(CASE WHEN pk.k IS NULL THEN 1 END), 0)
                 AS BIGINT) AS n_orphan_keys
     FROM ck LEFT JOIN pk USING (k))
    """
    for rel, child, ckey, parent, pkey in FK_RELATIONSHIPS
)


# ---------------------------------------------------------------------------
# Partitioning-key skew profiler: row/distinct/max-frequency per candidate
# shuffle key — the report you read BEFORE choosing a partitioning scheme
# ---------------------------------------------------------------------------

SKEW_COLUMNS = (
    # (label, table, column)
    ("orders.o_custkey", "orders", "o_custkey"),
    ("lineitem.l_orderkey", "lineitem", "l_orderkey"),
    ("lineitem.l_partkey", "lineitem", "l_partkey"),
    ("events.user_id", "events", "user_id"),
)


def q_skew_report(sf_dir: str):
    """Per candidate partitioning key: exact row count, distinct-key
    count, the hottest key's row count, and its share in basis points —
    the skew profile that decides salting / bucket counts before any
    shuffle is planned.

    Plan, scale notes: same shape as the FK audit — each table scans
    once per profiled column set with byte-sized blocks, batches fold to
    (col, key, n) pre-agg cells, ONE hash(col, key) exchange co-locates
    keys, shards emit per-column 3-cell partials (sum / count / max),
    and the final groupby runs over the 4-value column domain.  The
    hot-key max composes correctly across shards because a key lives in
    exactly one shard."""
    from ....ops.agg import sharded_groupby_apply

    import os as _os

    col_ids = {label: i for i, (label, _t, _c) in enumerate(SKEW_COLUMNS)}
    by_table: dict = {}
    for label, table, column in SKEW_COLUMNS:
        by_table.setdefault(table, []).append((col_ids[label], column))

    def emitter(specs):
        def cells(batch: pa.Table) -> pa.Table:
            cols, keys, ns = [], [], []
            for cid, column in specs:
                k = batch[column].to_numpy(zero_copy_only=False)
                uniq, counts = np.unique(k, return_counts=True)
                cols.append(np.full(len(uniq), cid, dtype=np.int8))
                keys.append(uniq.astype(np.int64))
                ns.append(counts.astype(np.int64))
            return pa.table(
                {"col": pa.array(np.concatenate(cols), type=pa.int8()),
                 "k": pa.array(np.concatenate(keys), type=pa.int64()),
                 "n": pa.array(np.concatenate(ns), type=pa.int64())}
            )

        return cells

    streams = []
    for table, specs in by_table.items():
        path = f"{sf_dir}/{table}.parquet"
        nb = int(max(1, min(512, _os.path.getsize(path) // (32 << 20))))
        ds = ray.data.read_parquet(
            path, columns=sorted({c for _, c in specs}),
            override_num_blocks=nb,
        )
        streams.append(ds.map_batches(emitter(specs), batch_format="pyarrow"))
    cells = streams[0]
    for s in streams[1:]:
        cells = cells.union(s)

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["col", "k"], sort=False)["n"].sum().reset_index()
        return g.groupby("col", as_index=False, sort=False).agg(
            n_rows=("n", "sum"), n_distinct=("n", "size"), max_key_rows=("n", "max")
        )

    parts = sharded_groupby_apply(cells, ["col", "k"], in_shard)
    final = (
        parts.groupby("col")
        .aggregate(*_skew_aggs())
        .to_pandas()
        .rename(columns={"sum(n_rows)": "n_rows",
                         "sum(n_distinct)": "n_distinct",
                         "max(max_key_rows)": "max_key_rows"})
        .sort_values("col")
    )
    labels = [label for label, _t, _c in SKEW_COLUMNS]
    n_rows = final["n_rows"].to_numpy().astype(np.int64)
    mx = final["max_key_rows"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "column": pa.array([labels[int(c)] for c in final["col"]],
                               type=pa.string()),
            "n_rows": pa.array(n_rows),
            "n_distinct": pa.array(
                final["n_distinct"].to_numpy().astype(np.int64)),
            "max_key_rows": pa.array(mx),
            "top_share_bp": pa.array((10000 * mx) // n_rows, type=pa.int64()),
        }
    )


def _skew_aggs():
    from ray.data.aggregate import Max, Sum

    return [Sum("n_rows"), Sum("n_distinct"), Max("max_key_rows")]


QUERIES["skew_report"] = q_skew_report
ORACLE_SQL["skew_report"] = " UNION ALL ".join(
    f"""
    (WITH f AS (SELECT {column} AS k, COUNT(*) AS n FROM {table} GROUP BY 1)
     SELECT '{label}' AS "column",
            CAST(SUM(n) AS BIGINT) AS n_rows,
            COUNT(*) AS n_distinct,
            CAST(MAX(n) AS BIGINT) AS max_key_rows,
            CAST((10000 * MAX(n)) // SUM(n) AS BIGINT) AS top_share_bp
     FROM f)
    """
    for label, table, column in SKEW_COLUMNS
)


def q_revenue_lorenz(sf_dir: str):
    """Revenue-concentration (Lorenz) profile: customers ranked by total
    order revenue descending, cumulative revenue share at each decile
    boundary in exact integer basis points.  Per-customer cents fold in
    one hash(custkey) exchange; `ops/index.zip_with_index` ranks the
    customer-domain table with a range-partitioned sort (ties carry
    equal revenue, so every tie permutation yields the same decile
    sums — no tiebreak column needed); a final streaming pass folds ten
    masked partial sums per batch, so no row-level cumulative column
    ever materializes."""
    from ....ops.index import zip_with_index

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def pre(batch: pa.Table) -> pa.Table:
        ck = batch["o_custkey"].to_numpy(zero_copy_only=False)
        c = np.rint(
            batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        uniq, inv = np.unique(ck, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, c)
        return pa.table(
            {
                "o_custkey": pa.array(uniq, type=pa.int64()),
                "rev_c": pa.array(sums, type=pa.int64()),
            }
        )

    rev = (
        orders.map_batches(pre, batch_format="pyarrow")
        .groupby("o_custkey")
        .sum("rev_c")
        .map_batches(
            lambda b: pa.table(
                {
                    "rev_c": b["sum(rev_c)"],
                    "neg_rev": pa.array(
                        -b["sum(rev_c)"].to_numpy(zero_copy_only=False),
                        type=pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    ranked = zip_with_index(rev, sort_key="neg_rev", id_col="rk").materialize()
    total = int(ranked.sum("rev_c") or 0)
    n = ranked.count()
    bounds = [(n * k + 9) // 10 for k in range(1, 11)]

    def partials(batch: pa.Table) -> pa.Table:
        rk = batch["rk"].to_numpy(zero_copy_only=False)
        rv = batch["rev_c"].to_numpy(zero_copy_only=False)
        sums = [int(rv[rk < b].sum()) for b in bounds]
        return pa.table(
            {
                "decile": pa.array(np.arange(1, 11, dtype=np.int64), type=pa.int64()),
                "cum_rev_c": pa.array(np.asarray(sums, dtype=np.int64), type=pa.int64()),
            }
        )

    out = (
        ranked.map_batches(partials, batch_format="pyarrow")
        .groupby("decile")
        .sum("cum_rev_c")
        .to_pandas()
        .rename(columns={"sum(cum_rev_c)": "cum_rev_c"})
        .sort_values("decile")
    )
    cum = out["cum_rev_c"].to_numpy(np.int64)
    return pa.table(
        {
            "decile": pa.array(out["decile"].to_numpy(np.int64), type=pa.int64()),
            "cum_rev_c": pa.array(cum, type=pa.int64()),
            "cum_share_bp": pa.array(
                10000 * cum // total if total else cum * 0, type=pa.int64()
            ),
        }
    )


QUERIES["revenue_lorenz"] = q_revenue_lorenz
ORACLE_SQL["revenue_lorenz"] = """
    WITH rev AS (SELECT o_custkey,
                        CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                             AS BIGINT) AS rev_c
                 FROM orders GROUP BY 1),
    r AS (SELECT rev_c,
                 ROW_NUMBER() OVER (ORDER BY rev_c DESC, o_custkey) - 1 AS rk
          FROM rev),
    t AS (SELECT COUNT(*) AS n, SUM(rev_c) AS total FROM rev),
    ks AS (SELECT unnest(generate_series(1, 10)) AS decile)
    SELECT CAST(ks.decile AS BIGINT) AS decile,
           CAST((SELECT SUM(r.rev_c) FROM r, t
                 WHERE r.rk < (t.n * ks.decile + 9) // 10) AS BIGINT)
               AS cum_rev_c,
           CAST(10000 * (SELECT SUM(r.rev_c) FROM r, t
                         WHERE r.rk < (t.n * ks.decile + 9) // 10)
                // (SELECT total FROM t) AS BIGINT) AS cum_share_bp
    FROM ks ORDER BY ks.decile
"""


def q_order_gaps(sf_dir: str):
    """Per-customer inter-order cadence profile: number of gaps, total
    and maximum gap in EXACT integer days between consecutive orders
    (order-date order, orderkey tie-break).  One hash(custkey) exchange
    co-locates each customer's orders; the per-shard kernel is one
    lexsort + grouped diff — no per-customer Python loop.  Customers
    with a single order drop (no gap), mirroring the LAG oracle."""
    from ....ops.agg import sharded_groupby_apply

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey", "o_orderdate"]
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        days = df["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        d = pd.DataFrame(
            {"c": df["o_custkey"].to_numpy(), "k": df["o_orderkey"].to_numpy(),
             "d": days}
        ).sort_values(["c", "d", "k"], kind="stable")
        gap = d["d"].diff()
        same = d["c"].eq(d["c"].shift())
        d["gap"] = gap.where(same)
        g = d.dropna(subset=["gap"]).groupby("c", sort=False)["gap"].agg(
            ["size", "sum", "max"]
        )
        return pd.DataFrame(
            {
                "o_custkey": g.index.to_numpy(np.int64),
                "n_gaps": g["size"].to_numpy(np.int64),
                "sum_gap_days": g["sum"].to_numpy(np.int64),
                "max_gap_days": g["max"].to_numpy(np.int64),
            }
        )

    return sharded_groupby_apply(orders, ["o_custkey"], fold)


QUERIES["order_gaps"] = q_order_gaps
ORACLE_SQL["order_gaps"] = """
    WITH g AS (SELECT o_custkey,
                      DATEDIFF('day',
                               LAG(CAST(o_orderdate AS DATE)) OVER (
                                   PARTITION BY o_custkey
                                   ORDER BY o_orderdate, o_orderkey),
                               CAST(o_orderdate AS DATE)) AS gap
               FROM orders)
    SELECT o_custkey,
           CAST(COUNT(gap) AS BIGINT) AS n_gaps,
           CAST(SUM(gap) AS BIGINT) AS sum_gap_days,
           CAST(MAX(gap) AS BIGINT) AS max_gap_days
    FROM g WHERE gap IS NOT NULL
    GROUP BY o_custkey
"""
