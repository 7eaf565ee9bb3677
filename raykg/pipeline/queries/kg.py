"""Knowledge-graph build (triples/edges/nodes) and the queries over it:
PageRank, co-mentions, the KG report and export, and the triangle
family over the co-order part graph.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..graph import build_nodes, extract_triples, triples_to_edges
from ..transcripts import read_transcripts
from ...core.ontology import clean_ontology
from ._shared import (ONTOLOGY, _ONTO_CTE, _T_CTE, _OCC_CTE, _cfg, QUERIES, ORACLE_SQL)
from .tag import _mentions


def q_triples(sf_dir: str):
    return extract_triples(
        read_transcripts(sf_dir), ONTOLOGY, _cfg(category_column="category")
    )


def q_edges(sf_dir: str):
    return triples_to_edges(q_triples(sf_dir))


def q_nodes(sf_dir: str):
    onto_rows = clean_ontology(ONTOLOGY, has_category=True)
    return build_nodes(q_triples(sf_dir), onto_rows)


def q_pagerank(sf_dir: str):
    """PageRank over the KG edge table (3 fixed iterations, damping 0.85)
    — the iterative two-exchange-per-step loop in `ops/pagerank.py`;
    ranks rounded to 8 decimals for the hash compare (values are
    O(1/n_nodes), so 4 decimals would collapse them)."""
    from ...ops.pagerank import pagerank

    pr = pagerank(q_edges(sf_dir), damping=0.85, iters=3, num_shards=16)

    def round8(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"node": batch["node"], "pr": pc.round(batch["pr"], 8)})

    return pr.map_batches(round8, batch_format="pyarrow")


PPR_SEEDS = ["concept:Engine", "concept:Customer"]


def q_part_truss(sf_dir: str):
    """4-truss of the undirected part-supplier modular graph: the
    maximal subgraph where every edge closes >= 2 triangles — the
    cohesive-core extractor above a plain degree core.
    `ops/triangles.ktruss`: per peel round, degree-ordered wedges close
    in place against the broadcast packed edge keys, each triangle
    feeds +1 support to its three edges through one src-sharded + one
    edge-sharded exchange; strictly-decreasing edge count is the
    convergence witness."""
    from ...ops.triangles import ktruss

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_linenumber"],
    )

    def mod_edges(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_linenumber"] == 1]
        return pd.DataFrame(
            {
                "u": (df["l_partkey"] % 997).to_numpy(dtype=np.int64),
                "v": (df["l_suppkey"] * 7 % 997).to_numpy(dtype=np.int64),
            }
        )

    return ktruss(
        li.map_batches(mod_edges, batch_format="pandas"),
        k=4,
        num_shards=16,
        max_rounds=25,
    )


def _truss_sql(rounds: int = 14, need: int = 2) -> str:
    """Unrolled truss-peel mirror: per round, each edge's support is its
    endpoints' common-neighbor count in the SURVIVING graph; fixpoint is
    reached within ``rounds`` at both test scales (engine measured <= 12
    at sf0.01), so the last unrolled step equals the engine's converged
    set."""
    parts = [
        """
    WITH e0 AS MATERIALIZED (SELECT DISTINCT
                    least(l_partkey % 997, l_suppkey * 7 % 997) AS u,
                    greatest(l_partkey % 997, l_suppkey * 7 % 997) AS v
                FROM lineitem
                WHERE l_linenumber = 1
                  AND (l_partkey % 997) <> (l_suppkey * 7 % 997))"""
    ]
    for i in range(rounds):
        parts.append(
            f""",
    a{i} AS MATERIALIZED (SELECT u AS x, v AS y FROM e{i}
             UNION ALL SELECT v, u FROM e{i}),
    e{i + 1} AS MATERIALIZED (SELECT e.u, e.v FROM e{i} e
                 WHERE (SELECT COUNT(*) FROM a{i} p JOIN a{i} q
                        ON p.y = q.y
                        WHERE p.x = e.u AND q.x = e.v) >= {need})"""
        )
    parts.append(f"\n    SELECT u, v FROM e{rounds}")
    return "".join(parts)


def q_conv_dot(sf_dir: str):
    """KG export: one Graphviz DOT digraph per conversation (its
    distinct edges, sorted — byte-deterministic like the JSON export
    formats) — a conv-sharded string fold over the edge table; every
    edge's conversation is derivable from its src id, so no join."""
    from ...ops.agg import sharded_groupby_apply

    e = q_edges(sf_dir).select_columns(["src", "dst"])

    def with_conv(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["src", "dst"])
        df["conv_id"] = df["src"].str.split("#").str[0]
        return df

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates(["src", "dst"]).sort_values(
            ["conv_id", "src", "dst"], kind="stable"
        )
        out_conv, out_dot = [], []
        for conv, g in df.groupby("conv_id", sort=False):
            lines = "".join(
                f'  "{s}" -> "{d}";\n'
                for s, d in zip(g["src"], g["dst"])
            )
            out_conv.append(conv)
            out_dot.append("digraph {\n" + lines + "}")
        return pd.DataFrame({"conv_id": out_conv, "dot": out_dot})

    return sharded_groupby_apply(
        e.map_batches(with_conv, batch_format="pandas"),
        ["conv_id"],
        fold,
        num_shards=16,
    )


def q_ppr(sf_dir: str):
    """Personalized PageRank from two concept seeds over the same KG edge
    table (3 iterations, damping 0.85): teleport, dangling mass and the
    initial ranks all concentrate on the seed set, so ranks measure
    proximity to the seeds — `ops/pagerank.pagerank(seeds=...)`; the
    query-sized seed set rides in closures, never shuffled."""
    from ...ops.pagerank import pagerank

    pr = pagerank(
        q_edges(sf_dir), damping=0.85, iters=3, num_shards=16, seeds=PPR_SEEDS
    )

    def round8(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"node": batch["node"], "pr": pc.round(batch["pr"], 8)})

    return pr.map_batches(round8, batch_format="pyarrow")


def q_co_mentions(sf_dir: str):
    """Concept-concept co-mention edges (tags sharing a turn) —
    `ops/comention.py` over the mentions long table."""
    from ...ops.comention import co_mention_edges

    return co_mention_edges(_mentions(sf_dir), num_shards=16)


def q_kg_butterflies(sf_dir: str):
    """Butterfly (2x2 biclique) count of the bipartite turn-concept
    graph — the bipartite motif behind KG density/quality audits.  Each
    concept pair co-supported by c turns contributes C(c, 2)
    butterflies, so the count folds from the co-mention pair table
    (`ops/comention.py`) with one scalar reduce: no 4-node enumeration
    ever materializes."""
    from ...ops.comention import co_mention_edges

    pairs = co_mention_edges(_mentions(sf_dir), num_shards=16)

    def choose2(batch: pa.Table) -> pa.Table:
        c = batch["n_turns"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"b": pa.array(c * (c - 1) // 2, type=pa.int64())}
        )

    total = pairs.map_batches(choose2, batch_format="pyarrow").sum("b") or 0
    return pa.table({"butterflies": pa.array([int(total)], type=pa.int64())})


def q_co_mentions_adj(sf_dir: str):
    """Concept co-occurrence across SLIDING 2-turn windows: tags
    mentioned within one turn of each other count together (question in
    turn t, answer entity in t+1).  Each mention row expands to its two
    covering windows (a stateless map), then the SAME turn-local pair
    machinery (`ops/comention.py`) runs with the window id as the group
    key — no new exchange shape."""
    from ...ops.comention import co_mention_edges

    m = _mentions(sf_dir)

    def expand(batch: pa.Table) -> pa.Table:
        conv = batch["conv_id"].combine_chunks()
        turn = batch["turn_idx"].to_numpy(zero_copy_only=False).astype(
            np.int32
        )
        tag = batch["tag"].combine_chunks()
        return pa.table(
            {
                "conv_id": pa.chunked_array([conv, conv]),
                "turn_idx": pa.array(
                    np.concatenate([turn, turn - 1]), type=pa.int32()
                ),
                "tag": pa.chunked_array([tag, tag]),
            }
        )

    pairs = co_mention_edges(
        m.map_batches(expand, batch_format="pyarrow"), num_shards=16
    )
    return pairs.map_batches(
        lambda b: pa.table(
            {
                "tag_a": b["tag_a"],
                "tag_b": b["tag_b"],
                "n_windows": b["n_turns"],
            }
        ),
        batch_format="pyarrow",
    )


def q_hub_nodes(sf_dir: str):
    """Top-10 hub nodes by out-degree over distinct KG edges — sharded
    degree count + per-block partial top-10 + one tiny final reduce
    (`ops/topk.global_topk`; no global sort of the node-degree table);
    ties broken by node id."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.setops import distinct_rows
    from ...ops.topk import global_topk

    e = distinct_rows(
        q_edges(sf_dir).select_columns(["src", "dst"]), ["src", "dst"], num_shards=16
    )

    def count_out(df):
        import pandas as pd

        g = df.groupby("src", sort=False, as_index=False).size()
        return g.rename(columns={"size": "out_degree"})

    deg = sharded_groupby_apply(e, ["src"], count_out, num_shards=16)

    def typed(df):
        return pa.table(
            {
                "src": pa.array(df["src"], type=pa.string()),
                "out_degree": pa.array(df["out_degree"], type=pa.int64()),
            }
        )

    return global_topk(
        deg.map_batches(typed, batch_format="pandas"),
        "out_degree",
        k=10,
        descending=True,
        tiebreak=["src"],
    )


def q_concept_rank(sf_dir: str):
    """Weighted PageRank over the symmetrized concept co-mention graph
    (edge weight = co-occurrence turn count) — concept centrality."""
    from ...ops.comention import co_mention_edges
    from ...ops.pagerank import pagerank

    cm = co_mention_edges(_mentions(sf_dir), num_shards=16)

    def symmetrize(df) -> pa.Table:
        import numpy as np

        a = df["tag_a"].to_numpy()
        b = df["tag_b"].to_numpy()
        w = df["n_turns"].to_numpy(dtype=np.float64)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.string()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.string()),
                "w": pa.array(np.concatenate([w, w]), type=pa.float64()),
            }
        )

    edges = cm.map_batches(symmetrize, batch_format="pandas")
    pr = pagerank(edges, weight_column="w", damping=0.85, iters=3, num_shards=8)

    def round8(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"node": batch["node"], "pr": pc.round(batch["pr"], 8)})

    return pr.map_batches(round8, batch_format="pyarrow")


def _co_order_pairs(sf_dir: str):
    from ...ops.triangles import group_pairs

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return group_pairs(li, "l_orderkey", "l_partkey", num_shards=32)


def q_tri_counts(sf_dir: str):
    """Per-part triangle counts over the co-order part graph (parts
    linked when they co-occur in an order).  Graph build is one
    order-sharded pair expansion (`group_pairs`); counting is the
    degree-ordered wedge-closure engine in `ops/triangles.py` — wedge
    volume bounded O(m^1.5) regardless of hot parts."""
    from ...ops.triangles import triangle_counts

    out = triangle_counts(_co_order_pairs(sf_dir), num_shards=32)

    def typed(df):
        return pa.table(
            {
                "node": pa.array(df["node"], type=pa.int64()),
                "n_tri": pa.array(df["n_tri"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_clustering_coef(sf_dir: str):
    """Local clustering coefficient per part —
    `ops/triangles.clustering_coefficients`: the triangle engine composed
    with the degree table, coef = 2*n_tri / (deg*(deg-1)) rounded to 8.
    The triangle-count attach is threshold-gated like every other graph
    engine: broadcast below `broadcast_max_nodes`, bucketed LEFT hash
    join above it, pinned bit-equal by test."""
    from ...ops.triangles import clustering_coefficients

    return clustering_coefficients(_co_order_pairs(sf_dir), num_shards=32)


def q_part_rank(sf_dir: str):
    """Parts dense-ranked by total ordered quantity — per-part sum (one
    sharded exchange) then `ops/topk.dense_rank_global` (distinct totals
    broadcast once, ranks attached with a searchsorted; no global
    sort)."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.topk import dense_rank_global

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        df = pa.table(
            {
                "l_partkey": batch["l_partkey"],
                "q": pc.cast(batch["l_quantity"], pa.int64()),
            }
        ).to_pandas()
        g = df.groupby("l_partkey", sort=False, as_index=False)["q"].sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    totals = sharded_groupby_apply(
        li.map_batches(partial, batch_format="pyarrow"),
        ["l_partkey"],
        lambda df: df.groupby("l_partkey", sort=False, as_index=False)["q"]
        .sum()
        .rename(columns={"q": "total_qty"}),
        32,
    )
    out = dense_rank_global(totals, "total_qty", ascending=False)

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "l_partkey": pc.cast(batch["l_partkey"], pa.int64()),
                "total_qty": pc.cast(batch["total_qty"], pa.int64()),
                "rank": pc.cast(batch["rank"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_kg_report(sf_dir: str):
    """KG build report — the post-build sanity table an operator reads
    first: one row per node type and per edge relation with its count
    (kind column disambiguates).  Tiny two-sided aggregate over the
    node/edge outputs; the triples build runs ONCE (materialized) and
    both sides derive from it — unioning two independent tag-actor
    pipelines would run two fixed-size pools concurrently."""
    triples = q_triples(sf_dir).materialize()
    onto_rows = clean_ontology(ONTOLOGY, has_category=True)
    nodes = build_nodes(triples, onto_rows)
    edges = triples_to_edges(triples)

    def node_part(df):
        import pandas as pd

        g = df.groupby("node_type", sort=False, as_index=False).size()
        return pd.DataFrame(
            {"kind": "node", "name": g["node_type"], "n": g["size"]}
        )

    def edge_part(df):
        import pandas as pd

        g = df.groupby("rel", sort=False, as_index=False).size()
        return pd.DataFrame({"kind": "edge", "name": g["rel"], "n": g["size"]})

    from ...ops.agg import sharded_groupby_apply

    both = nodes.map_batches(node_part, batch_format="pandas").union(
        edges.map_batches(edge_part, batch_format="pandas")
    )
    out = sharded_groupby_apply(
        both,
        ["kind", "name"],
        lambda df: df.groupby(["kind", "name"], sort=False, as_index=False)[
            "n"
        ].sum(),
        4,
    )

    def typed(df):
        return pa.table(
            {
                "kind": pa.array(df["kind"], type=pa.string()),
                "name": pa.array(df["name"], type=pa.string()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_kg_reciprocity(sf_dir: str):
    """Reciprocity of the directed part->supplier modular graph: how
    many distinct edges have their reverse present (cycle-density audit
    of a KG layer).  Each edge maps to its canonical unordered pair +
    direction flag; ONE pair-sharded exchange counts both-direction
    pairs — no self-join of the edge table."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.setops import distinct_rows

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_linenumber"],
    )

    def mod_edges(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_linenumber"] == 1]
        return pd.DataFrame(
            {
                "src": (df["l_partkey"] % 997).to_numpy(dtype=np.int64),
                "dst": (df["l_suppkey"] * 7 % 997).to_numpy(dtype=np.int64),
            }
        )

    e = distinct_rows(
        li.map_batches(mod_edges, batch_format="pandas"),
        ["src", "dst"],
        num_shards=16,
    )

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        s = df["src"].to_numpy(dtype=np.int64)
        d = df["dst"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "lo": np.minimum(s, d),
                "hi": np.maximum(s, d),
                "fwd": (s <= d).astype(np.int64),
                "rev": (s > d).astype(np.int64),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lo", "hi"], sort=False)[["fwd", "rev"]].sum()
        both = (g["fwd"] > 0) & (g["rev"] > 0)
        # self-loops (lo == hi) are their own reverse
        loops = g.index.get_level_values(0) == g.index.get_level_values(1)
        n_edges = int((g["fwd"] + g["rev"]).sum())
        n_recip = int(
            (g.loc[both & ~loops, ["fwd", "rev"]].to_numpy().sum())
            + g.loc[loops, ["fwd", "rev"]].to_numpy().sum()
        )
        return pd.DataFrame({"n_edges": [n_edges], "n_recip": [n_recip]})

    parts = sharded_groupby_apply(
        e.map_batches(canon, batch_format="pandas"),
        ["lo", "hi"],
        fold,
        num_shards=16,
    ).to_pandas()  # num_shards scalar rows
    return pa.table(
        {
            "n_edges": pa.array([int(parts["n_edges"].sum())], type=pa.int64()),
            "n_recip": pa.array([int(parts["n_recip"].sum())], type=pa.int64()),
        }
    )


def q_doc_tree(sf_dir: str):
    """Subtree (n_leaves, total n_chars) per node of the radix-10 doc-id
    hierarchy — computable-parent rollup, flat ancestor expansion +
    one exchange (`ops/rollup.py:hierarchy_rollup`)."""
    from ...ops.rollup import hierarchy_rollup

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return hierarchy_rollup(docs, "doc_id", "n_chars", base=10)


def q_node_ids(sf_dir: str):
    """Dense 0..N-1 entity numbering of the KG node table in node_id
    order — the embedding-trainer handoff (`ops/index.py:zip_with_index`,
    the documented raw-task exception: block offsets from metadata only)."""
    from ...ops.index import zip_with_index

    nodes = q_nodes(sf_dir).select_columns(["node_id", "node_type"])
    return zip_with_index(nodes, sort_key="node_id", id_col="rank")


QUERIES["ppr_concepts"] = q_ppr
QUERIES["kg_butterflies"] = q_kg_butterflies
QUERIES["co_mentions_adj"] = q_co_mentions_adj
QUERIES["kg_reciprocity"] = q_kg_reciprocity
QUERIES["part_truss"] = q_part_truss
QUERIES["conv_dot"] = q_conv_dot
QUERIES["triples"] = q_triples
QUERIES["edges"] = q_edges
QUERIES["nodes"] = q_nodes
QUERIES["pagerank"] = q_pagerank
QUERIES["co_mentions"] = q_co_mentions
QUERIES["hub_nodes"] = q_hub_nodes
QUERIES["concept_rank"] = q_concept_rank
QUERIES["tri_counts"] = q_tri_counts
QUERIES["kg_report"] = q_kg_report
QUERIES["clustering_coef"] = q_clustering_coef
QUERIES["part_rank"] = q_part_rank
QUERIES["doc_tree"] = q_doc_tree
QUERIES["node_ids"] = q_node_ids
ORACLE_SQL["triples"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT conv_id AS subj, 'utters' AS pred,
               conv_id || '#' || turn_idx AS obj, conv_id, turn_idx,
               1.0 AS weight FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, 'used_tool', tool, conv_id, turn_idx, 1.0
        FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'tagged_as',
               'concept:' || tag, conv_id, turn_idx, 1.0 FROM occ
    """
ORACLE_SQL["edges"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT conv_id AS src, 'utters' AS rel,
               conv_id || '#' || turn_idx AS dst, conv_id, turn_idx,
               1.0 AS weight FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, 'used_tool', tool, conv_id, turn_idx, 1.0
        FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'tagged_as',
               'concept:' || tag, conv_id, turn_idx, 1.0 FROM occ
    """
ORACLE_SQL["nodes"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT DISTINCT conv_id AS node_id, 'conversation' AS node_type,
               conv_id AS label, CAST(NULL AS VARCHAR) AS category FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, 'turn', conv_id || '#' || turn_idx, NULL FROM t
        UNION ALL
        SELECT DISTINCT 'tool:' || tool, 'tool', tool, NULL FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'mention', keyword, NULL FROM occ
        UNION ALL
        SELECT DISTINCT 'concept:' || tag, 'concept', tag, category FROM onto
    """


def _pagerank_sql(damping: float = 0.85, iters: int = 3, seeds=None) -> str:
    """Unrolled fixed-iteration PageRank mirror: one CTE triple
    (dangling mass, contribution sums, fold) per iteration — recursive
    CTEs cannot aggregate over the previous step in standard SQL, and
    unrolling keeps the arithmetic order-independent enough that the
    8-decimal rounding on both sides hash-matches.  With ``seeds`` the
    reset vector (init + teleport + dangling) concentrates on the seed
    nodes, mirroring the engine's personalized walk."""
    parts = [
        f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    e AS (SELECT DISTINCT src, dst FROM eraw),
    pr_nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM pr_nodes),
    od AS (SELECT src AS node, CAST(COUNT(*) AS DOUBLE) AS od
           FROM e GROUP BY src)"""
    ]
    if seeds is None:
        parts.append(
            """,
    pr0 AS (SELECT node, 1.0 / (SELECT c FROM nn) AS pr FROM pr_nodes)"""
        )
    else:
        seed_in = ", ".join(f"'{s}'" for s in seeds)
        parts.append(
            f""",
    sc AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c
           FROM pr_nodes WHERE node IN ({seed_in})),
    rv AS (SELECT node,
                  CASE WHEN node IN ({seed_in})
                       THEN 1.0 / (SELECT c FROM sc) ELSE 0.0 END AS r
           FROM pr_nodes),
    pr0 AS (SELECT node, r AS pr FROM rv)"""
        )
    for i in range(1, iters + 1):
        p = f"pr{i - 1}"
        if seeds is None:
            fold = f"""(1 - {damping}) / (SELECT c FROM nn)
                     + {damping} * (SELECT m FROM dang{i}) / (SELECT c FROM nn)
                     + {damping} * COALESCE(s.contrib, 0.0)"""
            from_nodes = "pr_nodes nd"
        else:
            fold = f"""(1 - {damping}) * nd.r
                     + {damping} * (SELECT m FROM dang{i}) * nd.r
                     + {damping} * COALESCE(s.contrib, 0.0)"""
            from_nodes = "rv nd"
        parts.append(
            f""",
    dang{i} AS (SELECT COALESCE(SUM(p.pr), 0.0) AS m
                FROM {p} p LEFT JOIN od o ON p.node = o.node
                WHERE o.node IS NULL),
    s{i} AS (SELECT e.dst AS node, SUM(p.pr / o.od) AS contrib
             FROM e JOIN {p} p ON e.src = p.node
                    JOIN od o ON e.src = o.node
             GROUP BY e.dst),
    pr{i} AS (SELECT nd.node,
                     {fold} AS pr
              FROM {from_nodes} LEFT JOIN s{i} s ON nd.node = s.node)"""
        )
    parts.append(f"\n    SELECT node, round(pr, 8) AS pr FROM pr{iters}")
    return "".join(parts)


ORACLE_SQL["pagerank"] = _pagerank_sql(damping=0.85, iters=3)
ORACLE_SQL["ppr_concepts"] = _pagerank_sql(
    damping=0.85, iters=3, seeds=PPR_SEEDS
)


ORACLE_SQL["kg_reciprocity"] = """
    WITH e AS (SELECT DISTINCT l_partkey % 997 AS src,
                               l_suppkey * 7 % 997 AS dst
               FROM lineitem WHERE l_linenumber = 1)
    SELECT CAST(COUNT(*) AS BIGINT) AS n_edges,
           CAST(SUM(CASE WHEN EXISTS (
                    SELECT 1 FROM e r
                    WHERE r.src = e.dst AND r.dst = e.src)
                THEN 1 ELSE 0 END) AS BIGINT) AS n_recip
    FROM e
"""


ORACLE_SQL["part_truss"] = _truss_sql(rounds=14, need=2)


ORACLE_SQL["co_mentions"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    d AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ)
    SELECT a.tag AS tag_a, b.tag AS tag_b,
           CAST(COUNT(*) AS BIGINT) AS n_turns
    FROM d a JOIN d b
      ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx AND a.tag < b.tag
    GROUP BY 1, 2
"""

ORACLE_SQL["kg_butterflies"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    d AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ),
    p AS (SELECT a.tag AS ta, b.tag AS tb, CAST(COUNT(*) AS BIGINT) AS c
          FROM d a JOIN d b
            ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
           AND a.tag < b.tag
          GROUP BY 1, 2)
    SELECT CAST(COALESCE(SUM(c * (c - 1) / 2), 0) AS BIGINT)
           AS butterflies
    FROM p
"""

ORACLE_SQL["co_mentions_adj"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    d AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ),
    wd AS (SELECT DISTINCT conv_id, w, tag FROM (
               SELECT conv_id, turn_idx AS w, tag FROM d
               UNION ALL
               SELECT conv_id, turn_idx - 1 AS w, tag FROM d))
    SELECT a.tag AS tag_a, b.tag AS tag_b,
           CAST(COUNT(*) AS BIGINT) AS n_windows
    FROM wd a JOIN wd b
      ON a.conv_id = b.conv_id AND a.w = b.w AND a.tag < b.tag
    GROUP BY 1, 2
"""

ORACLE_SQL["hub_nodes"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    e AS (SELECT DISTINCT src, dst FROM eraw)
    SELECT src, CAST(COUNT(*) AS BIGINT) AS out_degree
    FROM e GROUP BY src
    ORDER BY out_degree DESC, src LIMIT 10
"""


def _pagerank_weighted_sql(damping: float = 0.85, iters: int = 3) -> str:
    """Weighted unrolled PageRank over the symmetrized co-mention graph:
    same shape as `_pagerank_sql` with out-degree replaced by out-strength
    (SUM of weights) and contributions pr * w / strength — the same
    left-associated expression the engine evaluates."""
    parts = [
        f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    d AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ),
    cm AS (SELECT a.tag AS tag_a, b.tag AS tag_b,
                  CAST(COUNT(*) AS DOUBLE) AS w
           FROM d a JOIN d b
             ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
            AND a.tag < b.tag
           GROUP BY 1, 2),
    eraw AS (SELECT tag_a AS src, tag_b AS dst, w FROM cm
             UNION ALL SELECT tag_b, tag_a, w FROM cm),
    e AS (SELECT src, dst, SUM(w) AS w FROM eraw GROUP BY 1, 2),
    pr_nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS c FROM pr_nodes),
    od AS (SELECT src AS node, SUM(w) AS od FROM e GROUP BY src),
    pr0 AS (SELECT node, 1.0 / (SELECT c FROM nn) AS pr FROM pr_nodes)"""
    ]
    for i in range(1, iters + 1):
        p = f"pr{i - 1}"
        parts.append(
            f""",
    dang{i} AS (SELECT COALESCE(SUM(p.pr), 0.0) AS m
                FROM {p} p LEFT JOIN od o ON p.node = o.node
                WHERE o.node IS NULL),
    s{i} AS (SELECT e.dst AS node, SUM(p.pr * e.w / o.od) AS contrib
             FROM e JOIN {p} p ON e.src = p.node
                    JOIN od o ON e.src = o.node
             GROUP BY e.dst),
    pr{i} AS (SELECT nd.node,
                     (1 - {damping}) / (SELECT c FROM nn)
                     + {damping} * (SELECT m FROM dang{i}) / (SELECT c FROM nn)
                     + {damping} * COALESCE(s.contrib, 0.0) AS pr
              FROM pr_nodes nd LEFT JOIN s{i} s ON nd.node = s.node)"""
        )
    parts.append(f"\n    SELECT node, round(pr, 8) AS pr FROM pr{iters}")
    return "".join(parts)


ORACLE_SQL["concept_rank"] = _pagerank_weighted_sql(damping=0.85, iters=3)

ORACLE_SQL["tri_counts"] = """
    WITH pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    tri AS (
        SELECT e1.u AS a, e1.v AS b, e2.v AS c FROM pairs e1
        JOIN pairs e2 ON e1.v = e2.u
        JOIN pairs e3 ON e3.u = e1.u AND e3.v = e2.v),
    corner AS (SELECT a AS node FROM tri UNION ALL
               SELECT b FROM tri UNION ALL
               SELECT c FROM tri)
    SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
    FROM corner GROUP BY node
"""


ORACLE_SQL["part_rank"] = """
    WITH t AS (SELECT l_partkey,
                      CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                          AS total_qty
               FROM lineitem GROUP BY l_partkey)
    SELECT l_partkey, total_qty,
           CAST(DENSE_RANK() OVER (ORDER BY total_qty DESC) AS BIGINT)
               AS rank
    FROM t
"""


ORACLE_SQL["conv_dot"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    e AS (SELECT DISTINCT src, dst FROM eraw),
    c AS (SELECT string_split(src, '#')[1] AS conv_id, src, dst FROM e)
    SELECT conv_id,
           'digraph {{' || chr(10)
           || string_agg('  "' || src || '" -> "' || dst || '";' || chr(10),
                         '' ORDER BY src, dst)
           || '}}' AS dot
    FROM c GROUP BY conv_id
"""

ORACLE_SQL["kg_report"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
    SELECT 'node' AS kind, 'conversation' AS name,
           CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n FROM t
    UNION ALL SELECT 'node', 'turn', CAST(COUNT(*) AS BIGINT) FROM t
    UNION ALL SELECT 'node', 'tool',
           CAST(COUNT(DISTINCT tool) AS BIGINT) FROM t
           WHERE tool IS NOT NULL
    UNION ALL SELECT 'node', 'mention', CAST(COUNT(*) AS BIGINT) FROM occ
    UNION ALL SELECT 'node', 'concept',
           CAST(COUNT(DISTINCT tag) AS BIGINT) FROM onto
    UNION ALL SELECT 'edge', 'utters', CAST(COUNT(*) AS BIGINT) FROM t
    UNION ALL SELECT 'edge', 'used_tool', CAST(COUNT(*) AS BIGINT) FROM t
           WHERE tool IS NOT NULL
    UNION ALL SELECT 'edge', 'tagged_as', CAST(COUNT(*) AS BIGINT) FROM occ
"""


ORACLE_SQL["clustering_coef"] = """
    WITH pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    adj AS (SELECT u AS node, v AS nbr FROM pairs
            UNION ALL SELECT v, u FROM pairs),
    deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
            FROM adj GROUP BY node),
    tri AS (
        SELECT e1.u AS a, e1.v AS b, e2.v AS c FROM pairs e1
        JOIN pairs e2 ON e1.v = e2.u
        JOIN pairs e3 ON e3.u = e1.u AND e3.v = e2.v),
    corner AS (SELECT a AS node FROM tri UNION ALL
               SELECT b FROM tri UNION ALL
               SELECT c FROM tri),
    tc AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS n_tri
           FROM corner GROUP BY node)
    SELECT deg.node, COALESCE(tc.n_tri, 0) AS n_tri, deg.d AS deg,
           round(CASE WHEN deg.d > 1
                      THEN 2.0 * COALESCE(tc.n_tri, 0)
                           / (deg.d * (deg.d - 1))
                      ELSE 0.0 END, 8) AS coef
    FROM deg LEFT JOIN tc ON tc.node = deg.node
"""


ORACLE_SQL["doc_tree"] = """
    WITH RECURSIVE anc AS (
        SELECT doc_id AS node, n_chars FROM documents
        UNION ALL
        SELECT node // 10, n_chars FROM anc WHERE node > 0)
    SELECT node, CAST(COUNT(*) AS BIGINT) AS n_leaves,
           CAST(SUM(n_chars) AS BIGINT) AS total
    FROM anc GROUP BY node
"""


ORACLE_SQL["node_ids"] = f"""
    SELECT node_id, node_type,
           CAST(row_number() OVER (ORDER BY node_id) - 1 AS BIGINT) AS "rank"
    FROM ({ORACLE_SQL["nodes"]}) AS n
"""


def q_kg_cardinality(sf_dir: str):
    """Predicate cardinality profiling — the KG-QA report that types each
    relation as 1-1 / 1-N / N-1 / N-N from its max per-subject and
    per-object fanout (functional / inverse-functional tests; this is
    what picks TransE-style vs ComplEx-style embedding models per
    relation).  Distinct (subj, pred, obj) edges via one sharded
    distinct, then per-side fanouts in hash(pred, endpoint) shards that
    emit only PRED-LEVEL partials (n_keys, max fanout, edge sum) — the
    final combine is preds x shards rows on the driver."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.setops import distinct_rows

    tr = q_triples(sf_dir).map_batches(
        lambda b: b.select(["subj", "pred", "obj"]), batch_format="pyarrow"
    )
    tr = distinct_rows(tr, ["subj", "pred", "obj"], num_shards=32).materialize()

    def side_partials(key: str):
        def shard(df: pd.DataFrame) -> pd.DataFrame:
            c = df.groupby(["pred", key], sort=False).size()
            g = c.groupby(level=0)
            return pd.DataFrame(
                {"pred": g.size().index.to_numpy(object),
                 "n_keys": g.size().to_numpy(np.int64),
                 "max_fan": g.max().to_numpy(np.int64),
                 "n_edges": g.sum().to_numpy(np.int64)}
            )

        return shard

    def collect(ds_partials) -> pd.DataFrame:
        df = ds_partials.to_pandas()  # <= preds x shards rows
        g = df.groupby("pred", sort=False)
        return pd.DataFrame(
            {"n_keys": g["n_keys"].sum(), "max_fan": g["max_fan"].max(),
             "n_edges": g["n_edges"].sum()}
        )

    out_side = collect(
        sharded_groupby_apply(tr, ["pred", "subj"], side_partials("subj"),
                              num_shards=32))
    in_side = collect(
        sharded_groupby_apply(tr, ["pred", "obj"], side_partials("obj"),
                              num_shards=32))
    preds = sorted(out_side.index)
    n_edges = out_side.loc[preds, "n_edges"].to_numpy(np.int64)
    n_subj = out_side.loc[preds, "n_keys"].to_numpy(np.int64)
    max_out = out_side.loc[preds, "max_fan"].to_numpy(np.int64)
    n_obj = in_side.loc[preds, "n_keys"].to_numpy(np.int64)
    max_in = in_side.loc[preds, "max_fan"].to_numpy(np.int64)
    card = np.where(
        (max_out == 1) & (max_in == 1), "1-1",
        np.where(max_in == 1, "1-N", np.where(max_out == 1, "N-1", "N-N")),
    )
    return pa.table(
        {"pred": pa.array(preds, type=pa.string()),
         "n_edges": pa.array(n_edges, type=pa.int64()),
         "n_subj": pa.array(n_subj, type=pa.int64()),
         "n_obj": pa.array(n_obj, type=pa.int64()),
         "max_out": pa.array(max_out, type=pa.int64()),
         "max_in": pa.array(max_in, type=pa.int64()),
         "card_class": pa.array(card, type=pa.string())}
    )


QUERIES["kg_cardinality"] = q_kg_cardinality
ORACLE_SQL["kg_cardinality"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    tr AS (
        SELECT DISTINCT subj, pred, obj FROM (
            SELECT conv_id AS subj, 'utters' AS pred,
                   conv_id || '#' || turn_idx AS obj FROM t
            UNION ALL
            SELECT conv_id || '#' || turn_idx, 'used_tool', tool
            FROM t WHERE tool IS NOT NULL
            UNION ALL
            SELECT conv_id || '#' || turn_idx || '#' || keyword, 'tagged_as',
                   'concept:' || tag FROM occ)),
    o AS (SELECT pred, subj, COUNT(*) AS c FROM tr GROUP BY 1, 2),
    i AS (SELECT pred, obj, COUNT(*) AS c FROM tr GROUP BY 1, 2),
    s AS (SELECT pred, CAST(COUNT(*) AS BIGINT) AS n_subj,
                 CAST(MAX(c) AS BIGINT) AS max_out,
                 CAST(SUM(c) AS BIGINT) AS n_edges
          FROM o GROUP BY 1),
    d AS (SELECT pred, CAST(COUNT(*) AS BIGINT) AS n_obj,
                 CAST(MAX(c) AS BIGINT) AS max_in
          FROM i GROUP BY 1)
    SELECT s.pred, n_edges, n_subj, n_obj, max_out, max_in,
           CASE WHEN max_out = 1 AND max_in = 1 THEN '1-1'
                WHEN max_in = 1 THEN '1-N'
                WHEN max_out = 1 THEN 'N-1'
                ELSE 'N-N' END AS card_class
    FROM s JOIN d USING (pred)
"""


