"""Knowledge-graph build (triples/edges/nodes) and graph algorithms.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.aggregate import Count

from ..config import PipelineConfig
from ..graph import build_nodes, concept_scores, extract_triples, triples_to_edges
from ..tag import extract_mentions, tag_dataset
from ..transcripts import TRANSCRIPTS_SQL, read_transcripts
from ...core.ontology import clean_ontology
from ...ops import dedup as dedup_ops
from ...ops import similarity as sim_ops
from ...ops import text as text_ops
from ._shared import (ONTOLOGY, ONTOLOGY_SQL_VALUES, _ONTO_CTE, _T_CTE, _OCC_CTE, _cfg, QUERIES, ORACLE_SQL)
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


def q_part_scc(sf_dir: str):
    """Strongly connected components of a directed part->supplier modular
    graph (one dense cycle cluster + singleton chains) —
    `ops/scc.strongly_connected_components`, FW-BW-MIN coloring with
    BSP min-label propagation per direction and loud peel/iteration
    caps."""
    from ...ops.scc import strongly_connected_components

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

    return strongly_connected_components(
        li.map_batches(mod_edges, batch_format="pandas"),
        num_shards=16,
        num_buckets=8,
    )


def q_scc_dag_depth(sf_dir: str):
    """Layer count of the SCC condensation: collapse the part->supplier
    digraph's cycles (`ops/scc`), project edges onto SCC ids
    (`condensation_edges`, broadcast relabel under the label gate), and
    relax longest-path depth over the DAG (`dag_depth`, level-
    synchronous max+1 with a loud cycle cap)."""
    from ...ops.scc import condensation_edges, dag_depth

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

    edges = li.map_batches(mod_edges, batch_format="pandas").materialize()
    labels = q_part_scc(sf_dir)
    ce = condensation_edges(edges, labels, num_shards=16, num_buckets=8)
    d = dag_depth(ce, num_shards=16, num_buckets=8)
    return pa.table({"depth": pa.array([d], type=pa.int64())})


def q_part_truss(sf_dir: str):
    """4-truss of the undirected part-supplier modular graph: the
    maximal subgraph where every edge closes >= 2 triangles — the
    cohesive-core extractor one tier above `part_kcore`.
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


def q_wl_classes(sf_dir: str):
    """Structural-equivalence classes from the 2-round WL colors: class
    sizes plus the candidate-pair count C(n,2) a structural entity-
    canonicalizer would verify — a bounded per-color fold over
    `ops/wl.wl_refine` (class count <= node count; pairs never
    enumerate)."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.wl import wl_refine

    colors = wl_refine(q_edges(sf_dir), rounds=2, num_shards=16)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("wl_color", sort=False).size()
        n = g.to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "wl_color": g.index.to_numpy(),
                "n_nodes": n,
                "n_pairs": n * (n - 1) // 2,
            }
        )

    out = sharded_groupby_apply(colors, ["wl_color"], fold, num_shards=16)

    def typed(df):
        return pa.table(
            {
                "wl_color": pa.array(df["wl_color"], type=pa.string()),
                "n_nodes": pa.array(df["n_nodes"].to_numpy(), type=pa.int64()),
                "n_pairs": pa.array(df["n_pairs"].to_numpy(), type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


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


def q_kg_katz(sf_dir: str):
    """Katz centrality over the directed KG edge table as exact scaled
    integers (beta=1/4, paths up to length 3) — `ops/hits.katz_path_scores`;
    one broadcast + one node-sharded fold per length step."""
    from ...ops.hits import katz_path_scores

    e = q_edges(sf_dir).select_columns(["src", "dst"])
    return katz_path_scores(e, iters=3, base=4, num_shards=16)


def q_wl_colors(sf_dir: str):
    """Weisfeiler-Lehman color refinement (2 rounds) over the KG edge
    table: structural node signatures for entity canonicalization —
    `ops/wl.wl_refine`, one label-attach (broadcast under threshold) +
    one node-sharded sorted-multiset fold per round."""
    from ...ops.wl import wl_refine

    return wl_refine(q_edges(sf_dir), rounds=2, num_shards=16)


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


def q_tri_counts(sf_dir: str):
    """Per-part triangle counts over the co-order part graph (parts
    linked when they co-occur in an order).  Graph build is one
    order-sharded pair expansion (`group_pairs`); counting is the
    degree-ordered wedge-closure engine in `ops/triangles.py` — wedge
    volume bounded O(m^1.5) regardless of hot parts."""
    from ...ops.triangles import group_pairs, triangle_counts

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    pairs = group_pairs(li, "l_orderkey", "l_partkey", num_shards=32)
    out = triangle_counts(pairs, num_shards=32)

    def typed(df):
        return pa.table(
            {
                "node": pa.array(df["node"], type=pa.int64()),
                "n_tri": pa.array(df["n_tri"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_part_hops(sf_dir: str):
    """Minimum hops from part 1 over the undirected co-order part graph
    (≤3 hops) — level-synchronous BFS in `ops/bfs.py` (broadcast-frontier
    engine; the sharded engine is pinned equal by test)."""
    from ...ops.bfs import khop_min_hops
    from ...ops.triangles import group_pairs

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    pairs = group_pairs(li, "l_orderkey", "l_partkey", num_shards=32)
    out = khop_min_hops(pairs, [1], src="u", dst="v", max_hops=3, directed=False)

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "node": pc.cast(batch["node"], pa.int64()),
                "hops": pc.cast(batch["hops"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_clustering_coef(sf_dir: str):
    """Local clustering coefficient per part —
    `ops/triangles.clustering_coefficients`: the triangle engine composed
    with the degree table, coef = 2*n_tri / (deg*(deg-1)) rounded to 8.
    The triangle-count attach is threshold-gated like every other graph
    engine: broadcast below `broadcast_max_nodes`, bucketed LEFT hash
    join above it, pinned bit-equal by test."""
    from ...ops.triangles import clustering_coefficients

    return clustering_coefficients(_co_order_pairs(sf_dir), num_shards=32)


def q_part_walks(sf_dir: str):
    """DeepWalk-style corpus prep: one deterministic 3-step random walk
    per part over the co-order graph — `ops/walks.py` (md5-seeded
    neighbor picks over sorted adjacency; one bucketed frontier ⋈
    adjacency exchange per step, reproducible across partitionings and
    in SQL)."""
    from ...ops.walks import random_walks

    out = random_walks(_co_order_pairs(sf_dir), length=3, num_shards=32)

    def typed(df):
        return pa.table(
            {
                "walk_id": pa.array(df["walk_id"], type=pa.int64()),
                "step": pa.array(df["step"], type=pa.int64()),
                "node": pa.array(df["node"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_kg_hits(sf_dir: str):
    """HITS hub/authority scores over the directed KG edge table as
    exact 3-round alternating-path counts — `ops/hits.py` (node-state
    vectors broadcast per half-iteration, one node-sharded contribution
    fold each; integer-exact, so the unrolled SQL join chain is
    bit-equal)."""
    from ...ops.hits import hits_path_counts

    e = q_edges(sf_dir).select_columns(["src", "dst"])
    out = hits_path_counts(e, iters=3, num_shards=16)

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "node": pc.cast(batch["node"], pa.string()),
                "hub": pc.cast(batch["hub"], pa.int64()),
                "auth": pc.cast(batch["auth"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_part_kcore(sf_dir: str):
    """Bounded 2-round 80-core peeling of the co-order part graph —
    `ops/graphstats.kcore_bounded` (per round one degree exchange + one
    survivor-set broadcast filter; bounded iterations keep it
    SQL-mirrorable like the BFS/Bellman-Ford family)."""
    from ...ops.graphstats import kcore_bounded

    out = kcore_bounded(
        _co_order_pairs(sf_dir), k=80, rounds=2, num_shards=32
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "node": pc.cast(batch["node"], pa.int64()),
                "deg": pc.cast(batch["deg"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_communities(sf_dir: str):
    """Synchronous majority label propagation (2 fixed rounds,
    deterministic smallest-label tie-break) over the co-order part graph
    — `ops/communities.label_propagation`; the oracle unrolls both rounds
    as window-ranked mode CTEs."""
    from ...ops.communities import label_propagation

    return label_propagation(_co_order_pairs(sf_dir), rounds=2, num_shards=32)


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


def q_diameter_est(sf_dir: str):
    """Double-BFS diameter lower bound on the co-order part graph: BFS
    from part 1 finds the farthest node (ties -> smallest id), a second
    BFS from there gives the classic 2-sweep eccentricity estimate —
    pure composition of `ops/bfs.khop_min_hops`.  One row
    (start, far, ecc1, ecc2).  Hops bounded at 3: the dense co-order
    graph's diameter is ~2, and the bound keeps the SQL mirror's
    recursive path enumeration polynomial.

    The hop tables are node-sized, so they never reach the driver: each
    BFS folds to (eccentricity, argmin node at eccentricity) via per-batch
    partials — the driver sees O(num_blocks) rows, then two ints."""
    from ...ops.bfs import khop_min_hops

    def _ecc_argmin(hops_ds) -> tuple:
        """(max hops, min node among rows at max hops) without pulling the
        node-sized hop table: one partial row per batch, tiny driver fold."""

        def part(batch: pa.Table) -> pa.Table:
            h = batch["hops"].to_numpy(zero_copy_only=False)
            n = batch["node"].to_numpy(zero_copy_only=False)
            if len(h) == 0:
                return pa.table(
                    {"ecc": pa.array([], type=pa.int64()),
                     "node": pa.array([], type=pa.int64())}
                )
            m = h.max()
            return pa.table(
                {"ecc": pa.array([int(m)], type=pa.int64()),
                 "node": pa.array([int(n[h == m].min())], type=pa.int64())}
            )

        parts = hops_ds.map_batches(part, batch_format="pyarrow").to_pandas()
        ecc = int(parts["ecc"].max())
        return ecc, int(parts[parts["ecc"] == ecc]["node"].min())

    pairs = _co_order_pairs(sf_dir).materialize()
    h1 = khop_min_hops(pairs, [1], src="u", dst="v", max_hops=3, directed=False)
    ecc1, far = _ecc_argmin(h1)
    h2 = khop_min_hops(pairs, [far], src="u", dst="v", max_hops=3, directed=False)
    ecc2, _ = _ecc_argmin(h2)
    return pa.table(
        {
            "start": pa.array([1], type=pa.int64()),
            "far": pa.array([far], type=pa.int64()),
            "ecc1": pa.array([ecc1], type=pa.int64()),
            "ecc2": pa.array([ecc2], type=pa.int64()),
        }
    )


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


def _co_order_pairs(sf_dir: str):
    from ...ops.triangles import group_pairs

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return group_pairs(li, "l_orderkey", "l_partkey", num_shards=32)


def q_part_assort(sf_dir: str):
    """Newman degree assortativity of the co-order part graph as the
    exact integer rational (m, num, den) — `ops/graphstats.py` (degrees
    broadcast once, four scalar sums folded from per-batch partials)."""
    from ...ops.graphstats import degree_assortativity

    return degree_assortativity(_co_order_pairs(sf_dir), num_shards=32)


def q_degree_hist(sf_dir: str):
    """Power-of-two degree histogram of the co-order part graph —
    node-sized table, one tiny bucket exchange."""
    from ...ops.graphstats import degree_histogram

    out = degree_histogram(_co_order_pairs(sf_dir), num_shards=32)

    def typed(df):
        return pa.table(
            {
                "bucket": pa.array(df["bucket"], type=pa.int64()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_cheap_paths(sf_dir: str):
    """Bounded-hop weighted shortest paths from part 1 over the co-order
    part graph; edge weight = MIN over orders of the two line numbers'
    sum (integers, so both engines and the SQL mirror agree exactly).
    Level-synchronous Bellman-Ford in `ops/paths.py` (broadcast engine;
    sharded pinned equal by test)."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.paths import bounded_shortest_paths

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_linenumber"],
    )

    def emit(df):
        import pandas as pd

        # min line number per (order, part) first: min over (i, j) of
        # (ln_i + ln_j) factorizes into min(ln_u) + min(ln_v)
        df = df.sort_values("l_linenumber", kind="stable").drop_duplicates(
            ["l_orderkey", "l_partkey"]
        )
        u_out, v_out, w_out = [], [], []
        for _, g in df.groupby("l_orderkey", sort=False):
            p = g["l_partkey"].to_numpy()
            ln = g["l_linenumber"].to_numpy()
            order = np.argsort(p, kind="stable")
            p, ln = p[order], ln[order]
            k = len(p)
            if k < 2:
                continue
            ii, jj = np.triu_indices(k, 1)
            u_out.append(p[ii])
            v_out.append(p[jj])
            w_out.append(ln[ii] + ln[jj])
        if not u_out:
            return pd.DataFrame(
                {"u": pd.Series([], dtype=np.int64),
                 "v": pd.Series([], dtype=np.int64),
                 "w": pd.Series([], dtype=np.int64)}
            )
        part = pd.DataFrame(
            {"u": np.concatenate(u_out), "v": np.concatenate(v_out),
             "w": np.concatenate(w_out)}
        )
        return part.groupby(["u", "v"], sort=False, as_index=False)["w"].min()

    pairs = sharded_groupby_apply(li, ["l_orderkey"], emit, 32)

    def pair_min(df):
        return df.groupby(["u", "v"], sort=False, as_index=False)["w"].min()

    wedges = sharded_groupby_apply(pairs, ["u", "v"], pair_min, 32)
    out = bounded_shortest_paths(
        wedges, [1], src="u", dst="v", weight="w", max_hops=3
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "node": pc.cast(batch["node"], pa.int64()),
                "cost": pc.cast(batch["cost"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_link_predict(sf_dir: str):
    """Adjacency-Jaccard link-prediction scores over the KG edge table:
    node pairs sharing a neighbor, with common count, Jaccard of the
    adjacency sets, and an is_edge flag — the wedge-expansion /
    pair-reduce engine in `ops/neighbors.py` (pair partials pre-counted
    per shard; degrees broadcast once).  Centers with degree > 64 are
    skipped (the standard hub-cap approximation — a neighbor shared by
    everyone carries no link-prediction signal), which bounds the wedge
    exchange at Θ(64 · |E|) regardless of concept/tool hub growth; the
    oracle mirrors the cap exactly."""
    from ...ops.neighbors import common_neighbor_scores

    e = q_edges(sf_dir).select_columns(["src", "dst"])
    out = common_neighbor_scores(
        e, u="src", v="dst", num_shards=16, min_common=1,
        max_center_degree=64,
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "u": pc.cast(batch["u"], pa.string()),
                "v": pc.cast(batch["v"], pa.string()),
                "common": pc.cast(batch["common"], pa.int64()),
                "jaccard": pc.round(batch["jaccard"], 8),
                "is_edge": pc.cast(batch["is_edge"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


KG_NEG_K = 4


def q_kg_negatives(sf_dir: str):
    """Filtered corrupt-tail negative samples for KG-embedding training:
    per positive mention triple, up to K deterministic negatives drawn by
    the md5 contract from the (broadcast, ontology-sized) concept
    vocabulary — one streaming map_batches, zero shuffle
    (`ops/negatives.py`)."""
    from ...ops.negatives import corrupt_tail_negatives
    from ..tag import extract_mention_counts

    mentions = extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())
    return corrupt_tail_negatives(
        mentions, [t for t, _, _ in ONTOLOGY], k=KG_NEG_K
    )


def q_kg_eval(sf_dir: str):
    """Link-prediction eval harness over the corrupt-tail negatives: rank
    each positive concept against its negatives by the popularity
    baseline (concept in-degree desc, id asc — the standard floor any
    learned KG-embedding must beat) and fold hits@1 / hits@3 / rank-sum
    as exact integers.  Degrees are ontology-sized (driver fold of batch
    partials); beats aggregate per subject in one negative-volume
    exchange; positives with no surviving negative rank 1 by identity,
    so no positive join is needed."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.negatives import corrupt_tail_negatives
    from ..tag import extract_mention_counts

    mentions = extract_mention_counts(
        read_transcripts(sf_dir), ONTOLOGY, _cfg()
    ).materialize()  # consumed thrice: degrees, positives count, negatives
    negs = corrupt_tail_negatives(
        mentions, [t for t, _, _ in ONTOLOGY], k=KG_NEG_K
    )

    deg_parts = mentions.map_batches(
        lambda df: df["tag"].value_counts().rename_axis("tag").reset_index(
            name="n"
        ),
        batch_format="pandas",
    ).to_pandas()  # <= ontology x blocks rows
    deg = {
        f"concept:{t}": int(n)
        for t, n in deg_parts.groupby("tag")["n"].sum().items()
    }

    def beat_partial(df: pd.DataFrame) -> pd.DataFrame:
        dp = df["pos_obj"].map(deg).to_numpy()
        dn = df["neg_obj"].map(deg).to_numpy()
        beats = (dn > dp) | (
            (dn == dp) & (df["neg_obj"].to_numpy() < df["pos_obj"].to_numpy())
        )
        g = pd.DataFrame({"subj": df["subj"], "b": beats.astype(np.int64)})
        return g.groupby("subj", as_index=False)["b"].sum()

    beats = sharded_groupby_apply(
        negs.map_batches(beat_partial, batch_format="pandas"),
        ["subj"],
        lambda df: df.groupby("subj", as_index=False)["b"].sum(),
        num_shards=16,
    )

    def scal(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n1": [int((df["b"] >= 1).sum())],
                "n3": [int((df["b"] >= 3).sum())],
                "sb": [int(df["b"].sum())],
            }
        )

    s = beats.map_batches(scal, batch_format="pandas").to_pandas().sum()
    n_pos = mentions.count()
    return pa.table(
        {
            "n_pos": pa.array([n_pos], type=pa.int64()),
            "hits1": pa.array([n_pos - int(s["n1"])], type=pa.int64()),
            "hits3": pa.array([n_pos - int(s["n3"])], type=pa.int64()),
            "sum_rank": pa.array([n_pos + int(s["sb"])], type=pa.int64()),
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


HARMONIC_SEEDS = [1, 2, 3, 4]


def q_harmonic(sf_dir: str):
    """Landmark-estimated harmonic centrality over the co-order part
    graph: per-seed BFS distances from 4 sampled landmarks
    (`ops/bfs.multi_source_hops` — one edge pass per level tracking all
    seeds), then per node the reached-landmark count and the integer
    harmonic sum Σ 6/d over d ∈ {1, 2} (6 is divisible by every bounded
    hop count, so the score is exact int64 and the SQL mirror is
    bit-equal)."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.bfs import multi_source_hops

    hops = multi_source_hops(
        _co_order_pairs(sf_dir), HARMONIC_SEEDS, src="u", dst="v", max_hops=2,
        directed=False,
    )

    def fold(df):
        import pandas as pd

        d = df[df["hops"] > 0].copy()
        d["c"] = 6 // d["hops"]
        g = d.groupby("node", sort=False).agg(
            n_seeds=("seed", "size"), h6=("c", "sum")
        )
        return pd.DataFrame(
            {
                "node": g.index.to_numpy(),
                "n_seeds": g["n_seeds"].to_numpy().astype("int64"),
                "h6": g["h6"].to_numpy().astype("int64"),
            }
        )

    return sharded_groupby_apply(hops, ["node"], fold, num_shards=16)
QUERIES["ppr_concepts"] = q_ppr
QUERIES["wl_colors"] = q_wl_colors
QUERIES["part_scc"] = q_part_scc
QUERIES["kg_katz"] = q_kg_katz
QUERIES["kg_butterflies"] = q_kg_butterflies
QUERIES["scc_dag_depth"] = q_scc_dag_depth
QUERIES["co_mentions_adj"] = q_co_mentions_adj
QUERIES["kg_reciprocity"] = q_kg_reciprocity
QUERIES["part_truss"] = q_part_truss
QUERIES["conv_dot"] = q_conv_dot
QUERIES["wl_classes"] = q_wl_classes
QUERIES["kg_eval"] = q_kg_eval
QUERIES["triples"] = q_triples
QUERIES["edges"] = q_edges
QUERIES["nodes"] = q_nodes
QUERIES["pagerank"] = q_pagerank
QUERIES["co_mentions"] = q_co_mentions
QUERIES["hub_nodes"] = q_hub_nodes
QUERIES["concept_rank"] = q_concept_rank
QUERIES["tri_counts"] = q_tri_counts
QUERIES["part_hops"] = q_part_hops
QUERIES["link_predict"] = q_link_predict
QUERIES["cheap_paths"] = q_cheap_paths
QUERIES["part_assort"] = q_part_assort
QUERIES["degree_hist"] = q_degree_hist
QUERIES["diameter_est"] = q_diameter_est
QUERIES["kg_report"] = q_kg_report
QUERIES["kg_hits"] = q_kg_hits
QUERIES["part_walks"] = q_part_walks
QUERIES["clustering_coef"] = q_clustering_coef
QUERIES["part_rank"] = q_part_rank
QUERIES["part_kcore"] = q_part_kcore
QUERIES["communities"] = q_communities
QUERIES["kg_negatives"] = q_kg_negatives
QUERIES["doc_tree"] = q_doc_tree
QUERIES["node_ids"] = q_node_ids
QUERIES["harmonic"] = q_harmonic
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


def _wl_sql(rounds: int = 2) -> str:
    """Unrolled WL mirror: per round, a sorted ``string_agg`` of in-
    neighbor labels and ``md5(prev || '|' || agg)`` — byte-identical to
    the engine's per-node hash input."""
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
    wn AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    l0 AS (SELECT node, '0' AS lbl FROM wn)"""
    ]
    for i in range(1, rounds + 1):
        parts.append(
            f""",
    a{i} AS (SELECT e.dst AS node,
                    string_agg(p.lbl, ',' ORDER BY p.lbl) AS agg
             FROM e JOIN l{i - 1} p ON e.src = p.node
             GROUP BY e.dst),
    l{i} AS (SELECT n.node,
                    md5(n.lbl || '|' || COALESCE(a.agg, '')) AS lbl
             FROM l{i - 1} n LEFT JOIN a{i} a ON n.node = a.node)"""
        )
    parts.append(f"\n    SELECT node, lbl AS wl_color FROM l{rounds}")
    return "".join(parts)


ORACLE_SQL["wl_colors"] = _wl_sql(rounds=2)

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

ORACLE_SQL["part_scc"] = """
    WITH RECURSIVE
    e AS (SELECT DISTINCT l_partkey % 997 AS src,
                          l_suppkey * 7 % 997 AS dst
          FROM lineitem WHERE l_linenumber = 1),
    reach(s, d) AS (
        SELECT src, dst FROM e
        UNION
        SELECT r.s, e.dst FROM reach r JOIN e ON r.d = e.src),
    n AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    mutual AS (SELECT a.s AS u, a.d AS v
               FROM reach a JOIN reach b ON a.s = b.d AND a.d = b.s),
    allm AS (SELECT u, v FROM mutual
             UNION ALL SELECT node AS u, node AS v FROM n)
    SELECT u AS node, CAST(MIN(v) AS BIGINT) AS scc_id
    FROM allm GROUP BY u
"""

ORACLE_SQL["part_truss"] = _truss_sql(rounds=14, need=2)

ORACLE_SQL["scc_dag_depth"] = """
    WITH RECURSIVE
    e AS (SELECT DISTINCT l_partkey % 997 AS src,
                          l_suppkey * 7 % 997 AS dst
          FROM lineitem WHERE l_linenumber = 1),
    reach(s, d) AS (
        SELECT src, dst FROM e
        UNION
        SELECT r.s, e.dst FROM reach r JOIN e ON r.d = e.src),
    n AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
    mutual AS (SELECT a.s AS u, a.d AS v
               FROM reach a JOIN reach b ON a.s = b.d AND a.d = b.s),
    allm AS (SELECT u, v FROM mutual
             UNION ALL SELECT node AS u, node AS v FROM n),
    scc AS (SELECT u AS node, MIN(v) AS scc_id FROM allm GROUP BY u),
    ce AS (SELECT DISTINCT a.scc_id AS src, b.scc_id AS dst
           FROM e JOIN scc a ON e.src = a.node
                  JOIN scc b ON e.dst = b.node
           WHERE a.scc_id <> b.scc_id),
    roots AS (SELECT DISTINCT src AS node FROM ce
              WHERE src NOT IN (SELECT dst FROM ce)),
    walk(node, dep) AS (
        SELECT node, 0 FROM roots
        UNION
        SELECT ce.dst, w.dep + 1 FROM walk w JOIN ce ON ce.src = w.node)
    SELECT CAST(COALESCE(MAX(dep), 0) AS BIGINT) AS depth FROM walk
"""

ORACLE_SQL["wl_classes"] = (
    _wl_sql(rounds=2)
    .replace(
        "SELECT node, lbl AS wl_color FROM l2",
        """SELECT lbl AS wl_color, CAST(COUNT(*) AS BIGINT) AS n_nodes,
           CAST(COUNT(*) * (COUNT(*) - 1) / 2 AS BIGINT) AS n_pairs
    FROM l2 GROUP BY lbl""",
    )
)

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

ORACLE_SQL["link_predict"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    ce AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
           FROM eraw WHERE src <> dst),
    adj AS (SELECT u AS node, v AS nbr FROM ce
            UNION ALL SELECT v, u FROM ce),
    deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
            FROM adj GROUP BY node),
    ctr AS (SELECT a.node, a.nbr FROM adj a
            JOIN deg d ON d.node = a.node WHERE d.d <= 64),
    pairs AS (
        SELECT a.nbr AS u, b.nbr AS v, CAST(COUNT(*) AS BIGINT) AS common
        FROM ctr a JOIN ctr b ON a.node = b.node AND a.nbr < b.nbr
        GROUP BY a.nbr, b.nbr)
    SELECT p.u, p.v, p.common,
           round(CAST(p.common AS DOUBLE) / (du.d + dv.d - p.common), 8)
               AS jaccard,
           CAST(CASE WHEN ce.u IS NOT NULL THEN 1 ELSE 0 END AS BIGINT)
               AS is_edge
    FROM pairs p
    JOIN deg du ON du.node = p.u
    JOIN deg dv ON dv.node = p.v
    LEFT JOIN ce ON ce.u = p.u AND ce.v = p.v
"""

ORACLE_SQL["part_hops"] = """
    WITH RECURSIVE pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    e AS (SELECT u AS s, v AS d FROM pairs
          UNION ALL SELECT v, u FROM pairs),
    reach(node, h) AS (
        SELECT CAST(1 AS BIGINT), 0
        UNION ALL
        SELECT e.d, r.h + 1 FROM reach r JOIN e ON e.s = r.node
        WHERE r.h < 3),
    best AS (SELECT node, MIN(h) AS h FROM reach GROUP BY node)
    SELECT node, CAST(h AS BIGINT) AS hops FROM best
"""


def _kcore_sql(k: int, rounds: int) -> str:
    """Unrolled bounded k-core mirror: degree CTE + survivor filter per
    round (recursive CTEs cannot re-aggregate, same as PageRank)."""
    parts = [
        """
    WITH pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    e0 AS (SELECT u, v FROM pairs)"""
    ]
    for r in range(rounds):
        parts.append(
            f""",
    d{r} AS (SELECT node, COUNT(*) AS d FROM
             (SELECT u AS node FROM e{r} UNION ALL SELECT v FROM e{r})
             GROUP BY node),
    s{r} AS (SELECT node FROM d{r} WHERE d >= {k}),
    e{r + 1} AS (SELECT e.u, e.v FROM e{r} e
                 JOIN s{r} a ON a.node = e.u
                 JOIN s{r} b ON b.node = e.v)"""
        )
    parts.append(
        f"""
    SELECT node, CAST(COUNT(*) AS BIGINT) AS deg FROM
    (SELECT u AS node FROM e{rounds} UNION ALL SELECT v FROM e{rounds})
    GROUP BY node"""
    )
    return "".join(parts)


ORACLE_SQL["part_kcore"] = _kcore_sql(k=80, rounds=2)


def _label_prop_sql(rounds: int) -> str:
    """Unrolled synchronous majority label propagation over the co-order
    part graph — one window-ranked mode CTE per round, mirroring
    `ops/communities.label_propagation` (count DESC, smallest label)."""
    ctes = [
        """pairs AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
           FROM lineitem a JOIN lineitem b
             ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey)""",
        "e AS (SELECT u AS s, v AS d FROM pairs UNION ALL SELECT v, u FROM pairs)",
        """lp0 AS (SELECT node, node AS label FROM
                   (SELECT u AS node FROM pairs UNION SELECT v FROM pairs))""",
    ]
    for r in range(1, rounds + 1):
        ctes.append(
            f"""lp{r} AS (SELECT node, nb_label AS label FROM (
                SELECT e.d AS node, l.label AS nb_label, count(*) AS c,
                       row_number() OVER (PARTITION BY e.d
                           ORDER BY count(*) DESC, l.label) AS rn
                FROM e JOIN lp{r - 1} l ON l.node = e.s
                GROUP BY e.d, l.label) WHERE rn = 1)"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f" SELECT node, CAST(label AS BIGINT) AS community FROM lp{rounds}"
    )


ORACLE_SQL["communities"] = _label_prop_sql(rounds=2)

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

def _walks_sql(length: int = 3) -> str:
    """Unrolled random-walk mirror: ranked sorted adjacency + the same
    md5-mod neighbor pick per step."""
    parts = [
        """
    WITH pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    adj AS (SELECT u AS node, v AS nbr FROM pairs
            UNION ALL SELECT v, u FROM pairs),
    ranked AS (SELECT node, nbr,
                      ROW_NUMBER() OVER (PARTITION BY node ORDER BY nbr) - 1
                          AS r,
                      COUNT(*) OVER (PARTITION BY node) AS deg
               FROM adj),
    w0 AS (SELECT DISTINCT node AS walk_id, node FROM adj)"""
    ]
    for s in range(1, length + 1):
        parts.append(
            f""",
    w{s} AS (SELECT w.walk_id, rk.nbr AS node
             FROM w{s - 1} w JOIN ranked rk ON rk.node = w.node
              AND rk.r = CAST(('0x' || substr(md5(
                      CAST(w.walk_id AS VARCHAR) || ':{s}'), 1, 15))
                      AS BIGINT) % rk.deg)"""
        )
    sel = ["SELECT walk_id, CAST(0 AS BIGINT) AS step, node FROM w0"]
    for s in range(1, length + 1):
        sel.append(f"SELECT walk_id, CAST({s} AS BIGINT), node FROM w{s}")
    parts.append("\n    " + "\n    UNION ALL ".join(sel))
    return "".join(parts)


ORACLE_SQL["part_walks"] = _walks_sql(length=3)


def _hits_sql(iters: int = 3) -> str:
    """Unrolled HITS path-count mirror over the KG eraw edges."""
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
    n0 AS (SELECT src AS node FROM eraw UNION SELECT dst FROM eraw),
    h0 AS (SELECT node, CAST(1 AS BIGINT) AS h FROM n0)"""
    ]
    for k in range(1, iters + 1):
        parts.append(
            f""",
    a{k} AS (SELECT e.dst AS node, CAST(SUM(h.h) AS BIGINT) AS a
             FROM eraw e JOIN h{k - 1} h ON h.node = e.src
             GROUP BY e.dst),
    h{k} AS (SELECT e.src AS node, CAST(SUM(a.a) AS BIGINT) AS h
             FROM eraw e JOIN a{k} a ON a.node = e.dst
             GROUP BY e.src)"""
        )
    parts.append(
        f"""
    SELECT n0.node, COALESCE(h{iters}.h, 0) AS hub,
           COALESCE(a{iters}.a, 0) AS auth
    FROM n0 LEFT JOIN h{iters} ON h{iters}.node = n0.node
            LEFT JOIN a{iters} ON a{iters}.node = n0.node"""
    )
    return "".join(parts)


ORACLE_SQL["kg_hits"] = _hits_sql(iters=3)


def _katz_sql(iters: int = 3, base: int = 4) -> str:
    """Unrolled Katz scaled-integer mirror over the KG eraw edges —
    ``sum_l n_l(v) * base**(iters-l)`` with n_l the length-l path counts."""
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
    n0 AS (SELECT src AS node FROM eraw UNION SELECT dst FROM eraw),
    p0 AS (SELECT node, CAST(1 AS BIGINT) AS c FROM n0)"""
    ]
    for l in range(1, iters + 1):
        parts.append(
            f""",
    p{l} AS (SELECT e.dst AS node, CAST(SUM(p.c) AS BIGINT) AS c
             FROM eraw e JOIN p{l - 1} p ON p.node = e.src
             GROUP BY e.dst)"""
        )
    score = " + ".join(
        f"COALESCE(p{l}.c, 0) * {base ** (iters - l)}"
        for l in range(1, iters + 1)
    )
    joins = "".join(
        f" LEFT JOIN p{l} ON p{l}.node = n0.node"
        for l in range(1, iters + 1)
    )
    parts.append(
        f"""
    SELECT n0.node, CAST({score} AS BIGINT) AS katz FROM n0{joins}"""
    )
    return "".join(parts)


ORACLE_SQL["kg_katz"] = _katz_sql(iters=3, base=4)

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

ORACLE_SQL["diameter_est"] = """
    WITH RECURSIVE pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    e AS (SELECT u AS s, v AS d FROM pairs
          UNION ALL SELECT v, u FROM pairs),
    r1(node, h) AS (
        SELECT CAST(1 AS BIGINT), 0
        UNION ALL
        SELECT e.d, r1.h + 1 FROM r1 JOIN e ON e.s = r1.node WHERE r1.h < 3),
    b1 AS (SELECT node, MIN(h) AS h FROM r1 GROUP BY node),
    s1 AS (SELECT MAX(h) AS ecc1 FROM b1),
    far AS (SELECT MIN(node) AS far FROM b1
            WHERE h = (SELECT ecc1 FROM s1)),
    r2(node, h) AS (
        SELECT far, 0 FROM far
        UNION ALL
        SELECT e.d, r2.h + 1 FROM r2 JOIN e ON e.s = r2.node WHERE r2.h < 3),
    b2 AS (SELECT node, MIN(h) AS h FROM r2 GROUP BY node)
    SELECT CAST(1 AS BIGINT) AS start,
           (SELECT far FROM far) AS far,
           CAST((SELECT ecc1 FROM s1) AS BIGINT) AS ecc1,
           CAST(MAX(h) AS BIGINT) AS ecc2
    FROM b2
"""

_CO_ORDER_DEG_CTES = """
    pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    adj AS (SELECT u AS node, v AS nbr FROM pairs
            UNION ALL SELECT v, u FROM pairs),
    deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
            FROM adj GROUP BY node)
"""

ORACLE_SQL["clustering_coef"] = f"""
    WITH {_CO_ORDER_DEG_CTES},
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

ORACLE_SQL["part_assort"] = f"""
    WITH {_CO_ORDER_DEG_CTES},
    de AS (SELECT du.d AS j, dv.d AS k
           FROM adj a JOIN deg du ON du.node = a.node
                      JOIN deg dv ON dv.node = a.nbr),
    s AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
                 CAST(SUM(j) AS BIGINT) AS s1,
                 CAST(SUM(j * k) AS BIGINT) AS s2,
                 CAST(SUM(j * j) AS BIGINT) AS s3
          FROM de)
    SELECT m, m * s2 - s1 * s1 AS num, m * s3 - s1 * s1 AS den FROM s
"""

ORACLE_SQL["degree_hist"] = f"""
    WITH {_CO_ORDER_DEG_CTES}
    SELECT CAST(floor(log2(d)) AS BIGINT) AS bucket,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM deg GROUP BY 1
"""

ORACLE_SQL["cheap_paths"] = """
    WITH RECURSIVE mp AS (
        SELECT l_orderkey AS o, l_partkey AS p,
               MIN(l_linenumber) AS ln
        FROM lineitem GROUP BY l_orderkey, l_partkey),
    pairs AS (
        SELECT a.p AS u, b.p AS v, CAST(MIN(a.ln + b.ln) AS BIGINT) AS w
        FROM mp a JOIN mp b ON a.o = b.o AND a.p < b.p
        GROUP BY a.p, b.p),
    e AS (SELECT u AS s, v AS d, w FROM pairs
          UNION ALL SELECT v, u, w FROM pairs),
    walk(node, cost, h) AS (
        SELECT CAST(1 AS BIGINT), CAST(0 AS BIGINT), 0
        UNION ALL
        SELECT e.d, walk.cost + e.w, walk.h + 1
        FROM walk JOIN e ON e.s = walk.node WHERE walk.h < 3)
    SELECT node, CAST(MIN(cost) AS BIGINT) AS cost
    FROM walk GROUP BY node
"""

ORACLE_SQL["kg_negatives"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    concepts AS (SELECT DISTINCT tag FROM onto),
    ranked AS (SELECT tag,
                      CAST(row_number() OVER (ORDER BY tag) - 1 AS BIGINT) AS r
               FROM concepts),
    pos AS (SELECT conv_id || '#' || turn_idx || '#' || keyword AS subj,
                   'concept:' || tag AS pos_obj
            FROM occ),
    cand AS (SELECT subj, pos_obj, CAST(g.j AS BIGINT) AS j,
                    (('0x' || substr(md5(subj || '|' || CAST(g.j AS VARCHAR)),
                                     1, 15))::BIGINT
                     % (SELECT COUNT(*) FROM concepts)) AS r
             FROM pos, range(0, {KG_NEG_K}) AS g(j))
    SELECT cand.subj, 'tagged_as' AS pred, cand.pos_obj,
           'concept:' || ranked.tag AS neg_obj, cand.j
    FROM cand JOIN ranked USING (r)
    WHERE 'concept:' || ranked.tag <> cand.pos_obj
"""

ORACLE_SQL["kg_eval"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    concepts AS (SELECT DISTINCT tag FROM onto),
    ranked AS (SELECT tag,
                      CAST(row_number() OVER (ORDER BY tag) - 1 AS BIGINT) AS r
               FROM concepts),
    pos AS (SELECT conv_id || '#' || turn_idx || '#' || keyword AS subj,
                   'concept:' || tag AS pos_obj
            FROM occ),
    deg AS (SELECT 'concept:' || tag AS obj,
                   CAST(COUNT(*) AS BIGINT) AS deg
            FROM occ GROUP BY 1),
    cand AS (SELECT subj, pos_obj,
                    (('0x' || substr(md5(subj || '|' || CAST(g.j AS VARCHAR)),
                                     1, 15))::BIGINT
                     % (SELECT COUNT(*) FROM concepts)) AS r
             FROM pos, range(0, {KG_NEG_K}) AS g(j)),
    negsel AS (SELECT cand.subj, cand.pos_obj,
                      'concept:' || ranked.tag AS neg_obj
               FROM cand JOIN ranked USING (r)
               WHERE 'concept:' || ranked.tag <> cand.pos_obj),
    b AS (SELECT n.subj,
                 CAST(SUM(CASE WHEN dn.deg > dp.deg
                               OR (dn.deg = dp.deg
                                   AND n.neg_obj < n.pos_obj)
                          THEN 1 ELSE 0 END) AS BIGINT) AS beats
          FROM negsel n JOIN deg dp ON dp.obj = n.pos_obj
                        JOIN deg dn ON dn.obj = n.neg_obj
          GROUP BY n.subj)
    SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM pos) AS n_pos,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM pos)
           - (SELECT CAST(COUNT(*) AS BIGINT) FROM b WHERE beats >= 1)
             AS hits1,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM pos)
           - (SELECT CAST(COUNT(*) AS BIGINT) FROM b WHERE beats >= 3)
             AS hits3,
           (SELECT CAST(COUNT(*) AS BIGINT) FROM pos)
           + (SELECT CAST(COALESCE(SUM(beats), 0) AS BIGINT) FROM b)
             AS sum_rank
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


ORACLE_SQL["harmonic"] = f"""
    WITH RECURSIVE pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    e AS (SELECT u AS s, v AS d FROM pairs
          UNION ALL SELECT v, u FROM pairs),
    seeds(sd) AS (VALUES {", ".join(f"({s})" for s in [1, 2, 3, 4])}),
    reach(seed, node, h) AS (
        SELECT CAST(sd AS BIGINT), CAST(sd AS BIGINT), 0 FROM seeds
        UNION ALL
        SELECT r.seed, e.d, r.h + 1 FROM reach r JOIN e ON e.s = r.node
        WHERE r.h < 2),
    best AS (SELECT seed, node, MIN(h) AS h FROM reach GROUP BY seed, node)
    SELECT node, CAST(COUNT(*) AS BIGINT) AS n_seeds,
           CAST(SUM(6 // h) AS BIGINT) AS h6
    FROM best WHERE h > 0 GROUP BY node
"""


def q_kg_adamic(sf_dir: str):
    """Adamic-Adar link prediction over the KG edge table: every
    non-adjacent node pair sharing a neighbor scored by the sum of
    1/ln(deg(w)) over shared neighbors w (the inverse-log-degree
    predictor), alongside the common count.  The weight rides the
    existing wedge partials — same single pair exchange as
    `link_predict`, no extra pass (`ops/neighbors.py` with_aa); same
    degree-64 hub cap, mirrored exactly by the oracle."""
    from ...ops.neighbors import common_neighbor_scores

    e = q_edges(sf_dir).select_columns(["src", "dst"])
    out = common_neighbor_scores(
        e, u="src", v="dst", num_shards=16, min_common=1,
        max_center_degree=64, exclude_edges=True, with_aa=True,
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "u": pc.cast(batch["u"], pa.string()),
                "v": pc.cast(batch["v"], pa.string()),
                "common": pc.cast(batch["common"], pa.int64()),
                "aa": pc.round(batch["aa"], 6),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


ORACLE_SQL["kg_adamic"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    ce AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
           FROM eraw WHERE src <> dst),
    adj AS (SELECT u AS node, v AS nbr FROM ce
            UNION ALL SELECT v, u FROM ce),
    deg AS (SELECT node, CAST(COUNT(*) AS BIGINT) AS d
            FROM adj GROUP BY node),
    ctr AS (SELECT a.node, a.nbr, d.d FROM adj a
            JOIN deg d ON d.node = a.node WHERE d.d <= 64 AND d.d >= 2),
    pairs AS (
        SELECT a.nbr AS u, b.nbr AS v,
               CAST(COUNT(*) AS BIGINT) AS common,
               SUM(1.0 / LN(a.d)) AS aa
        FROM ctr a JOIN ctr b ON a.node = b.node AND a.nbr < b.nbr
        GROUP BY a.nbr, b.nbr)
    SELECT p.u, p.v, p.common, ROUND(p.aa, 6) AS aa
    FROM pairs p
    LEFT JOIN ce ON ce.u = p.u AND ce.v = p.v
    WHERE ce.u IS NULL
"""
QUERIES["kg_adamic"] = q_kg_adamic


def q_kg_betweenness(sf_dir: str):
    """k-source depth-truncated Brandes betweenness over the KG edge
    table (K=8 smallest-md5 sources, 4 BFS levels — the bounded
    estimator; endpoints excluded).  Broadcast-engine shape: node-scale
    dist/sigma/delta state on the driver, 2x4 streaming edge passes of
    per-batch partial cells, NO all-to-all exchange
    (`ops/betweenness.py`); the oracle unrolls the same levels as
    set-based CTEs over all 8 sources."""
    from ...ops.betweenness import betweenness_ksources

    e = q_edges(sf_dir).select_columns(["src", "dst"])
    return betweenness_ksources(e, u="src", v="dst",
                                k_sources=8, max_depth=4)


ORACLE_SQL["kg_betweenness"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    eraw AS (
        SELECT conv_id AS src, conv_id || '#' || turn_idx AS dst FROM t
        UNION ALL
        SELECT conv_id || '#' || turn_idx, tool FROM t WHERE tool IS NOT NULL
        UNION ALL
        SELECT conv_id || '#' || turn_idx || '#' || keyword, 'concept:' || tag
        FROM occ
    ),
    ce AS (SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
           FROM eraw WHERE src <> dst),
    adj AS (SELECT u AS node, v AS nbr FROM ce
            UNION ALL SELECT v, u FROM ce),
    srcs AS (SELECT node AS src FROM (SELECT DISTINCT node FROM adj)
             ORDER BY md5(node), node LIMIT 8),
    l0 AS (SELECT src, src AS node, 1.0 AS sig FROM srcs),
    l1 AS (SELECT l0.src, a.nbr AS node, SUM(l0.sig) AS sig
           FROM l0 JOIN adj a ON a.node = l0.node
           WHERE a.nbr <> l0.src
           GROUP BY 1, 2),
    l2 AS (SELECT l1.src, a.nbr AS node, SUM(l1.sig) AS sig
           FROM l1 JOIN adj a ON a.node = l1.node
           WHERE NOT EXISTS (SELECT 1 FROM l0 WHERE l0.src = l1.src
                             AND l0.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l1 p WHERE p.src = l1.src
                             AND p.node = a.nbr)
           GROUP BY 1, 2),
    l3 AS (SELECT l2.src, a.nbr AS node, SUM(l2.sig) AS sig
           FROM l2 JOIN adj a ON a.node = l2.node
           WHERE NOT EXISTS (SELECT 1 FROM l0 WHERE l0.src = l2.src
                             AND l0.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l1 WHERE l1.src = l2.src
                             AND l1.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l2 p WHERE p.src = l2.src
                             AND p.node = a.nbr)
           GROUP BY 1, 2),
    l4 AS (SELECT l3.src, a.nbr AS node, SUM(l3.sig) AS sig
           FROM l3 JOIN adj a ON a.node = l3.node
           WHERE NOT EXISTS (SELECT 1 FROM l0 WHERE l0.src = l3.src
                             AND l0.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l1 WHERE l1.src = l3.src
                             AND l1.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l2 WHERE l2.src = l3.src
                             AND l2.node = a.nbr)
             AND NOT EXISTS (SELECT 1 FROM l3 p WHERE p.src = l3.src
                             AND p.node = a.nbr)
           GROUP BY 1, 2),
    d3 AS (SELECT l3.src, l3.node,
                  l3.sig * SUM((1.0 + 0.0) / l4.sig) AS delta
           FROM l3 JOIN adj a ON a.node = l3.node
           JOIN l4 ON l4.src = l3.src AND l4.node = a.nbr
           GROUP BY l3.src, l3.node, l3.sig),
    d2 AS (SELECT l2.src, l2.node,
                  l2.sig * SUM((1.0 + COALESCE(d3.delta, 0.0)) / l3.sig)
                      AS delta
           FROM l2 JOIN adj a ON a.node = l2.node
           JOIN l3 ON l3.src = l2.src AND l3.node = a.nbr
           LEFT JOIN d3 ON d3.src = l3.src AND d3.node = l3.node
           GROUP BY l2.src, l2.node, l2.sig),
    d1 AS (SELECT l1.src, l1.node,
                  l1.sig * SUM((1.0 + COALESCE(d2.delta, 0.0)) / l2.sig)
                      AS delta
           FROM l1 JOIN adj a ON a.node = l1.node
           JOIN l2 ON l2.src = l1.src AND l2.node = a.nbr
           LEFT JOIN d2 ON d2.src = l2.src AND d2.node = l2.node
           GROUP BY l1.src, l1.node, l1.sig),
    u AS (SELECT node, delta FROM d1
          UNION ALL SELECT node, delta FROM d2
          UNION ALL SELECT node, delta FROM d3)
    SELECT node, ROUND(SUM(delta), 6) AS bc
    FROM u GROUP BY node HAVING SUM(delta) > 0
"""
QUERIES["kg_betweenness"] = q_kg_betweenness


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


def q_modularity(sf_dir: str):
    """Newman modularity of the 2-round label-propagation partition over
    the co-order part graph, as exact integers {n_comms, m_edges, q_num}
    with Q = q_num / (4 m²) — `ops/communities.modularity`.  Edges dedup
    in one hash exchange, the partition broadcasts under the LPA gate,
    and the final exchange is community-domain-sized cells."""
    from ...ops.communities import label_propagation, modularity

    labels, edges = label_propagation(
        _co_order_pairs(sf_dir), rounds=2, num_shards=32, return_edges=True
    )
    # edges is LPA's already-distinct symmetrized set: one pair source,
    # no second group_pairs pass, no re-dedup exchange
    return modularity(edges, labels, id_a="s", id_b="d", assume_deduped=True)


QUERIES["modularity"] = q_modularity
ORACLE_SQL["modularity"] = f"""
    WITH comm AS ({ORACLE_SQL["communities"]}),
    p AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
          FROM lineitem a JOIN lineitem b
            ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    mm AS (SELECT COUNT(*) AS m FROM p),
    e2 AS (SELECT lu.community AS cu, lv.community AS cv
           FROM p JOIN comm lu ON lu.node = p.u
                  JOIN comm lv ON lv.node = p.v),
    deg AS (SELECT c, CAST(SUM(d) AS BIGINT) AS deg_c FROM (
                SELECT cu AS c, COUNT(*) AS d FROM e2 GROUP BY 1
                UNION ALL
                SELECT cv AS c, COUNT(*) AS d FROM e2 GROUP BY 1)
            GROUP BY c),
    inc AS (SELECT cu AS c, CAST(COUNT(*) AS BIGINT) AS in_c
            FROM e2 WHERE cu = cv GROUP BY 1)
    SELECT CAST((SELECT COUNT(*) FROM deg) AS BIGINT) AS n_comms,
           CAST(mm.m AS BIGINT) AS m_edges,
           CAST(SUM(4 * mm.m * COALESCE(inc.in_c, 0)
                    - deg.deg_c * deg.deg_c) AS BIGINT) AS q_num
    FROM deg LEFT JOIN inc ON inc.c = deg.c, mm
    GROUP BY mm.m
"""
