"""Distributed per-node triangle counting over an undirected edge list.

Degree-ordered orientation (Suri & Vassilvitskii, "Counting Triangles
and the Curse of the Last Reducer", WWW 2011 — public method): orient
every edge from its lower-``(degree, id)`` endpoint to the higher one.
Under that total order each node's out-degree is O(sqrt(m)), so the
wedge volume is bounded by ``sum_v C(outdeg(v), 2) = O(m^1.5)``
regardless of degree skew — a star graph emits ZERO wedges from its
hub.  Every triangle is discovered exactly once, at its minimum-rank
corner.

Scale shape — the exchanges move id-width rows only, never payloads:

1. **degrees** — endpoint rows pre-counted per batch
   (``value_counts``), sharded sum (one exchange of per-batch
   partials).
2. **orientation** — degrees attached either by one broadcast
   (``ray.put`` of two numpy arrays, searchsorted per batch — the
   default when the node table is small) or by two bucketed hash
   joins when ``|V|`` is itself corpus-scale.  Both engines are
   pinned equal by test.
3. **wedges** — oriented edges sharded by ``src``; inside a shard each
   adjacency list expands with ``np.triu_indices`` (work proportional
   to emitted pairs, no per-pair Python).
4. **closure** — wedges and canonical edges co-sharded by the
   endpoint-pair key; a per-shard vectorized merge keeps closed
   wedges and PRE-COUNTS per-node corners, so the final node exchange
   moves ≤ nodes × shards partial rows.

The reference plugin has no graph layer at all; this extends the KG
side of the engine (`pipeline/graph.py`) the same way `ops/pagerank.py`
does.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .agg import sharded_groupby_apply

_SIDE = "__tri_side"


def group_pairs(
    ds: "ray.data.Dataset",
    group_key: str,
    value_col: str,
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Co-occurrence pair expansion: for every group, emit all unordered
    pairs of its DISTINCT ``value_col`` values as ``(u, v)`` with
    ``u < v`` (by value).  One exchange sharded by the group key; pair
    emission inside the shard is a numpy triu expansion per group —
    work proportional to the pairs emitted."""

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates([group_key, value_col])
        u_out: List[np.ndarray] = []
        v_out: List[np.ndarray] = []
        for _, vals in df.groupby(group_key, sort=False)[value_col]:
            d = np.sort(vals.to_numpy())
            k = len(d)
            if k < 2:
                continue
            ii, jj = np.triu_indices(k, 1)
            u_out.append(d[ii])
            v_out.append(d[jj])
        if not u_out:
            return pd.DataFrame({"u": pd.Series([], dtype=df[value_col].dtype),
                                 "v": pd.Series([], dtype=df[value_col].dtype)})
        return pd.DataFrame(
            {"u": np.concatenate(u_out), "v": np.concatenate(v_out)}
        )

    return sharded_groupby_apply(
        ds.select_columns([group_key, value_col]), [group_key], emit, num_shards
    )


def canonical_edges(
    edges: "ray.data.Dataset",
    u: str = "u",
    v: str = "v",
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Distinct undirected edges as ``(u, v)`` with ``u < v``;
    self-loops dropped.  One pair-sharded exchange (per-batch dedup
    first bounds its volume)."""

    def canon(batch: pa.Table) -> pa.Table:
        a, b = batch[u], batch[v]
        keep = pc.not_equal(a, b)
        a, b = a.filter(keep), b.filter(keep)
        swap = pc.greater(a, b)
        lo = pc.if_else(swap, b, a)
        hi = pc.if_else(swap, a, b)
        t = pa.table({"u": lo, "v": hi})
        return t.group_by(["u", "v"]).aggregate([])

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["u", "v"])

    return sharded_groupby_apply(
        edges.map_batches(canon, batch_format="pyarrow"),
        ["u", "v"],
        dedup,
        num_shards,
    )


def _degrees(canon: "ray.data.Dataset", num_shards: int) -> "ray.data.Dataset":
    """``(node, deg)`` from canonical edges — per-batch value_counts
    partials, one node-sharded sum."""

    def partial(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [batch["u"].combine_chunks(), batch["v"].combine_chunks()]
        )
        vc = both.value_counts()
        return pa.table(
            {"node": vc.field("values"), "deg": pc.cast(vc.field("counts"), pa.int64())}
        )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("node", sort=False, as_index=False)["deg"].sum()

    return sharded_groupby_apply(
        canon.map_batches(partial, batch_format="pyarrow"),
        ["node"],
        total,
        num_shards,
    )


def _orient_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Given edge rows with ``deg_u``/``deg_v`` attached, point each edge
    at the higher-``(deg, id)`` endpoint."""
    du = df["deg_u"].to_numpy()
    dv = df["deg_v"].to_numpy()
    uu = df["u"].to_numpy()
    vv = df["v"].to_numpy()
    u_first = (du < dv) | ((du == dv) & (uu < vv))
    return pd.DataFrame(
        {"src": np.where(u_first, uu, vv), "dst": np.where(u_first, vv, uu)}
    )


def _orient_broadcast(canon, degrees, num_shards):
    deg_tabs = [
        t
        for t in ray.get(list(degrees.materialize().to_arrow_refs()))
        if t.num_rows
    ]
    dt = pa.concat_tables(deg_tabs)
    nodes = dt["node"].to_numpy(zero_copy_only=False)
    degs = dt["deg"].to_numpy(zero_copy_only=False)
    order = np.argsort(nodes, kind="stable")
    ref = ray.put((nodes[order], degs[order]))

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        ns, ds_ = ray.get(ref)
        df = df.copy()
        df["deg_u"] = ds_[np.searchsorted(ns, df["u"].to_numpy())]
        df["deg_v"] = ds_[np.searchsorted(ns, df["v"].to_numpy())]
        return _orient_kernel(df)

    return canon.map_batches(orient, batch_format="pandas")


def _orient_sharded(canon, degrees, num_shards):
    from .join import bucketed_hash_join

    e = canon.map_batches(
        lambda b: b.rename_columns(["node", "v"]), batch_format="pyarrow"
    )
    e = bucketed_hash_join(e, degrees, on="node", num_buckets=num_shards)
    # join output column order: [node(=u), v, deg] — rekey on the v side
    e = e.map_batches(
        lambda b: b.rename_columns(["u", "node", "deg_u"]),
        batch_format="pyarrow",
    )
    e = bucketed_hash_join(e, degrees, on="node", num_buckets=num_shards)

    def finish(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "u": batch["u"].to_numpy(zero_copy_only=False),
                "v": batch["node"].to_numpy(zero_copy_only=False),
                "deg_u": batch["deg_u"].to_numpy(zero_copy_only=False),
                "deg_v": batch["deg"].to_numpy(zero_copy_only=False),
            }
        )
        out = _orient_kernel(df)
        return pa.table(
            {
                "src": pa.array(out["src"], from_pandas=True),
                "dst": pa.array(out["dst"], from_pandas=True),
            }
        )

    return e.map_batches(finish, batch_format="pyarrow")


def triangle_counts(
    edges: "ray.data.Dataset",
    u: str = "u",
    v: str = "v",
    num_shards: int = 32,
    broadcast_degrees: Optional[bool] = None,
    broadcast_max_nodes: int = 2_000_000,
    broadcast_edges: Optional[bool] = None,
    broadcast_max_edges: int = 50_000_000,
    already_canonical: bool = False,
) -> "ray.data.Dataset":
    """Per-node triangle participation counts ``(node, n_tri)`` — only
    nodes in at least one triangle appear.

    ``already_canonical=True`` promises ``edges`` is a MATERIALIZED
    distinct undirected (u < v) edge table (e.g. `canonical_edges`
    output) and skips the canonicalization exchange — composites that
    share the canonical table (`clustering_coefficients`) save one
    all-to-all.

    ``broadcast_degrees`` picks the orientation engine: ``True`` ships
    the ``(node, deg)`` arrays once via ``ray.put`` (right whenever the
    node table fits a worker heap), ``False`` attaches degrees with two
    bucketed hash joins (the corpus-scale path), ``None`` decides by
    counting the materialized degree table against
    ``broadcast_max_nodes``.

    ``broadcast_edges`` picks the CLOSURE engine.  ``True`` packs the
    canonical edge set into one sorted uint64 key array shipped via
    ``ray.put`` (8 bytes/edge — ~1 GB at 128M edges), and each wedge is
    closed IN PLACE with a vectorized ``searchsorted`` membership test,
    so the wedge set — the O(m^1.5) volume that dominates dense graphs —
    never enters an exchange; only node-count partials move.  ``False``
    is the original co-sharded wedge ⋈ edge exchange (the corpus-scale
    path when the edge set itself cannot fit a worker heap).  ``None``
    auto-picks: integer node ids < 2^32 and ≤ ``broadcast_max_edges``
    edges → broadcast.  Engines are pinned equal by test."""
    canon = (
        edges
        if already_canonical
        else canonical_edges(edges, u, v, num_shards).materialize()
    )
    degrees = _degrees(canon, num_shards)

    if broadcast_degrees is None:
        degrees = degrees.materialize()
        broadcast_degrees = degrees.count() <= broadcast_max_nodes
    oriented = (
        _orient_broadcast(canon, degrees, num_shards)
        if broadcast_degrees
        else _orient_sharded(canon, degrees, num_shards)
    )

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        lo_out: List[np.ndarray] = []
        hi_out: List[np.ndarray] = []
        c_out: List[np.ndarray] = []
        for src_val, vals in df.groupby("src", sort=False)["dst"]:
            d = vals.to_numpy()
            k = len(d)
            if k < 2:
                continue
            ii, jj = np.triu_indices(k, 1)
            a, b = d[ii], d[jj]
            lo_out.append(np.minimum(a, b))
            hi_out.append(np.maximum(a, b))
            c_out.append(np.full(len(a), src_val, dtype=d.dtype))
        if not lo_out:
            dt = df["dst"].dtype
            return pd.DataFrame(
                {
                    "u": pd.Series([], dtype=dt),
                    "v": pd.Series([], dtype=dt),
                    "center": pd.Series([], dtype=dt),
                    _SIDE: pd.Series([], dtype=np.int8),
                }
            )
        return pd.DataFrame(
            {
                "u": np.concatenate(lo_out),
                "v": np.concatenate(hi_out),
                "center": np.concatenate(c_out),
                _SIDE: np.zeros(sum(map(len, lo_out)), dtype=np.int8),
            }
        )

    if broadcast_edges is None or broadcast_edges:
        etabs = [
            t for t in ray.get(list(canon.to_arrow_refs())) if t.num_rows
        ]
        et = pa.concat_tables(etabs) if etabs else None
        ok = False
        if et is not None and pa.types.is_integer(et["u"].type):
            eu = et["u"].to_numpy(zero_copy_only=False)
            ev = et["v"].to_numpy(zero_copy_only=False)
            if (
                len(eu) <= broadcast_max_edges
                and eu.min(initial=0) >= 0
                and max(eu.max(initial=0), ev.max(initial=0)) < (1 << 32)
            ):
                ok = True
        if broadcast_edges and not ok:
            raise ValueError(
                "broadcast_edges requires non-negative integer node ids "
                f"< 2^32 and <= {broadcast_max_edges} edges"
            )
        if ok:
            keys = np.sort(
                (eu.astype(np.uint64) << np.uint64(32))
                | ev.astype(np.uint64)
            )
            kref = ray.put(keys)

            def wedge_close(df: pd.DataFrame) -> pd.DataFrame:
                ks = ray.get(kref)
                corner_parts: List[np.ndarray] = []
                for src_val, vals in df.groupby("src", sort=False)["dst"]:
                    d = vals.to_numpy()
                    k = len(d)
                    if k < 2:
                        continue
                    ii, jj = np.triu_indices(k, 1)
                    a, b = d[ii], d[jj]
                    lo = np.minimum(a, b).astype(np.uint64)
                    hi = np.maximum(a, b).astype(np.uint64)
                    wk = (lo << np.uint64(32)) | hi
                    pos = np.minimum(np.searchsorted(ks, wk), len(ks) - 1)
                    mask = ks[pos] == wk
                    nhit = int(mask.sum())
                    if not nhit:
                        continue
                    corner_parts.append(lo[mask].astype(np.int64))
                    corner_parts.append(hi[mask].astype(np.int64))
                    corner_parts.append(
                        np.full(nhit, src_val, dtype=np.int64)
                    )
                if not corner_parts:
                    return pd.DataFrame(
                        {"node": pd.Series([], dtype=np.int64),
                         "n": pd.Series([], dtype=np.int64)}
                    )
                vc = pd.Series(np.concatenate(corner_parts)).value_counts()
                return pd.DataFrame(
                    {"node": vc.index.to_numpy(), "n": vc.to_numpy()}
                )

            partials = sharded_groupby_apply(
                oriented, ["src"], wedge_close, num_shards
            )

            def total_b(df: pd.DataFrame) -> pd.DataFrame:
                g = df.groupby("node", sort=False, as_index=False)["n"].sum()
                return g.rename(columns={"n": "n_tri"})

            return sharded_groupby_apply(partials, ["node"], total_b, num_shards)

    wedge_ds = sharded_groupby_apply(oriented, ["src"], wedges, num_shards)

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "u": batch["u"],
                "v": batch["v"],
                # typed null center keeps the union schema aligned
                "center": pa.nulls(n, type=batch["u"].type),
                _SIDE: pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    both = wedge_ds.union(canon.map_batches(tag_edges, batch_format="pyarrow"))

    def close(df: pd.DataFrame) -> pd.DataFrame:
        e = df[df[_SIDE] == 1][["u", "v"]].drop_duplicates()
        w = df[df[_SIDE] == 0]
        m = w.merge(e, on=["u", "v"], how="inner")
        if not len(m):
            return pd.DataFrame(
                {"node": pd.Series([], dtype=df["u"].dtype), "n": pd.Series([], dtype=np.int64)}
            )
        corners = pd.concat([m["u"], m["v"], m["center"]], ignore_index=True)
        vc = corners.value_counts()
        return pd.DataFrame({"node": vc.index.to_numpy(), "n": vc.to_numpy()})

    partials = sharded_groupby_apply(both, ["u", "v"], close, num_shards)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False, as_index=False)["n"].sum()
        return g.rename(columns={"n": "n_tri"})

    return sharded_groupby_apply(partials, ["node"], total, num_shards)


def _coef_kernel(node, ntri, d):
    """Shared coefficient math — both attach engines call EXACTLY this, so
    their float results are bit-equal (same double ops in the same order)."""
    node = np.asarray(node)
    ntri = np.asarray(ntri, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64)
    denom = d * (d - 1)
    coef = np.where(denom > 0, 2.0 * ntri / np.maximum(denom, 1), 0.0)
    return pa.table(
        {
            "node": pa.array(node, type=pa.int64()),
            "n_tri": pa.array(ntri, type=pa.int64()),
            "deg": pa.array(d, type=pa.int64()),
            "coef": pa.array(np.round(coef, 8), type=pa.float64()),
        }
    )


def clustering_coefficients(
    edges: "ray.data.Dataset",
    u: str = "u",
    v: str = "v",
    num_shards: int = 32,
    broadcast: Optional[bool] = None,
    broadcast_max_nodes: int = 2_000_000,
) -> "ray.data.Dataset":
    """Local clustering coefficient per node: ``coef = 2*n_tri /
    (deg*(deg-1))`` (nodes in no triangle get 0 via the degree table's
    left side; the ratio is an exact integer ratio so the division is the
    same double on both engines).

    Engine gate (the house pattern, as in pagerank):
    ``broadcast=True`` ships the node-sized triangle-count map once via
    ``ray.put`` and every degree batch attaches with a ``searchsorted``;
    above ``broadcast_max_nodes`` nodes the map stops being
    worker-heap-safe and a bucketed LEFT hash join (`ops/join.py`)
    attaches it with one node-sharded exchange instead.  ``None`` decides
    by counting the materialized degree table.  Engines are pinned
    bit-equal by test (`tests/test_ops_triangles.py`)."""
    from .join import bucketed_hash_join

    canon = canonical_edges(edges, u, v, num_shards).materialize()
    tri = triangle_counts(
        canon, num_shards=num_shards, already_canonical=True
    ).materialize()
    deg = _degrees(canon, num_shards).materialize()

    if broadcast is None:
        broadcast = deg.count() <= broadcast_max_nodes

    if broadcast:
        tri_tabs = [
            t for t in ray.get(list(tri.to_arrow_refs())) if t.num_rows
        ]
        tri_map = (
            pa.concat_tables(tri_tabs)
            if tri_tabs
            else pa.table(
                {"node": pa.array([], type=pa.int64()),
                 "n_tri": pa.array([], type=pa.int64())}
            )
        )
        tn = tri_map["node"].to_numpy(zero_copy_only=False)
        tc = tri_map["n_tri"].to_numpy(zero_copy_only=False)
        order = np.argsort(tn, kind="stable")
        ref = ray.put((tn[order], tc[order]))

        def attach(df: pd.DataFrame) -> pa.Table:
            ns, cs = ray.get(ref)
            node = df["node"].to_numpy()
            if len(ns):
                pos = np.minimum(np.searchsorted(ns, node), len(ns) - 1)
                ntri = np.where(ns[pos] == node, cs[pos], 0).astype(np.int64)
            else:
                ntri = np.zeros(len(node), dtype=np.int64)
            return _coef_kernel(node, ntri, df["deg"].to_numpy())

        return deg.map_batches(attach, batch_format="pandas")

    joined = bucketed_hash_join(deg, tri, on="node", num_buckets=num_shards, how="left")

    def finish(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False)
        d = batch["deg"].to_numpy(zero_copy_only=False)
        ntri = (
            pc.fill_null(batch["n_tri"], 0).to_numpy(zero_copy_only=False)
            if "n_tri" in batch.schema.names
            else np.zeros(len(node), dtype=np.int64)
        )
        return _coef_kernel(node, ntri, d)

    return joined.map_batches(finish, batch_format="pyarrow")


def ktruss(
    edges: "ray.data.Dataset",
    k: int,
    u: str = "u",
    v: str = "v",
    max_rounds: int = 30,
    num_shards: int = 32,
    broadcast_max_edges: int = 50_000_000,
) -> "ray.data.Dataset":
    """The k-truss (Cohen 2008): the maximal subgraph in which every
    edge closes at least ``k - 2`` triangles — the standard
    cohesive-core extractor one tier stronger than k-core (every
    k-truss edge sits in a (k-1)-core).  Returns the surviving
    canonical ``(u, v)`` edges.

    Peeling loop: per round, per-EDGE triangle support is counted and
    edges below ``k - 2`` drop; converges when a round drops nothing
    (support only shrinks as edges leave, so the edge count is a
    strictly decreasing witness).  ``max_rounds`` fails loudly.

    Round shape: degree exchange + degree-ordered orientation (wedge
    volume O(m^1.5) — `triangle_counts`'s bound), wedges closed IN
    PLACE against the packed uint64 edge-key array (``ray.put`` once
    per round; requires non-negative int ids < 2^32 and <=
    ``broadcast_max_edges`` edges, the same gate as
    ``triangle_counts(broadcast_edges=True)`` — the co-sharded closure
    is the corpus-scale extension), each triangle emitting +1 support
    for its THREE edges into one edge-sharded sum."""
    canon = canonical_edges(edges, u, v, num_shards).materialize()
    if k <= 2:
        return canon  # every edge closes >= 0 triangles
    need = k - 2

    for _ in range(max_rounds):
        n_before = canon.count()
        if n_before == 0:
            return canon
        etabs = [t for t in ray.get(list(canon.to_arrow_refs())) if t.num_rows]
        et = pa.concat_tables(etabs)
        if not pa.types.is_integer(et["u"].type):
            raise ValueError("ktruss requires integer node ids")
        eu = et["u"].to_numpy(zero_copy_only=False)
        ev = et["v"].to_numpy(zero_copy_only=False)
        if (
            len(eu) > broadcast_max_edges
            or eu.min(initial=0) < 0
            or max(eu.max(initial=0), ev.max(initial=0)) >= (1 << 32)
        ):
            raise ValueError(
                "ktruss broadcast closure requires non-negative int ids "
                f"< 2^32 and <= {broadcast_max_edges} edges"
            )
        keys = np.sort((eu.astype(np.uint64) << np.uint64(32)) | ev.astype(np.uint64))
        kref = ray.put(keys)

        degrees = _degrees(canon, num_shards)
        oriented = _orient_broadcast(canon, degrees, num_shards)

        def support_rows(df: pd.DataFrame, kref=kref) -> pd.DataFrame:
            ks = ray.get(kref)
            us: List[np.ndarray] = []
            vs: List[np.ndarray] = []
            for src_val, vals in df.groupby("src", sort=False)["dst"]:
                d = vals.to_numpy()
                m = len(d)
                if m < 2:
                    continue
                ii, jj = np.triu_indices(m, 1)
                a = np.minimum(d[ii], d[jj])
                b = np.maximum(d[ii], d[jj])
                kk = (a.astype(np.uint64) << np.uint64(32)) | b.astype(
                    np.uint64
                )
                pos = np.minimum(np.searchsorted(ks, kk), len(ks) - 1)
                closed = ks[pos] == kk
                a, b = a[closed], b[closed]
                if not len(a):
                    continue
                s = np.full(len(a), src_val, dtype=a.dtype)
                # the three edges of each triangle, canonicalized
                us.append(a)
                vs.append(b)
                us.append(np.minimum(s, a))
                vs.append(np.maximum(s, a))
                us.append(np.minimum(s, b))
                vs.append(np.maximum(s, b))
            if not us:
                dt_ = df["dst"].dtype
                return pd.DataFrame(
                    {
                        "u": pd.Series([], dtype=dt_),
                        "v": pd.Series([], dtype=dt_),
                        "s": pd.Series([], dtype=np.int64),
                    }
                )
            out = pd.DataFrame(
                {"u": np.concatenate(us), "v": np.concatenate(vs)}
            )
            g = out.groupby(["u", "v"], sort=False).size().reset_index()
            g.columns = ["u", "v", "s"]
            return g

        def fold(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(["u", "v"], sort=False)["s"].sum().reset_index()
            return g[g["s"] >= need][["u", "v"]]

        # src-sharded first: the wedge kernel needs each src's FULL
        # adjacency in one call (a raw batch may split it)
        sup_parts = sharded_groupby_apply(
            oriented, ["src"], support_rows, num_shards=num_shards
        )
        canon = sharded_groupby_apply(
            sup_parts, ["u", "v"], fold, num_shards=num_shards
        ).materialize()
        if canon.count() == n_before:
            return canon
    raise RuntimeError(
        f"ktruss did not converge in {max_rounds} peel rounds; raise "
        "max_rounds"
    )
