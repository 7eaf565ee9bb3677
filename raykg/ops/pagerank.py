"""Distributed PageRank over an edge Dataset (fixed iteration count).

Parity note: the reference plugin has no graph analytics; this is one of
the KG-construction extras the target engine adds on top of the edge
table it builds (`pipeline/graph.triples_to_edges`).

Semantics (the textbook damped random surfer, Brin & Page 1998):

    pr(v) = (1-d)/N  +  d * dangling_mass/N  +  d * sum_{u->v} pr(u)/outdeg(u)

where ``dangling_mass`` is the total rank sitting on nodes with no
out-edges (redistributed uniformly, so ranks sum to 1 every iteration).
The iteration count is FIXED (not convergence-tested) so the result is
deterministic and exactly mirrorable in unrolled SQL for the oracle.

Scale shape.  The node set is |V| and the edge set |E| >> |V|; the
state table ``(node, rank, outdeg)`` is |V|-sized.  Two iteration
engines, chosen by whether the state fits one worker's memory:

**Broadcast engine** (``n_nodes <= max_broadcast_nodes``, the common
case — even a billion-node KG is a few tens of GB of state while the
corpus behind it is the 100 TB part): the state lives as one pandas
table, ``ray.put`` once per iteration and map-side merged onto the
streaming edge table — so the |E|-sized edges are NEVER re-shuffled;
the only exchange per iteration is the dst-sharded contribution sum,
carrying two-column ``(dst, w)`` rows.  The fold is a vectorized
|V|-sized local pass.

**Sharded engine** (fallback above the threshold): state stays a
Dataset end-to-end; per iteration (1) a bucketed hash join attaches
``(rank, outdeg)`` to edges on src, (2) contribution rows union with
the state rows into ONE node-sharded exchange where a vectorized kernel
sums per node and applies the damping formula (a separate aggregate
plus state join would re-shuffle the same rows on the same key).
Nothing corpus-scale lands on the driver; the dangling mass is the only
driver-side scalar.

Setup (both engines) is two exchanges: parallel-edge dedup, then a
single node-sharded pass over the endpoint rows that derives the node
set, the out-degrees, and the uniform initial ranks together.  The edge
projection is materialized ONCE and re-read from the object store each
iteration instead of recomputing its upstream pipeline.

Both engines run the identical arithmetic in the identical order, so
they agree bit-for-bit and both match the unrolled-SQL oracle.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .agg import sharded_groupby_apply
from .join import bucketed_hash_join
from .setops import distinct_rows


def _arrow(ds: "ray.data.Dataset", schema) -> "ray.data.Dataset":
    """Re-type as ``schema``: the sharded aggregates' column types are
    inferred from pandas, and the bucketed join (which pads with typed
    nulls) needs the declared ones."""

    def conv(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {n: pa.array(df[n], type=t, from_pandas=True) for n, t in schema.items()}
        )

    return ds.map_batches(conv, batch_format="pandas")


_STATE_SCHEMA = {"node": pa.string(), "outdeg": pa.float64(), "pr": pa.float64()}


def _edge_fingerprint(e: "ray.data.Dataset") -> str:
    """Cheap order-insensitive fingerprint of the (src, dst, w) edge
    projection: per-block vectorized row hashes summed into one uint64.
    One streaming pass over the already-materialized projection — small
    next to the per-iteration joins — and it makes a checkpoint written
    by a DIFFERENT edge set (same node count, e.g. edges added between
    existing nodes) fail loudly instead of silently resuming stale
    ranks."""

    def hash_block(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df, index=False).to_numpy(np.uint64)
        return pd.DataFrame({"h": [int(h.sum(dtype=np.uint64))]})

    total = e.map_batches(hash_block, batch_format="pandas").sum("h") or 0
    return f"{int(total) & 0xFFFFFFFFFFFFFFFF:016x}"


def _ckpt_sig(damping, n, seed_set, weighted: bool, edge_fp: str) -> str:
    """Run signature: a checkpoint is only resumable by the run shape
    that wrote it (same damping / node count / edge set / seeds /
    weighting).  Seeds are length-prefixed so ids containing the join
    separator cannot collide signatures."""
    seeds = (
        "uniform"
        if seed_set is None
        else ",".join(f"{len(s)}:{s}" for s in sorted(seed_set))
    )
    return hashlib.md5(
        f"{damping}:{n}:{edge_fp}:{seeds}:{int(weighted)}".encode("utf-8")
    ).hexdigest()


def _ckpt_latest(checkpoint_dir: str, sig: str):
    """(iteration, state_path, rows) of the highest COMPLETE checkpoint
    (one whose manifest was atomically renamed into place), or
    (0, None, 0).  A manifest from a different run signature fails
    loudly — silently resuming someone else's state would corrupt the
    ranks."""
    best, best_path, best_rows = 0, None, 0
    if not os.path.isdir(checkpoint_dir):
        return best, best_path, best_rows
    for name in sorted(os.listdir(checkpoint_dir)):
        mpath = os.path.join(checkpoint_dir, name, "_MANIFEST.json")
        if not (name.startswith("iter_") and os.path.exists(mpath)):
            continue
        with open(mpath) as f:
            m = json.load(f)
        if m.get("sig") != sig:
            raise ValueError(
                f"pagerank checkpoint {mpath} was written by a different "
                "run shape (damping/nodes/edges/seeds/weights); point "
                "checkpoint_dir somewhere else or delete it"
            )
        if m["iter"] > best:
            best = m["iter"]
            best_path = os.path.join(checkpoint_dir, name, "state")
            best_rows = int(m.get("rows", 0))
    return best, best_path, best_rows


def _ckpt_write_manifest(it_dir: str, it: int, sig: str, rows: int) -> None:
    tmp = os.path.join(it_dir, "_MANIFEST.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"iter": it, "sig": sig, "rows": rows}, f)
    os.replace(tmp, os.path.join(it_dir, "_MANIFEST.json"))


def pagerank(
    edges: "ray.data.Dataset",
    src_column: str = "src",
    dst_column: str = "dst",
    damping: float = 0.85,
    iters: int = 5,
    num_shards: int = 64,
    dedup_edges: bool = True,
    max_broadcast_nodes: int = 5_000_000,
    weight_column: str = None,
    seeds=None,
    checkpoint_dir: str = None,
) -> "ray.data.Dataset":
    """Rank every node of the directed graph ``(src_column, dst_column)``.

    Returns a Dataset with columns ``node`` (str) and ``pr`` (float64,
    full precision — round at the consumer if hashing).  Unweighted
    (default): parallel edges are collapsed to one (``dedup_edges``) so
    a repeated triple does not multiply its endpoint's influence;
    self-loops count like any edge.  With ``weight_column`` the walk is
    weighted — parallel edges SUM their weights (a triple tagged in ten
    turns carries 10x the influence) and each edge passes ``pr * w /
    out_strength(src)``; ``dedup_edges`` is ignored.  Node sets up to
    ``max_broadcast_nodes`` run the broadcast engine (state shipped via
    ``ray.put``, edges never re-shuffled); larger node sets fall back to
    the fully sharded engine (see module doc).

    ``seeds`` (an iterable of node ids) switches to PERSONALIZED
    PageRank (Jeh & Widom 2002): the reset distribution — teleport,
    dangling redistribution, AND the initial ranks — concentrates
    uniformly on the seeds present in the graph instead of on all
    nodes, so ranks measure proximity to the seed set.  Seeds absent
    from the graph are ignored; at least one must be present.  The
    seed set rides along inside closures (it is query-sized, not
    graph-sized).  ``seeds=None`` keeps the classic uniform walk with
    bit-identical arithmetic to previous versions.

    ``checkpoint_dir`` makes the ITERATION LOOP resumable: after every
    iteration the (node, outdeg, pr) state lands in
    ``{dir}/iter_NNNN/state`` (a distributed ``write_parquet`` in the
    sharded engine; a single driver-side file in the broadcast engine,
    whose state already lives on the driver by the threshold) and a
    manifest is renamed into place ATOMICALLY — a killed run leaves
    either a complete iteration or nothing.  A rerun with the same dir
    skips every manifested iteration and continues from the latest
    state; float64 survives parquet exactly, so the resumed run is
    bit-equal to an uninterrupted one (pinned by test).  Manifests carry
    a run signature (damping / node count / seeds / weighting) and a
    mismatch fails loudly.
    """
    if weight_column is not None:
        def sum_w(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby([src_column, dst_column], sort=False, as_index=False)[
                weight_column
            ].sum()
            return g.rename(columns={weight_column: "w"})

        e = sharded_groupby_apply(
            edges.select_columns([src_column, dst_column, weight_column]),
            [src_column, dst_column],
            sum_w,
            num_shards=num_shards,
        )
    else:
        e = edges.select_columns([src_column, dst_column])
        if dedup_edges:
            e = distinct_rows(e, [src_column, dst_column], num_shards=num_shards)
        e = e.map_batches(
            lambda b: b.append_column(
                "w", pa.array(np.ones(b.num_rows), type=pa.float64())
            ),
            batch_format="pyarrow",
        )
    e = _arrow(
        e, {src_column: pa.string(), dst_column: pa.string(), "w": pa.float64()}
    ).materialize()  # reused every iteration; (id, id, weight) rows only

    # One node-sharded pass derives node set + out-strength + uniform init:
    # src endpoints carry their edge weight (1.0 unweighted, so the sum IS
    # the out-degree), dst endpoints carry 0.
    def endpoints(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": pa.chunked_array(
                    [batch[src_column].combine_chunks(), batch[dst_column].combine_chunks()]
                ),
                "is_out": pa.array(
                    np.concatenate(
                        [
                            batch["w"].to_numpy(zero_copy_only=False),
                            np.zeros(n),
                        ]
                    ),
                    type=pa.float64(),
                ),
            }
        )

    def degree_shard(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("node", sort=False, as_index=False)["is_out"]
            .sum()
            .rename(columns={"is_out": "outdeg"})
        )

    pre_state = sharded_groupby_apply(
        e.map_batches(endpoints, batch_format="pyarrow"),
        ["node"],
        degree_shard,
        num_shards=num_shards,
    ).materialize()
    n = pre_state.count()
    if n == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {"node": pd.Series([], dtype=str), "pr": pd.Series([], dtype=float)}
            )
        )

    seed_set = None
    s_count = 0
    if seeds is not None:
        seed_set = frozenset(seeds)

        def count_seeds(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"c": [int(df["node"].isin(seed_set).sum())]})

        s_count = int(
            pre_state.map_batches(count_seeds, batch_format="pandas").sum("c")
            or 0
        )
        if s_count == 0:
            raise ValueError("personalized pagerank: no seed is in the graph")

    if checkpoint_dir:
        sig = _ckpt_sig(
            damping, n, seed_set, weight_column is not None, _edge_fingerprint(e)
        )
        start_iter, ckpt_path, ckpt_rows = _ckpt_latest(checkpoint_dir, sig)
    else:
        sig, start_iter, ckpt_path, ckpt_rows = "", 0, None, 0
    start_iter = min(start_iter, iters)

    if n <= max_broadcast_nodes:
        return _pagerank_broadcast(
            e, pre_state, n, src_column, dst_column, damping, iters,
            num_shards, seed_set, s_count,
            checkpoint_dir, sig, start_iter, ckpt_path, ckpt_rows,
        )

    def reset_of(nodes: pd.Series) -> np.ndarray:
        if seed_set is None:
            return np.full(len(nodes), 1.0 / n)
        return nodes.isin(seed_set).to_numpy(dtype=np.float64) / s_count

    def init_state(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "node": pa.array(df["node"], type=pa.string()),
                "outdeg": pa.array(df["outdeg"], type=pa.float64()),
                "pr": pa.array(reset_of(df["node"]), type=pa.float64()),
            }
        )

    if ckpt_path is not None:
        state = ray.data.read_parquet(ckpt_path).materialize()
        if state.count() != ckpt_rows:
            raise ValueError(
                f"pagerank checkpoint {ckpt_path} holds {state.count()} state "
                f"rows but its manifest recorded {ckpt_rows} — the state dir "
                "was corrupted (e.g. files appended by a killed run); delete "
                "the checkpoint_dir and rerun"
            )
    else:
        state = pre_state.map_batches(
            init_state, batch_format="pandas"
        ).materialize()

    def dangling_partial(batch: pa.Table) -> pa.Table:
        od = batch["outdeg"].to_numpy(zero_copy_only=False)
        pr = batch["pr"].to_numpy(zero_copy_only=False)
        return pa.table({"s": pa.array([float(pr[od == 0.0].sum())])})

    def contrib(batch: pa.Table) -> pa.Table:
        pr = batch["pr"].to_numpy(zero_copy_only=False)
        od = batch["outdeg"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": batch[dst_column],
                "outdeg": pa.nulls(batch.num_rows, type=pa.float64()),
                "pr": pa.array(pr * w / od, type=pa.float64()),
                "kind": pa.array(["c"] * batch.num_rows),
            }
        )

    def tag_state(batch: pa.Table) -> pa.Table:
        return batch.append_column("kind", pa.array(["s"] * batch.num_rows))

    for it in range(start_iter, iters):
        dangling = (
            state.map_batches(dangling_partial, batch_format="pyarrow").sum("s")
            or 0.0
        )
        contribs = bucketed_hash_join(
            e,
            state.map_batches(
                lambda b: pa.table(
                    {src_column: b["node"], "pr": b["pr"], "outdeg": b["outdeg"]}
                ),
                batch_format="pyarrow",
            ),
            on=src_column,
            num_buckets=num_shards,
        ).map_batches(contrib, batch_format="pyarrow")

        def fold_shard(df: pd.DataFrame, dangling=dangling) -> pa.Table:
            s = df[df["kind"] == "s"]
            c = df[df["kind"] == "c"].groupby("node", sort=False)["pr"].sum()
            contrib = s["node"].map(c).fillna(0.0).to_numpy()
            if seed_set is None:
                # scalar base kept in the historical association order so
                # the uniform walk stays bit-identical across versions
                base = (1.0 - damping) / n + damping * dangling / n
                folded = base + damping * contrib
            else:
                rv = reset_of(s["node"])
                folded = (
                    (1.0 - damping) * rv
                    + damping * dangling * rv
                    + damping * contrib
                )
            return pa.table(
                {
                    "node": pa.array(s["node"], type=pa.string()),
                    "outdeg": pa.array(s["outdeg"], type=pa.float64()),
                    "pr": pa.array(folded, type=pa.float64()),
                }
            )

        state = sharded_groupby_apply(
            state.map_batches(tag_state, batch_format="pyarrow").union(contribs),
            ["node"],
            fold_shard,
            num_shards=num_shards,
        ).materialize()
        if checkpoint_dir:
            # A killed run may leave un-manifested partial parquet files;
            # write_parquet APPENDS under fresh execution UUIDs, so a rerun
            # must clear the iteration dir first or a later resume would
            # read both the stale partials and the new files (duplicated
            # state rows -> wrong ranks).
            it_dir = os.path.join(checkpoint_dir, f"iter_{it + 1:04d}")
            shutil.rmtree(it_dir, ignore_errors=True)
            typed = _arrow(state, _STATE_SCHEMA).materialize()
            typed.write_parquet(os.path.join(it_dir, "state"))
            _ckpt_write_manifest(it_dir, it + 1, sig, typed.count())
            state = typed

    return _arrow(state, _STATE_SCHEMA).select_columns(["node", "pr"])


def _pagerank_broadcast(
    e: "ray.data.Dataset",
    pre_state: "ray.data.Dataset",
    n: int,
    src_column: str,
    dst_column: str,
    damping: float,
    iters: int,
    num_shards: int,
    seed_set=None,
    s_count: int = 0,
    checkpoint_dir: str = None,
    sig: str = "",
    start_iter: int = 0,
    ckpt_path: str = None,
    ckpt_rows: int = 0,
) -> "ray.data.Dataset":
    """Broadcast iteration engine: |V|-sized state as one pandas table,
    ``ray.put`` per iteration and map-side merged onto the streaming edge
    table; the only exchange per iteration is the dst-sharded ``(dst,
    w)`` contribution sum.  Arithmetic is element-for-element the same
    expression the sharded engine runs (seeded reset included)."""
    import ray

    state = pre_state.to_pandas()  # (node, outdeg) — fits by the threshold
    state["outdeg"] = state["outdeg"].astype(np.float64)
    if seed_set is None:
        rv = None
        state["pr"] = np.full(len(state), 1.0 / n)
    else:
        rv = state["node"].isin(seed_set).to_numpy(dtype=np.float64) / s_count
        state["pr"] = rv
    if ckpt_path is not None:
        import pyarrow.parquet as pq

        saved = pq.read_table(ckpt_path).to_pandas()
        if len(saved) != ckpt_rows:
            raise ValueError(
                f"pagerank checkpoint {ckpt_path} holds {len(saved)} state "
                f"rows but its manifest recorded {ckpt_rows} — delete the "
                "checkpoint_dir and rerun"
            )
        # align the saved ranks onto the freshly derived (node, outdeg)
        # order — outdeg is recomputed, only pr carries across runs
        state["pr"] = state["node"].map(
            dict(zip(saved["node"], saved["pr"]))
        ).to_numpy()
    dangling_mask = state["outdeg"].to_numpy() == 0.0

    def sum_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)["w"].sum()
        return pd.DataFrame({"node": g.index.to_numpy(), "c": g.to_numpy()})

    for it in range(start_iter, iters):
        dangling = float(state["pr"].to_numpy()[dangling_mask].sum())
        ref = ray.put(state[["node", "outdeg", "pr"]])

        def contrib(batch: pa.Table, ref=ref) -> pa.Table:
            st = ray.get(ref)  # plasma-cached per worker after first pull
            df = pa.table(
                {
                    src_column: batch[src_column],
                    dst_column: batch[dst_column],
                    "ew": batch["w"],
                }
            ).to_pandas()
            m = df.merge(st, left_on=src_column, right_on="node", how="left")
            w = m["pr"].to_numpy() * m["ew"].to_numpy() / m["outdeg"].to_numpy()
            return pa.table(
                {
                    "node": pa.array(m[dst_column], type=pa.string()),
                    "w": pa.array(w, type=pa.float64()),
                }
            )

        sums = sharded_groupby_apply(
            e.map_batches(contrib, batch_format="pyarrow"),
            ["node"],
            sum_shard,
            num_shards=num_shards,
        ).to_pandas()  # <= |V| rows
        c = state["node"].map(dict(zip(sums["node"], sums["c"]))).fillna(0.0).to_numpy()
        if rv is None:
            base = (1.0 - damping) / n + damping * dangling / n
            state["pr"] = base + damping * c
        else:
            state["pr"] = (
                (1.0 - damping) * rv + damping * dangling * rv + damping * c
            )
        if checkpoint_dir:
            import pyarrow.parquet as pq

            it_dir = os.path.join(checkpoint_dir, f"iter_{it + 1:04d}")
            shutil.rmtree(it_dir, ignore_errors=True)
            os.makedirs(os.path.join(it_dir, "state"), exist_ok=True)
            pq.write_table(
                pa.table(
                    {
                        "node": pa.array(state["node"], type=pa.string()),
                        "outdeg": pa.array(
                            state["outdeg"].to_numpy(), type=pa.float64()
                        ),
                        "pr": pa.array(
                            state["pr"].to_numpy(), type=pa.float64()
                        ),
                    }
                ),
                os.path.join(it_dir, "state", "part-0.parquet"),
            )
            _ckpt_write_manifest(it_dir, it + 1, sig, len(state))

    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(state["node"], type=pa.string()),
                "pr": pa.array(state["pr"].to_numpy(), type=pa.float64()),
            }
        )
    )
