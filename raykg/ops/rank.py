"""Tie-averaged rank transform (``avgrank``) via rank-by-sort.

Appends a float64 column of SQL-style average ranks
(``RANK() + (tie_count - 1)/2`` — every member of a tie group gets the
mean of the positions the group occupies) to every row, with ONE
range-partitioned sort as the only exchange:

1. ``ds.sort(col)`` — Ray's sort leaves materialized blocks in global
   key order;
2. blocks are ranked by their own ``(first_key, last_key)`` tuples
   (first key alone can tie when a value spans blocks; the last key
   breaks it in the only order consistent with the range partitioning),
   a driver pass over O(num_blocks) metadata computes offsets;
3. one raw Ray task per block assigns tie-group ranks locally —
   ``avgrank = (p + q)/2 + 1`` for a run occupying 0-based positions
   ``p..q`` — with runs touching a block edge (they may continue into a
   neighbor) resolved by a tiny driver-merged ``{value: avgrank}`` map
   (≤ 2 entries per block) shipped back via ``ray.put``.

This replaces the distinct-count + prefix-scan + bucketed-join-back
plan (three exchanges, two of them over near-row-cardinality rank
tables for continuous columns) with a single sort; ``ops/zipf.py``
builds on it.  Like ``zip_with_index`` this is a documented
raw-``ray.remote`` exception: no batch knows its block's global rank.
Null sort keys fail loudly (a null has no rank).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


@ray.remote
def _block_edges(block, col: str):
    """(n, nulls, first, last, head_run_len, tail_run_len) for ordering
    blocks and merging tie runs that span block boundaries."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0 or col not in t.column_names:
        return 0, 0, None, None, 0, 0
    c = t[col]
    if c.null_count:
        return t.num_rows, c.null_count, None, None, 0, 0
    v = c.to_numpy(zero_copy_only=False)
    head = int(np.searchsorted(v, v[0], side="right"))
    tail = int(len(v) - np.searchsorted(v, v[-1], side="left"))
    return t.num_rows, 0, v[0], v[-1], head, tail


@ray.remote
def _block_ranks(block, col: str, out: str, offset: int, edge_ranks):
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    v = t[col].to_numpy(zero_copy_only=False)
    n = len(v)
    starts = np.concatenate([[0], np.flatnonzero(v[1:] != v[:-1]) + 1])
    ends = np.concatenate([starts[1:], [n]])  # exclusive
    # run occupying local p..q-1 -> global (offset+p .. offset+q-1)
    avg = (2.0 * offset + starts + ends - 1.0) / 2.0 + 1.0
    ranks = np.repeat(avg, ends - starts)
    # edge runs may continue into neighbor blocks: take the merged rank
    if v[0] in edge_ranks:
        ranks[: ends[0]] = edge_ranks[v[0]]
    if v[-1] in edge_ranks:
        ranks[starts[-1]:] = edge_ranks[v[-1]]
    return t.append_column(out, pa.array(ranks, type=pa.float64()))


def _segment_runs(achange: np.ndarray, lo: int, hi: int) -> tuple:
    """(n_runs, last_run_len) of the tie runs inside rows [lo, hi) given
    the all-sort-column change mask ``achange`` (achange[i] = row i+1
    differs from row i)."""
    if hi <= lo:
        return 0, 0
    seg = achange[lo : hi - 1]
    brk = np.flatnonzero(seg)
    n_runs = 1 + len(brk)
    last_start = lo + (int(brk[-1]) + 1 if len(brk) else 0)
    return n_runs, hi - last_start


def _unrankable(col) -> int:
    """Nulls, plus NaN in a float column: sorted() and the tie test
    ``v[1:] != v[:-1]`` order neither, so neither gets a rank."""
    n = col.null_count
    if pa.types.is_floating(col.type):
        n += pc.sum(pc.is_nan(col)).as_py() or 0
    return n


@ray.remote
def _block_key_edges(block, key_cols: list, sort_cols: list):
    """(n, null_count, first_sort_tuple, last_sort_tuple, head_run_len,
    tail_run_len, head_runs, head_last_len, tail_runs, tail_last_len)
    where head/tail runs are by KEY columns only and the runs/last_len
    pairs describe the TIE runs (full sort tuple) inside those key
    segments — the per-PARTITION analogue of :func:`_block_edges`."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return 0, 0, None, None, 0, 0, 0, 0, 0, 0
    nulls = sum(_unrankable(t[c]) for c in sort_cols)
    if nulls:
        return t.num_rows, nulls, None, None, 0, 0, 0, 0, 0, 0
    n = t.num_rows
    first = tuple(t[c][0].as_py() for c in sort_cols)
    last = tuple(t[c][n - 1].as_py() for c in sort_cols)
    kv = [t[c].to_numpy(zero_copy_only=False) for c in key_cols]
    same_first = np.ones(n, dtype=bool)
    same_last = np.ones(n, dtype=bool)
    for v in kv:
        same_first &= v == v[0]
        same_last &= v == v[-1]
    brk = np.flatnonzero(~same_first)
    head = int(brk[0]) if len(brk) else n
    brk = np.flatnonzero(~same_last[::-1])
    tail = int(brk[0]) if len(brk) else n
    achange = np.zeros(max(n - 1, 0), dtype=bool)
    for c in sort_cols:
        v = t[c].to_numpy(zero_copy_only=False)
        achange |= v[1:] != v[:-1]
    h_runs, h_last = _segment_runs(achange, 0, head)
    t_runs, t_last = _segment_runs(achange, n - tail, n)
    return n, 0, first, last, head, tail, h_runs, h_last, t_runs, t_last


@ray.remote
def _block_keyed_ranks(block, key_cols: list, sort_cols: list, specs: list,
                       edge_info: dict):
    """Append rank columns per-key within one sorted block.

    ``edge_info`` maps a key tuple (only the ≤2 keys touching this
    block's edges can appear) to ``(rn_offset, n_total, dr_offset,
    continuing, carry_run_start)``: that key's row count in earlier
    blocks, its corpus-wide count, the number of tie runs started
    before this block (counting a boundary-crossing run), whether this
    block's first tie run of the key CONTINUES the previous block's
    last, and — if so — that run's global 0-based start within the
    key."""
    from ray.data.block import BlockAccessor

    t = BlockAccessor.for_block(block).to_arrow()
    n = t.num_rows
    kv = [t[c].to_numpy(zero_copy_only=False) for c in key_cols]
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for v in kv:
        change |= v[1:] != v[:-1]
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    ends = np.concatenate([starts[1:], [n]])
    lens = ends - starts
    # tie runs over the FULL sort tuple (key change implies tie change)
    achange = change.copy()
    for c in sort_cols:
        if c in key_cols:
            continue
        v = t[c].to_numpy(zero_copy_only=False)
        achange |= v[1:] != v[:-1]
    tstart_mask = np.concatenate([[True], achange]) if n else np.zeros(0, bool)
    ord_cum = np.cumsum(tstart_mask)          # 1-based global tie ordinal
    key_start = np.repeat(starts, lens)       # each row's key-segment start
    idx = np.arange(n)
    run_start = np.maximum.accumulate(np.where(tstart_mask, idx, -1))
    # 1-based row number / rank / dense rank WITHIN the key
    rn = (idx - key_start + 1).astype(np.int64)
    rank = (run_start - key_start + 1).astype(np.int64)
    dense = (ord_cum - ord_cum[key_start] + 1).astype(np.int64)
    n_of = np.repeat(lens, lens).astype(np.int64)
    for run_idx in {0, len(starts) - 1} if n else set():
        key = tuple(v[starts[run_idx]].item() if hasattr(v[starts[run_idx]], "item")
                    else v[starts[run_idx]] for v in kv)
        if key in edge_info:
            off, total, dr_off, continuing, carry = edge_info[key]
            sl = slice(starts[run_idx], ends[run_idx])
            rn[sl] += off
            rank[sl] += off
            dense[sl] += dr_off - (1 if continuing else 0)
            n_of[sl] = total
            if continuing:
                # rows of the segment's FIRST tie run belong to a run
                # that started in an earlier block
                seg_lo = int(starts[run_idx])
                brk = np.flatnonzero(achange[seg_lo : int(ends[run_idx]) - 1])
                first_run_end = seg_lo + (int(brk[0]) + 1 if len(brk)
                                          else int(lens[run_idx]))
                rank[seg_lo:first_run_end] = carry + 1
    for kind, out, param in specs:
        if kind == "row_number":
            t = t.append_column(out, pa.array(rn, type=pa.int64()))
        elif kind == "rank":
            t = t.append_column(out, pa.array(rank, type=pa.int64()))
        elif kind == "dense_rank":
            t = t.append_column(out, pa.array(dense, type=pa.int64()))
        elif kind == "percent_rank":
            # SQL PERCENT_RANK uses the tie-aware RANK
            pr = np.where(n_of > 1, (rank - 1) / np.maximum(n_of - 1, 1), 0.0)
            t = t.append_column(out, pa.array(pr, type=pa.float64()))
        elif kind == "ntile":
            k = int(param)
            q, r = n_of // k, n_of % k
            big = (q + 1) * r  # rows covered by the larger buckets
            tile = np.where(
                rn <= big,
                (rn + q) // (q + 1),
                np.where(q > 0, r + (rn - big + q - 1) // np.maximum(q, 1), r),
            ).astype(np.int64)
            t = t.append_column(out, pa.array(tile, type=pa.int64()))
        else:
            raise ValueError(f"with_keyed_ranks: unknown kind {kind!r}")
    return t


def with_keyed_ranks(
    ds: "ray.data.Dataset",
    keys: list,
    order_by: list,
    specs: list,
) -> "ray.data.Dataset":
    """SQL rank windows ``OVER (PARTITION BY keys ORDER BY order_by)``
    with ONE range-partitioned sort as the only exchange — the keyed
    generalization of :func:`with_avg_ranks`.

    ``specs`` is ``[(kind, out_column, param)]`` with kind in
    ``row_number`` / ``rank`` / ``dense_rank`` / ``percent_rank`` /
    ``ntile`` (param = k).  The plan sorts on ``(*keys, *order_by)``,
    derives each key's global row count, per-block row offsets, and
    tie-run offsets from O(num_blocks) edge metadata on the driver (a
    key spans blocks only at block edges, so ≤2 merge entries per
    block), then one raw Ray task per block assigns ranks locally.
    Unlike ``sharded_groupby_apply``-based windows, NO worker ever holds
    one key's full row set — a single giant key (one language at 100 TB)
    range-partitions across blocks like any other data.  ``rank`` /
    ``dense_rank`` / ``percent_rank`` are TIE-AWARE with exact SQL
    semantics (ties share the rank; a tie run crossing a block boundary
    resolves through the driver merge); ``row_number`` and ``ntile``
    need ``order_by`` to be a total order within each key for
    determinism, as in SQL.  Null or NaN sort keys fail loudly."""
    sort_cols = list(keys) + list(order_by)
    try:
        m = ds.sort(sort_cols).materialize()
    except Exception as err:
        raise ValueError(
            f"with_keyed_ranks: sort on {sort_cols!r} failed — a null or "
            "mixed-type sort column is the usual cause"
        ) from err
    refs = [
        ref
        for bundle in m.iter_internal_ref_bundles()
        for ref, _meta in bundle.blocks
    ]
    if not refs:
        return m
    infos = ray.get(
        [_block_key_edges.remote(r, list(keys), sort_cols) for r in refs]
    )
    if any(nulls for _n, nulls, *_ in infos):
        raise ValueError(
            f"with_keyed_ranks: a sort column of {sort_cols!r} contains "
            "nulls or NaN; filter or fill the column first"
        )
    keyed = sorted(
        (
            (first, last, n, head, tail, hr, hl, tr, tl, r)
            for (n, _nu, first, last, head, tail, hr, hl, tr, tl), r
            in zip(infos, refs)
            if n > 0
        ),
        key=lambda t: (t[0], t[1]),
    )
    if not keyed:
        return m
    nk = len(keys)
    # per-block edge segments in global order; merge runs of the same key
    # that continue across block boundaries.  Each segment carries its
    # row count AND its tie-run stats (n_runs, last_run_len) so rank /
    # dense_rank resolve exactly across boundaries.
    segs = []  # [key, block_idx, rows, runs, last_run_len]
    for i, (first, last, n, head, tail, hr, hl, tr, tl, _r) in enumerate(keyed):
        fk, lk = first[:nk], last[:nk]
        if fk == lk:  # whole block one key (head covers all rows)
            segs.append([fk, i, n, hr, hl])
        else:
            segs.append([fk, i, head, hr, hl])
            segs.append([lk, i, tail, tr, tl])
    merged = []  # [key, [(block_idx, rows, runs, last_len), ...]]
    for key, bi, cnt, runs, last_len in segs:
        if merged and merged[-1][0] == key:
            merged[-1][1].append((bi, cnt, runs, last_len))
        else:
            merged.append([key, [(bi, cnt, runs, last_len)]])
    # ship per-block {key: (rn_offset, n_total, dr_offset, continuing,
    # carry_run_start)} for spanning keys only
    per_block: dict = {i: {} for i in range(len(keyed))}
    for key, parts in merged:
        if len(parts) == 1:
            continue  # fully inside one block: local math is exact
        total = sum(p[1] for p in parts)
        rn_off = 0
        dr_off = 0
        cur_run_start = 0
        for m_i, (bi, cnt, runs, last_len) in enumerate(parts):
            continuing = (
                m_i > 0
                and keyed[parts[m_i - 1][0]][1] == keyed[bi][0]
            )  # prev block's LAST sort tuple == this block's FIRST
            per_block[bi][key] = (rn_off, total, dr_off,
                                  continuing, cur_run_start)
            if not (continuing and runs == 1):
                dr_off += runs - (1 if continuing else 0)
                cur_run_start = rn_off + cnt - last_len
            rn_off += cnt
    spec3 = [(k, out, p) for k, _src, out, p in specs] if specs and len(
        specs[0]
    ) == 4 else list(specs)
    out_refs = [
        _block_keyed_ranks.remote(r, list(keys), sort_cols, spec3, per_block[i])
        for i, (*_meta, r) in enumerate(keyed)
    ]
    return ray.data.from_arrow_refs(out_refs)


def with_avg_ranks(
    ds: "ray.data.Dataset", col: str, out: str
) -> "ray.data.Dataset":
    """``ds`` with ``out`` = tie-averaged rank of ``col`` appended."""
    try:
        m = ds.sort(col).materialize()
    except Exception as err:
        raise ValueError(
            f"with_avg_ranks: sort on {col!r} failed — a null or "
            "mixed-type rank column is the usual cause"
        ) from err
    refs = [
        ref
        for bundle in m.iter_internal_ref_bundles()
        for ref, _meta in bundle.blocks
    ]
    if not refs:
        return m
    infos = ray.get([_block_edges.remote(r, col) for r in refs])
    if any(nulls for _n, nulls, *_ in infos):
        raise ValueError(
            f"with_avg_ranks: rank column {col!r} contains nulls; a null "
            "has no rank — filter or fill the column first"
        )
    keyed = sorted(
        (
            (first, last, n, head, tail, r)
            for (n, _nu, first, last, head, tail), r in zip(infos, refs)
            if n > 0
        ),
        key=lambda t: (t[0], t[1]),
    )
    if not keyed:
        return m
    counts = np.array([k[2] for k in keyed], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts[:-1], dtype=np.int64)])
    # merge edge runs across blocks: (value, global p, global q) segments
    segs = []  # consecutive-contiguous by construction
    for (first, last, n, head, tail, _r), o in zip(keyed, offsets):
        if first == last:  # whole block one value
            segs.append([first, int(o), int(o + n - 1)])
        else:
            segs.append([first, int(o), int(o + head - 1)])
            segs.append([last, int(o + n - tail), int(o + n - 1)])
    merged = []
    for val, p, q in segs:
        if merged and merged[-1][0] == val and merged[-1][2] + 1 == p:
            merged[-1][2] = q
        else:
            merged.append([val, p, q])
    edge_ranks = {val: (p + q) / 2.0 + 1.0 for val, p, q in merged}
    edge_ref = ray.put(edge_ranks)
    out_refs = [
        _block_ranks.remote(r, col, out, int(o), edge_ref)
        for (_f, _l, _n, _h, _t, r), o in zip(keyed, offsets)
    ]
    return ray.data.from_arrow_refs(out_refs)
