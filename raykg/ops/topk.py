"""Per-group top-k — the windowed `row_number() <= k` of SQL.

The group count (conversations, users, queries) scales with the corpus,
so this rides :func:`raykg.ops.agg.sharded_groupby_apply`: one vectorized
sort + ``groupby.head(k)`` per SHARD, never a Python call per key.  Rows
of one key are co-located by the shard hash, so per-key ranks are exact.
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd

import ray.data

from .agg import sharded_groupby_apply


def group_topk(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    value_column: str,
    k: int,
    ascending: bool = False,
    tiebreak: Sequence[str] = (),
    rank_column: str = "rank",
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Keep the top ``k`` rows per key group ordered by ``value_column``
    (descending by default), with deterministic ``tiebreak`` columns
    (ascending) and a 1-based ``rank_column`` appended."""
    keys = list(keys)
    tiebreak = list(tiebreak)

    def shard_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            keys + [value_column] + tiebreak,
            ascending=[True] * len(keys) + [ascending] + [True] * len(tiebreak),
            kind="stable",
        )
        df[rank_column] = df.groupby(keys, sort=False).cumcount() + 1
        return df[df[rank_column] <= k]

    return sharded_groupby_apply(ds, keys, shard_topk, num_shards=num_shards)


def global_topk(
    ds: "ray.data.Dataset",
    value_column: str,
    k: int,
    descending: bool = True,
    tiebreak: Sequence[str] = (),
) -> "ray.data.Dataset":
    """Global ``ORDER BY value LIMIT k`` WITHOUT a global sort: every block
    keeps its local top-k (a superset filter — no row that survives the
    global cut can be outside its block's top-k), then ONE tiny final
    reduce over the k-per-block partials picks the exact answer.  The
    exchange is O(k x num_blocks) rows instead of the whole table; ties
    break by the ``tiebreak`` columns (ascending, deterministic).  Output
    is a single ordered block."""
    tiebreak = list(tiebreak)
    by = [value_column] + tiebreak
    asc = [not descending] + [True] * len(tiebreak)

    def local(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(by, ascending=asc, kind="stable").head(k)

    partials = ds.map_batches(local, batch_format="pandas")
    return partials.repartition(1).map_batches(
        local, batch_format="pandas", batch_size=None
    )


def dense_rank_global(
    ds: "ray.data.Dataset",
    value_column: str,
    ascending: bool = False,
    rank_column: str = "rank",
) -> "ray.data.Dataset":
    """Global ``DENSE_RANK() OVER (ORDER BY value)`` — every row gets the
    1-based rank of its value among the DISTINCT values of the whole
    dataset (ties share a rank, no gaps).

    Dense rank depends only on a row's VALUE, so no global sort of the
    data is needed: per-batch distinct-value partials collect into one
    sorted array (value-cardinality-sized — the same node-table regime
    as the degree broadcasts; for truly unbounded cardinality fall back
    to a sort + partition-offset pass), ship once via ``ray.put``, and
    every batch attaches its ranks with one ``searchsorted``.  Two
    passes over the data, zero shuffles.
    """
    import numpy as np
    import pyarrow as pa

    import ray

    def distinct(batch: pa.Table) -> pa.Table:
        col = batch[value_column]
        v = np.unique(col.to_numpy(zero_copy_only=False))
        return pa.table({"v": v})

    tabs = [
        t
        for t in ray.get(
            list(
                ds.select_columns([value_column])
                .map_batches(distinct, batch_format="pyarrow")
                .materialize()
                .to_arrow_refs()
            )
        )
        if t.num_rows
    ]
    vals = np.unique(
        np.concatenate([t["v"].to_numpy(zero_copy_only=False) for t in tabs])
    )
    ref = ray.put(vals)
    n_vals = len(vals)

    def attach(batch: pa.Table) -> pa.Table:
        vs = ray.get(ref)
        x = batch[value_column].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(vs, x)  # ascending rank-1
        rank = pos + 1 if ascending else n_vals - pos
        return batch.append_column(
            rank_column, pa.array(rank.astype(np.int64))
        )

    return ds.map_batches(attach, batch_format="pyarrow")
