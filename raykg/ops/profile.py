"""Column profiling: one streaming pass + one tiny exchange.

Parity note: the reference plugin computes no dataset statistics; this
is an engine extra (the "describe your 100 TB table before you process
it" step every training-data pipeline runs first).

Per requested column the profile reports row count, null count, exact
distinct count, and min/max.  Scale shape:

- **count / nulls / min / max** are per-batch partials (a few scalars
  per block) tree-reduced through a tiny groupby — nothing but O(blocks)
  scalar rows move.
- **exact distinct** explodes each batch to ``(column, value-hash)``
  rows — ONE 64-bit hash per cell, deduplicated per batch first so a
  low-cardinality column ships one row per distinct value per block,
  not per cell — and counts survivors in a sharded exchange.  Hashes,
  never values, move; a 64-bit collision undercounts by at most the
  birthday bound (~n^2/2^65), the same trade the dedup family documents.

Everything is column-parallel inside one pass over the data: the
explode emits all columns' rows from the same batch read.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .agg import sharded_groupby_apply


def _value_hashes(col: pa.ChunkedArray) -> np.ndarray:
    """64-bit hash per non-null cell (string repr — profiling only needs
    equality, and str() is total over Arrow scalar types)."""
    import zlib

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    vals = arr.to_pylist()
    out = np.fromiter(
        (
            zlib.crc32(str(v).encode("utf-8"))
            | (zlib.adler32(str(v).encode("utf-8")) << 32)
            for v in vals
            if v is not None
        ),
        dtype=np.uint64,
        count=-1,
    )
    return out


def profile_columns(
    ds: "ray.data.Dataset",
    columns: Sequence[str],
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Profile ``columns``: one row per column with ``n_rows``,
    ``n_null``, ``n_distinct`` (exact, hash-based), ``min_str`` and
    ``max_str`` (stringified extremes of the non-null values; None for
    all-null columns)."""
    columns = list(columns)

    def scalar_partials(batch: pa.Table) -> pa.Table:
        rows = {"column": [], "n_rows": [], "n_null": [], "min_str": [], "max_str": []}
        for c in columns:
            col = batch[c]
            n = len(col)
            nn = col.null_count
            # extremes are LEXICOGRAPHIC over the string rendering (uniform
            # partial schema across mixed column types; mirror in SQL as
            # MIN/MAX(CAST(col AS VARCHAR)))
            vals = [str(v) for v in col.to_pylist() if v is not None]
            rows["column"].append(c)
            rows["n_rows"].append(n)
            rows["n_null"].append(nn)
            rows["min_str"].append(min(vals) if vals else None)
            rows["max_str"].append(max(vals) if vals else None)
        return pa.table(
            {
                "column": pa.array(rows["column"]),
                "n_rows": pa.array(rows["n_rows"], type=pa.int64()),
                "n_null": pa.array(rows["n_null"], type=pa.int64()),
                "min_str": pa.array(rows["min_str"], type=pa.string()),
                "max_str": pa.array(rows["max_str"], type=pa.string()),
            }
        )

    def _opt(fn):
        # object-dtype min/max with NaN partials (all-null blocks) raises in
        # pandas; drop the NaNs per group first
        def agg(s: pd.Series):
            s = s.dropna()
            return fn(s) if len(s) else None

        return agg

    def reduce_scalars(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("column", sort=False)
        return pd.DataFrame(
            {
                "column": list(g.groups),
                "n_rows": g["n_rows"].sum().to_numpy(),
                "n_null": g["n_null"].sum().to_numpy(),
                "min_str": g["min_str"].agg(_opt(min)).to_numpy(),
                "max_str": g["max_str"].agg(_opt(max)).to_numpy(),
            }
        )

    scalars = sharded_groupby_apply(
        ds.map_batches(scalar_partials, batch_format="pyarrow"),
        ["column"],
        reduce_scalars,
        num_shards=1,  # O(columns x blocks) scalar rows — one reducer is the fast path
    )

    def hash_partials(batch: pa.Table) -> pa.Table:
        cols: List[str] = []
        hashes: List[np.ndarray] = []
        for c in columns:
            h = np.unique(_value_hashes(batch[c]))  # in-batch dedup before the exchange
            cols.extend([c] * len(h))
            hashes.append(h)
        return pa.table(
            {
                "column": pa.array(cols, type=pa.string()),
                "h": pa.array(
                    np.concatenate(hashes) if hashes else np.array([], dtype=np.uint64),
                    type=pa.uint64(),
                ),
            }
        )

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        g = df.drop_duplicates(["column", "h"]).groupby("column", sort=False)
        return pd.DataFrame(
            {"column": list(g.groups), "nd_part": g.size().to_numpy()}
        )

    # shard by (column, h): every distinct (column, hash) lands in exactly one
    # shard, so per-shard distinct counts sum to the exact global count
    distinct_parts = sharded_groupby_apply(
        ds.map_batches(hash_partials, batch_format="pyarrow"),
        ["column", "h"],
        count_distinct,
        num_shards=num_shards,
    )

    def sum_parts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("column", sort=False)
        return pd.DataFrame(
            {"column": list(g.groups), "n_distinct": g["nd_part"].sum().to_numpy()}
        )

    distinct = sharded_groupby_apply(
        distinct_parts, ["column"], sum_parts, num_shards=1
    )

    def join_side(kind: str):
        def f(df: pd.DataFrame) -> pa.Table:
            t = {"column": pa.array(df["column"], type=pa.string())}
            if kind == "s":
                t["n_rows"] = pa.array(df["n_rows"], type=pa.int64())
                t["n_null"] = pa.array(df["n_null"], type=pa.int64())
                t["min_str"] = pa.array(df["min_str"], type=pa.string(), from_pandas=True)
                t["max_str"] = pa.array(df["max_str"], type=pa.string(), from_pandas=True)
                t["n_distinct"] = pa.nulls(len(df), type=pa.int64())
            else:
                t["n_rows"] = pa.nulls(len(df), type=pa.int64())
                t["n_null"] = pa.nulls(len(df), type=pa.int64())
                t["min_str"] = pa.nulls(len(df), type=pa.string())
                t["max_str"] = pa.nulls(len(df), type=pa.string())
                t["n_distinct"] = pa.array(df["n_distinct"], type=pa.int64())
            return pa.table(t)

        return f

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("column", sort=False)
        return pd.DataFrame(
            {
                "column": list(g.groups),
                "n_rows": g["n_rows"].max().astype("int64").to_numpy(),
                "n_null": g["n_null"].max().astype("int64").to_numpy(),
                "n_distinct": g["n_distinct"]
                .max()
                .fillna(0)
                .astype("int64")
                .to_numpy(),
                "min_str": g["min_str"].agg(_opt(max)).to_numpy(),
                "max_str": g["max_str"].agg(_opt(max)).to_numpy(),
            }
        )

    both = scalars.map_batches(join_side("s"), batch_format="pandas").union(
        distinct.map_batches(join_side("d"), batch_format="pandas")
    )
    return sharded_groupby_apply(both, ["column"], merge, num_shards=1)
