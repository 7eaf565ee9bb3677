"""SQL set operations on whole rows: DISTINCT / EXCEPT.

Row identity is a single string key built with ONE vectorized Arrow
kernel (cast + ``binary_join_element_wise`` with an unlikely separator),
so multi-column rows ride every single-key primitive in this repo:

- :func:`distinct_rows` — two-level distinct: per-batch vectorized
  ``drop_duplicates`` bounds the exchange to per-block distinct rows,
  then one sharded vectorized dedup per key-hash shard (never a Python
  call per distinct row).
- :func:`except_rows` — distinct left rows whose key doesn't appear
  on the right, via the broadcast anti join (only the right side's
  distinct key array crosses the wire).  The right side is the smaller one by contract — for two
  corpus-sized sides, bucket both on the row key with
  ``ops.join.bucketed_hash_join`` instead.
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .agg import sharded_groupby_apply
from .join import semi_join

_KEY = "__rowkey"


def _with_row_key(ds: "ray.data.Dataset", cols: Sequence[str]) -> "ray.data.Dataset":
    """Append a collision-free string key: each part is length-prefixed
    (``"3:abc"``, NULL = ``"-1:"``) so no value content can make two
    different rows concatenate to the same key; all Arrow kernels."""
    cols = list(cols)

    def add(batch: pa.Table) -> pa.Table:
        parts = []
        for c in cols:
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if not pa.types.is_string(col.type):
                col = pc.cast(col, pa.string())
            s = pc.fill_null(col, "")
            ln = pc.if_else(
                pc.is_valid(col),
                pc.cast(pc.utf8_length(s), pa.string()),
                pa.scalar("-1"),
            )
            parts.append(pc.binary_join_element_wise(ln, s, ":"))
        key = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(
            *parts, "|"
        )
        return batch.append_column(_KEY, key)

    return ds.map_batches(add, batch_format="pyarrow")


def distinct_rows(
    ds: "ray.data.Dataset", cols: Sequence[str], num_shards: int = 64
) -> "ray.data.Dataset":
    """``SELECT DISTINCT cols`` — exact, two-level, vectorized."""
    cols = list(cols)
    pruned = ds.map_batches(
        lambda b: b.select(cols).group_by(cols).aggregate([]),
        batch_format="pyarrow",
    )

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(cols)

    return sharded_groupby_apply(pruned, cols, dedup, num_shards=num_shards)


def except_rows(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    cols: Sequence[str],
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """SQL EXCEPT: distinct ``cols`` rows of ``left`` absent from
    ``right`` (right columns are matched positionally, SQL-style)."""
    cols = list(cols)
    r_cols = right.schema().names[: len(cols)]
    if len(r_cols) != len(cols):
        raise ValueError(
            f"right side has {len(r_cols)} columns, need {len(cols)}"
        )
    lk = _with_row_key(distinct_rows(left, cols, num_shards), cols)
    rk = _with_row_key(right, r_cols)
    return semi_join(lk, rk, on=_KEY, anti=True).drop_columns([_KEY])
