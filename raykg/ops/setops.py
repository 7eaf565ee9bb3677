"""SQL set operations on whole rows: DISTINCT.

:func:`distinct_rows` is a two-level distinct: a per-batch Arrow
``group_by`` bounds the exchange to per-block distinct rows, then one
sharded vectorized dedup per key-hash shard (never a Python call per
distinct row).
"""

from __future__ import annotations

from typing import Sequence

import pandas as pd

import ray.data

from .agg import sharded_groupby_apply


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
