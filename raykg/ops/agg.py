"""Sharded vectorized aggregation — the scalable form of ``groupby``.

Ray Data's ``groupby(keys).aggregate(...)`` pays ~0.25 ms of Python per
DISTINCT KEY (measured on this box: 1M distinct int keys over 1M rows
> 300 s, 64 keys over the same rows ~2 s).  That is fine when the group
count is bounded (languages, concepts, partitions) and unusable when it
scales with the data (distinct texts, candidate pairs, conversations,
windows): at 100 TB a per-distinct-text aggregate is billions of Python
callbacks.

:func:`sharded_groupby_apply` keeps the same all-to-all exchange but
shuffles on ``hash(keys) % num_shards`` instead of the raw key, so the
engine sees O(num_shards) groups and the per-key work happens INSIDE the
shard as one vectorized pandas ``groupby`` over all of its keys.  Ray's
map_groups contract still sees every row of one shard in one call — rows
of the same key always share a shard, so per-key results are exact.

The helper composes with per-batch pre-aggregation (do it in the caller's
``map_batches`` before calling this) — pre-agg bounds the exchange volume,
sharding bounds the callback count; both are needed at scale.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .hashing import bucket_of_column

_SHARD_COL = "__agg_shard"

# Fit-in-worker guard: every sharded_groupby_apply shard must fit one
# worker's heap.  At the default 64 shards / 128 GiB node that holds to
# ~10^7-row shards; beyond the cap we fail LOUDLY naming the hot key
# instead of OOMing mid-run at 100×.  Tune per deployment via env
# (read at call time on the driver, so it applies cluster-wide).
def _caps(row_cap, byte_cap):
    if row_cap is None:
        row_cap = int(os.environ.get("RAYKG_SHARD_ROW_CAP", 20_000_000))
    if byte_cap is None:
        byte_cap = int(os.environ.get("RAYKG_SHARD_BYTE_CAP", 8 << 30))
    return row_cap, byte_cap


def _shard_ids(batch: pa.Table, keys: Sequence[str], num_shards: int) -> np.ndarray:
    """Combined deterministic shard id over one or more key columns."""
    acc = bucket_of_column(batch[keys[0]], num_shards).astype(np.int64)
    for k in keys[1:]:
        nxt = bucket_of_column(batch[k], num_shards).astype(np.int64)
        acc = (acc * np.int64(1_000_003) + nxt) % num_shards
    return acc.astype(np.int32)


def default_shards(requested: int | None = None, fallback: int = 64) -> int:
    """Resolve a shard count: explicit caller value wins; otherwise the
    RAYKG_NUM_SHARDS env (the one knob a multi-node deployment sets —
    SCALE_NOTES.md: >= 4x total cores); otherwise ``fallback`` (sized
    for this 32-cpu box)."""
    if requested is not None:
        return int(requested)
    env = os.environ.get("RAYKG_NUM_SHARDS")
    return int(env) if env else fallback


def sharded_groupby_apply(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    apply: Callable[[pd.DataFrame], pd.DataFrame],
    num_shards: int | None = None,
    row_cap: int | None = None,
    byte_cap: int | None = None,
) -> "ray.data.Dataset":
    """``ds.groupby(keys) -> apply(shard_df)`` with O(num_shards) engine
    groups.

    ``apply`` receives one shard as a pandas DataFrame (all rows of every
    key hashed to that shard, helper column removed) and must itself group
    by ``keys`` vectorized — e.g. ``df.groupby(keys).agg(...)``.  All rows
    of one key are guaranteed to be in the same shard.

    FIT-IN-WORKER CONTRACT: one shard's rows must fit one worker's heap.
    A shard over ``row_cap`` rows or ``byte_cap`` bytes (defaults from
    RAYKG_SHARD_ROW_CAP / RAYKG_SHARD_BYTE_CAP) raises a ValueError
    naming the hottest key and the scale-safe alternative instead of
    OOMing — a skewed or low-cardinality key cannot ride this plan."""
    keys = list(keys)
    num_shards = default_shards(num_shards)
    row_cap, byte_cap = _caps(row_cap, byte_cap)

    def add_shard(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _SHARD_COL, pa.array(_shard_ids(batch, keys, num_shards), type=pa.int32())
        )

    def run(g: pd.DataFrame):
        # deep: a string counts its bytes, not its 8-byte object pointer
        n, nbytes = len(g), int(g.memory_usage(deep=True).sum())
        if n > row_cap or nbytes > byte_cap:
            sizes = g.groupby(keys, sort=False).size().sort_values()
            hot_key, hot_n = sizes.index[-1], int(sizes.iloc[-1])
            raise ValueError(
                f"sharded_groupby_apply: shard holds {n:,} rows / "
                f"{nbytes >> 20} MiB, over the fit-in-one-worker cap "
                f"(RAYKG_SHARD_ROW_CAP={row_cap:,} / RAYKG_SHARD_BYTE_CAP="
                f"{byte_cap >> 20} MiB); hottest key {hot_key!r} has "
                f"{hot_n:,} rows across {len(sizes):,} keys. Raise "
                "num_shards if many keys share the shard; if ONE key is "
                "the volume, this plan cannot scale — use rank-by-sort "
                "(ops/rank.with_keyed_ranks) for rank windows, t-digest / "
                "sketch partials (ops/sketch.py) for quantiles, or "
                "pre-aggregate per batch before the exchange."
            )
        out = apply(g.drop(columns=[_SHARD_COL]))
        if isinstance(out, pd.DataFrame):
            # Arrow out: pandas blocks would carry pandas schema metadata
            # into every table written straight from this exchange
            out = pa.Table.from_pandas(out, preserve_index=False)
            out = out.replace_schema_metadata(None)
        return out

    return (
        ds.map_batches(add_shard, batch_format="pyarrow")
        .groupby(_SHARD_COL)
        .map_groups(run, batch_format="pandas")
    )
