"""Reshape operators: pivot (long -> wide) and ordered string assembly
(``collect_strings``).

Pivot's distributed contract: the output schema must be FIXED before
execution — every task has to emit the same columns, so the category
list is an explicit argument, not discovered from the data (discovery is
a one-off ``unique()`` pass the caller runs once and pins in config; at
100 TB you do not want the output schema to depend on which blocks a
task happened to see).  Execution is per-batch pre-aggregation of
``(index, category) -> partial`` long rows — bounding the exchange to
index-cardinality × |categories| regardless of input size — then one
sharded vectorized pivot per index-hash shard.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pandas as pd

import ray.data

from .agg import sharded_groupby_apply


def pivot(
    ds: "ray.data.Dataset",
    index: str,
    columns_from: str,
    categories: Sequence[str],
    values_from: Optional[str] = None,
    agg: str = "sum",
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Wide table with one column per category: ``agg`` of ``values_from``
    (or row counts when ``values_from`` is None) for each ``(index,
    category)`` cell; cells with no rows are 0.  Rows whose category is
    not in ``categories`` are dropped (the schema is pinned)."""
    if agg not in ("sum", "count", "min", "max"):
        # only decomposable aggregates: the per-batch partial and the
        # shard combine must be the same associative function
        raise ValueError(f"pivot agg must be sum/count/min/max, got {agg!r}")
    categories = list(categories)
    val = values_from

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[columns_from].isin(categories)]
        g = df.groupby([index, columns_from], sort=False)
        if val is None:
            out = g.size().rename("__v").reset_index()
        else:
            out = g[val].agg("sum" if agg == "count" else agg).rename("__v").reset_index()
        return out

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        # partials for one shard: combine per (index, cat), then pivot
        combine = "sum" if agg in ("sum", "count") else agg
        wide = (
            df.groupby([index, columns_from], sort=False)["__v"]
            .agg(combine)
            .unstack(columns_from)
            .reindex(columns=categories)
            .fillna(0)
        )
        if val is None or agg == "count":
            wide = wide.astype("int64")
        return wide.rename_axis(None, axis=1).reset_index()

    long = ds.map_batches(partial, batch_format="pandas")
    return sharded_groupby_apply(long, [index], widen, num_shards=num_shards)


def collect_strings(
    ds: "ray.data.Dataset",
    key: str,
    value: str,
    order_by: Sequence[str],
    sep: str = "\n",
    prefix_col: Optional[str] = None,
    prefix_sep: str = ": ",
    out_col: str = "full_text",
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Ordered per-key string assembly: ``(key, n_items, out_col)`` with
    ``out_col`` = the non-null ``value`` strings of the key joined by
    ``sep`` in ``order_by`` order (optionally each prefixed by its
    ``prefix_col``, e.g. role-tagged conversation turns).

    One key-sharded exchange; the per-shard pass is a single vectorized
    sort + grouped join.  NULL values are skipped and excluded from
    ``n_items`` (SQL ``string_agg``/``COUNT(col)`` semantics, so a SQL
    mirror agrees row-for-row).  This is the conversation-assembly step
    of an LM-training pipeline — turns back into whole documents —
    built on the same sharded-groupby machinery as the window ops."""
    order_by = list(order_by)
    cols = [key, value] + order_by + ([prefix_col] if prefix_col else [])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[value].notna()]
        df = df.sort_values([key] + order_by, kind="stable")
        joined = (
            df[prefix_col].astype(str) + prefix_sep + df[value].astype(str)
            if prefix_col
            else df[value].astype(str)
        )
        df = df.assign(__joined=joined)
        g = df.groupby(key, sort=False)
        return pd.DataFrame(
            {
                key: list(g.groups),
                "n_items": g.size().to_numpy(),
                out_col: g["__joined"].agg(sep.join).to_numpy(),
            }
        )

    return sharded_groupby_apply(
        ds.select_columns(list(dict.fromkeys(cols))), [key], fold, num_shards
    )
