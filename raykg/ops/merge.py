"""Changeset application (CDC merge / upsert-delete) by primary key.

``apply_changeset(snapshot, changes, key)`` produces the next snapshot:
for every key the highest-version change wins — an ``upsert`` row
replaces (or inserts) the record, a ``delete`` removes it — and keys
without changes keep their snapshot row.  This is the MERGE INTO /
table-format (Delta/Iceberg-style) upsert semantic as a pure Ray Data
transform.

Scale shape: ONE key-sharded exchange over ``snapshot ∪ changes`` —
both sides are tagged (snapshot precedence below any change) and
co-sharded by the key, then each shard resolves winners with a single
vectorized sort + keep-last pass.  No driver-side state; a key's
history never spans shards.  Ties on ``version`` within one key resolve
DETERMINISTICALLY — by op (upsert outranks delete), then by the
lexicographically greatest canonicalized row body — never by input
order: rows reach the resolve shard through a hash shuffle + union
whose intra-shard order Ray does not guarantee, so an input-order
contract would vary run-to-run.  Feeds that need a specific tie winner
should carry a strictly monotone version (commit LSN, timestamp).

The reference plugin is batch-only with no update semantics; this
extends the warehouse family (`ops/rollup.py`, `ops/join.py`).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .agg import sharded_groupby_apply

_SRC = "__m_src"
_VER = "__m_ver"
_OP = "__m_op"
_TB = "__m_tb"


def _canon(s: pd.Series) -> pd.Series:
    """Vectorized string canonicalization shared by the diff body and the
    version tiebreak (astype(str) is a C loop; a per-cell .map(lambda)
    here measured 2x the whole diff time)."""
    return s.astype(object).where(s.notna(), "<null>").astype(str)


def _body(df: pd.DataFrame, cols) -> pd.Series:
    """'|'-joined canonical string of ``cols`` — row identity for the diff
    and the deterministic tie order for the merge."""
    b = _canon(df[cols[0]])
    for c in cols[1:]:
        b = b + "|" + _canon(df[c])
    return b


def _resolve_winners(df: pd.DataFrame, key: str, body_cols) -> pd.DataFrame:
    """Last-version-wins resolve with a DETERMINISTIC tie order: version
    ties break by op (upsert outranks delete — 'delete' < 'upsert'
    lexicographically), then by greatest canonical body.  Never by input
    order, which the shuffle + union does not preserve."""
    tb = _body(df, body_cols) if body_cols else pd.Series("", index=df.index)
    df = df.assign(**{_TB: tb}).sort_values(
        [key, _SRC, _VER, _OP, _TB], kind="stable"
    )
    return df.drop_duplicates([key], keep="last")


def apply_changeset(
    snapshot: "ray.data.Dataset",
    changes: "ray.data.Dataset",
    key: str,
    op_col: str = "op",
    version_col: str = "version",
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Next snapshot after applying ``changes`` (columns = snapshot
    columns + ``op_col`` in {'upsert','delete'} + ``version_col``)."""
    data_cols = snapshot.schema().names
    if key not in data_cols:
        raise ValueError(f"key column {key!r} missing from snapshot")

    def tag_snap(df: pd.DataFrame) -> pd.DataFrame:
        df = df[data_cols].copy()
        df[_SRC] = np.int8(0)
        df[_VER] = np.float64(-np.inf)
        df[_OP] = "upsert"
        return df

    def tag_change(df: pd.DataFrame) -> pd.DataFrame:
        out = df[data_cols].copy()
        out[_SRC] = np.int8(1)
        out[_VER] = df[version_col].to_numpy().astype(np.float64)
        out[_OP] = df[op_col].to_numpy()
        return out

    tagged = snapshot.map_batches(tag_snap, batch_format="pandas").union(
        changes.map_batches(tag_change, batch_format="pandas")
    )

    body_cols = [c for c in data_cols if c != key]

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        last = _resolve_winners(df, key, body_cols)
        return last[last[_OP] != "delete"][data_cols]

    return sharded_groupby_apply(tagged, [key], resolve, num_shards)


def table_diff(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key: str,
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Row-level diff of two keyed tables: ``(key, status)`` with status
    in {'only_left', 'only_right', 'changed'}; identical rows are
    omitted: it says WHERE a copy drifted.

    One key-sharded exchange of side-tagged rows; each shard compares
    with a single vectorized merge over the non-key columns in string
    form.  Keys must be unique per side (primary-key tables)."""
    cols = [c for c in left.schema().names if c != key]
    if set(cols) != set(c for c in right.schema().names if c != key):
        raise ValueError("table_diff requires identical schemas")

    def tag(side: int):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({key: df[key]})
            out["__body"] = _body(df, cols)
            out["__side"] = np.int8(side)
            return out

        return fn

    tagged = left.map_batches(tag(0), batch_format="pandas").union(
        right.map_batches(tag(1), batch_format="pandas")
    )

    def compare(df: pd.DataFrame) -> pd.DataFrame:
        l = df[df["__side"] == 0]
        r = df[df["__side"] == 1]
        m = l[[key, "__body"]].merge(
            r[[key, "__body"]], on=key, how="outer", suffixes=("_l", "_r"),
            indicator=True,
        )
        status = np.where(
            m["_merge"] == "left_only",
            "only_left",
            np.where(m["_merge"] == "right_only", "only_right", "changed"),
        )
        keep = (m["_merge"] != "both") | (m["__body_l"] != m["__body_r"])
        out = pd.DataFrame({key: m[key], "status": status})[keep]
        return out

    return sharded_groupby_apply(tagged, [key], compare, num_shards)


def apply_changeset_diff(
    snapshot: "ray.data.Dataset",
    changes: "ray.data.Dataset",
    key: str,
    op_col: str = "op",
    version_col: str = "version",
    num_shards: int = 32,
) -> "ray.data.Dataset":
    """Fused ``table_diff(snapshot, apply_changeset(snapshot, changes))``
    in ONE key-sharded exchange.

    `apply_changeset` and `table_diff` both shard on the key, so running
    them end-to-end pays two all-to-alls over the same rows; here each
    shard already holds a key's snapshot row AND its changes, so it can
    resolve the merge winner and diff it against the snapshot in place:

    - key deleted by the changeset            -> ``only_left``
    - key inserted by the changeset           -> ``only_right``
    - key restated with a different body      -> ``changed``
    - key untouched / restated identically    -> omitted

    Output, body canonicalization (``<null>`` markers, string form) and
    column order match the unfused composition exactly — pinned equal by
    test (`tests/test_ops_merge.py`)."""
    data_cols = snapshot.schema().names
    if key not in data_cols:
        raise ValueError(f"key column {key!r} missing from snapshot")
    body_cols = [c for c in data_cols if c != key]

    def tag_snap(df: pd.DataFrame) -> pd.DataFrame:
        df = df[data_cols].copy()
        df[_SRC] = np.int8(0)
        df[_VER] = np.float64(-np.inf)
        df[_OP] = "upsert"
        return df

    def tag_change(df: pd.DataFrame) -> pd.DataFrame:
        out = df[data_cols].copy()
        out[_SRC] = np.int8(1)
        out[_VER] = df[version_col].to_numpy().astype(np.float64)
        out[_OP] = df[op_col].to_numpy()
        return out

    tagged = snapshot.map_batches(tag_snap, batch_format="pandas").union(
        changes.map_batches(tag_change, batch_format="pandas")
    )

    def resolve_and_diff(df: pd.DataFrame) -> pd.DataFrame:
        last = _resolve_winners(df, key, body_cols)
        merged = last[last[_OP] != "delete"]
        snap = df[df[_SRC] == 0]
        l = pd.DataFrame({key: snap[key], "__body": _body(snap, body_cols)})
        # winners already carry their canonical body from the tiebreak pass
        r = pd.DataFrame({key: merged[key], "__body": merged[_TB]})
        m = l.merge(r, on=key, how="outer", suffixes=("_l", "_r"), indicator=True)
        status = np.where(
            m["_merge"] == "left_only",
            "only_left",
            np.where(m["_merge"] == "right_only", "only_right", "changed"),
        )
        keep = (m["_merge"] != "both") | (m["__body_l"] != m["__body_r"])
        return pd.DataFrame({key: m[key], "status": status})[keep]

    return sharded_groupby_apply(tagged, [key], resolve_and_diff, num_shards)
