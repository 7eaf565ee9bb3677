"""Subtree rollup up a radix hierarchy (:func:`hierarchy_rollup`): every
row adds its value to its own node and to each ancestor computed from its
id, and one exchange sharded by node folds the sums.

The reference plugin has only per-document rollups (`SURVEY.md` A1-A3);
this is the hierarchical counterpart.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .agg import sharded_groupby_apply


def hierarchy_rollup(
    ds: "ray.data.Dataset",
    id_col: str,
    value_col: str,
    base: int = 10,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Subtree aggregation up a radix hierarchy: every id's ancestor chain
    is ``id, id // base, id // base**2, .., 0`` and each node's result
    covers its whole subtree (directory-size / org-chart / taxonomy
    rollups where the parent is COMPUTABLE from the id).

    Because parents are computable, no parent table is joined and no
    iterative propagation runs: each row expands to its ~log_base(id)
    ancestors in a flat per-batch numpy kernel, partials pre-aggregate
    inside the batch, and ONE value exchange (sharded by node) folds the
    subtree sums — cost O(rows * depth) map work + one all-to-all,
    independent of tree depth at any scale.

    Output ``(node, n_leaves, total)`` — leaf count and value sum over
    the node's subtree (a leaf contributes to itself and every ancestor
    including the root 0).
    """
    def expand(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes = [ids]
        values = [vals]
        cur, cv = ids, vals
        while len(cur):
            alive = cur > 0
            cur, cv = cur[alive] // base, cv[alive]
            if not len(cur):
                break
            nodes.append(cur)
            values.append(cv)
        node = np.concatenate(nodes)
        val = np.concatenate(values)
        # per-batch partial: one row per distinct ancestor in the batch
        order = np.argsort(node, kind="stable")
        node, val = node[order], val[order]
        uniq, start = np.unique(node, return_index=True)
        sums = np.add.reduceat(val, start)
        counts = np.diff(np.append(start, len(node)))
        return pa.table(
            {
                "node": pa.array(uniq, type=pa.int64()),
                "n_leaves": pa.array(counts.astype(np.int64), type=pa.int64()),
                "total": pa.array(sums, type=pa.int64()),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)[["n_leaves", "total"]].sum()
        return g.reset_index()

    return sharded_groupby_apply(
        ds.select_columns([id_col, value_col]).map_batches(
            expand, batch_format="pyarrow"
        ),
        ["node"],
        fold,
        num_shards=num_shards,
    )
