"""Per-group feature normalization (z-score) — ML feature prep.

Parity note: not in the reference plugin; this is the feature-scaling
stage of a training pipeline (normalize a numeric column within each
category before modeling).

Scale shape — NO row exchange at all: per-batch ``(group, n, sum,
sumsq)`` partials tree-reduce to one tiny stats table (group-count
sized), which ships back via ``ray.put`` into a stateless map that
attaches the z-score.  Rows never shuffle; the only moving state is
three doubles per group.  This is the right shape whenever the group
count is bounded (categories, priorities, languages) — for
corpus-scaled keys use `ops/window.window_over`'s sharded machinery
instead.

Determinism: population variance from the sum/sumsq moments —
``var = sumsq/n - mean^2`` — mirrors exactly in SQL (no engine
``STDDEV``, whose algorithm differs); float summation order still
varies, so consumers round (the driver query rounds to 6)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data


def zscore_by_group(
    ds: "ray.data.Dataset",
    group_column: str,
    value_column: str,
    out_column: str = "zscore",
) -> "ray.data.Dataset":
    """Append ``out_column`` = (value - group_mean) / group_stddev_pop.
    Groups with zero variance get z-score 0.0."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"g": batch[group_column], "v": batch[value_column]}
        ).to_pandas()
        v = df["v"].astype(np.float64)
        agg = df.assign(v=v, v2=v * v).groupby("g", sort=False).agg(
            n=("v", "size"), s=("v", "sum"), ss=("v2", "sum")
        )
        return pa.table(
            {
                "g": pa.array(agg.index, type=batch[group_column].type),
                "n": pa.array(agg["n"], type=pa.int64()),
                "s": pa.array(agg["s"], type=pa.float64()),
                "ss": pa.array(agg["ss"], type=pa.float64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    stats = parts.groupby("g", sort=False).sum()
    mean = stats["s"] / stats["n"]
    var = stats["ss"] / stats["n"] - mean * mean
    table = pd.DataFrame(
        {"mean": mean, "sd": np.sqrt(np.maximum(var, 0.0))}
    )
    ref = ray.put(table)

    def attach(batch: pa.Table, ref=ref) -> pa.Table:
        st = ray.get(ref)
        df = pa.table(
            {"g": batch[group_column], "v": batch[value_column]}
        ).to_pandas()
        m = df["g"].map(st["mean"]).to_numpy(dtype=np.float64)
        sd = df["g"].map(st["sd"]).to_numpy(dtype=np.float64)
        v = df["v"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(sd > 0.0, (v - m) / sd, 0.0)
        return batch.append_column(out_column, pa.array(z, type=pa.float64()))

    return ds.map_batches(attach, batch_format="pyarrow")
