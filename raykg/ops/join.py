"""Join operators.

The reference has no relational join (SURVEY.md §2.4) — its only join is
the broadcast map-side semi-join of the ontology dictionary.  This module
makes that pattern an explicit, reusable operator (:func:`semi_join`),
plus the bucketed hash join for two large sides (the guide's portable
pattern for when ``Dataset.join`` isn't suitable).
"""

from __future__ import annotations

from typing import Optional

import pandas as pd
import pyarrow as pa

import ray
import ray.data


def semi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    right_on: Optional[str] = None,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Broadcast semi-join (``anti=True``: anti-join): keep left rows whose
    key does (not) appear in the right side's key set.  The right side is
    the SMALL side by contract — only its distinct key array crosses the
    wire (deduped per block in flight, once more on the driver, ``ray.put``
    once); each task does one vectorized ``searchsorted`` per batch.  No
    shuffle, and unlike a broadcast inner join the left rows stream through
    unchanged (no widening, no duplication on duplicate right keys)."""
    import numpy as np

    rk = right_on or on

    def key_partial(batch: pa.Table) -> pa.Table:
        col = batch[rk]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return pa.table({"k": col.unique()})

    refs = (
        right.map_batches(key_partial, batch_format="pyarrow")
        .materialize()
        .to_arrow_refs()
    )
    tabs = [t for t in ray.get(list(refs)) if t.num_rows]
    if tabs:
        keys = np.unique(
            pa.concat_tables(tabs)["k"].combine_chunks().to_numpy(
                zero_copy_only=False
            )
        )
    else:
        keys = np.zeros(0, dtype=np.int64)
    keys_ref = ray.put(keys)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        if len(ks) == 0:
            return batch if anti else batch.slice(0, 0)
        col = batch[on]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        vals = col.to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(ks, vals), len(ks) - 1)
        member = ks[pos] == vals
        return batch.filter(pa.array(~member if anti else member))

    return left.map_batches(filt, batch_format="pyarrow")


def _align_and_bucket(left, right, on, num_buckets):
    """Two-large-sides scaffolding of :func:`bucketed_hash_join`: rename
    the right side's clashing columns (except the key), pad each side with
    typed nulls for the other's columns, bucket on ``hash(key) % B``, tag
    the side, and union into ONE shuffle input.

    Returns ``(both, own_r_cols, out_fields)``: the unioned Dataset, the
    right side's renamed own columns, and the typed output schema the
    per-bucket kernels must emit (pandas merge dtypes drift on empty /
    all-null groups, so kernels emit typed Arrow)."""
    from .hashing import bucket_column

    l_schema = left.schema()
    r_schema = right.schema()
    l_names = list(l_schema.names)
    rename_map = {
        n: (n + "_r" if n in l_names and n != on else n) for n in r_schema.names
    }
    l_fields = list(zip(l_schema.names, l_schema.types))
    r_fields = [
        (rename_map[n], t)
        for n, t in zip(r_schema.names, r_schema.types)
        if rename_map[n] != on
    ]
    all_fields = l_fields + [f for f in r_fields if f[0] not in l_names]
    own_r_cols = sorted(n for n, _ in r_fields)
    own_r_set = set(own_r_cols)

    def prepare(side):
        def fn(batch: pa.Table) -> pa.Table:
            if side == "r":
                batch = batch.rename_columns(
                    [rename_map[n] for n in batch.schema.names]
                )
            have = set(batch.schema.names)
            arrays, names = [], []
            for name, typ in all_fields:
                names.append(name)
                if name in have:
                    col = batch[name]
                    arrays.append(
                        col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                    )
                else:
                    arrays.append(pa.nulls(batch.num_rows, type=typ))
            out = pa.Table.from_arrays(arrays, names=names)
            out = out.append_column("__bucket", bucket_column(out[on], num_buckets))
            return out.append_column("__side", pa.array([side] * out.num_rows))

        return fn

    both = left.map_batches(prepare("l"), batch_format="pyarrow").union(
        right.map_batches(prepare("r"), batch_format="pyarrow")
    )
    type_of = dict(all_fields)
    out_fields = [(n, t) for n, t in all_fields if n not in own_r_set] + [
        (n, type_of[n]) for n in own_r_cols
    ]
    return both, own_r_cols, out_fields


def bucketed_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    num_buckets: int | None = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Two large sides: add ``bucket = crc32(key) % B`` to both, groupby the
    bucket, and merge matching buckets pairwise inside per-bucket kernels —
    an explicit partitioned hash join.  Skewed keys should be salted into
    sub-buckets by the caller (raise ``num_buckets``).  Default bucket
    count resolves RAYKG_NUM_SHARDS (multi-node knob) then 64."""
    from .agg import default_shards

    num_buckets = default_shards(num_buckets)
    both, own_r_cols, out_fields = _align_and_bucket(left, right, on, num_buckets)

    def merge(g: pd.DataFrame) -> pa.Table:
        lhs = g[g["__side"] == "l"].drop(columns=["__side", "__bucket", *own_r_cols])
        rhs = g[g["__side"] == "r"][[on, *own_r_cols]]
        m = lhs.merge(rhs, on=on, how=how)
        arrays = [
            pa.array(m[name], type=typ, from_pandas=True) for name, typ in out_fields
        ]
        return pa.Table.from_arrays(arrays, names=[n for n, _ in out_fields])

    return both.groupby("__bucket").map_groups(merge, batch_format="pandas")
