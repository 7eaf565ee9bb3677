"""Vectorized deterministic bucket/partition hashing.

Partition assignment must be process- and cluster-stable (Python ``hash``
is salted per process) and cheap per row — a Python ``zlib.crc32`` call per
row turns an otherwise Arrow-native stage into a string-allocation loop.
Two kernels:

- integer keys: a splitmix64 finalizer on the raw uint64 view — pure numpy,
  no Python objects at all.
- string keys: ``dictionary_encode`` the batch column, crc32 only the
  (small) per-batch vocabulary, then remap through a LUT — per-row work is
  one vectorized gather.  Exact crc32-of-utf8 semantics are preserved, so
  partition layouts match :func:`partition_of` and stay stable across
  engine versions (resume manifests depend on this).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def partition_of(key, num_partitions: int) -> int:
    """Single-key form (manifests / tests): ``crc32(str(key)) % n``."""
    return zlib.crc32(str(key).encode("utf-8")) % num_partitions


_SM1 = np.uint64(0xBF58476D1CE4E5B9)
_SM2 = np.uint64(0x94D049BB133111EB)


def bucket_of_column(
    col: "pa.Array | pa.ChunkedArray", num_buckets: int, stable_str: bool = False
) -> np.ndarray:
    """Deterministic bucket id per row as an int32 numpy array.

    ``stable_str=True`` forces the crc32-of-``str(value)`` path for every
    type — required where single-key :func:`partition_of` must agree with
    the column kernel (the partitioned writer).  The default integer path
    uses splitmix64, which is cheaper and fine for query-internal buckets
    (joins) where both sides use the same kernel.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_integer(t) and not stable_str:
        x = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * _SM1
        x = (x ^ (x >> np.uint64(27))) * _SM2
        x ^= x >> np.uint64(31)
        return (x % np.uint64(num_buckets)).astype(np.int32)
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
        col = pc.cast(col, pa.string())
    col = pc.fill_null(col, "")
    enc = pc.dictionary_encode(col)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    vocab = enc.dictionary.to_pylist()
    lut = np.fromiter(
        (zlib.crc32(v.encode("utf-8")) % num_buckets for v in vocab),
        dtype=np.int32,
        count=len(vocab),
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    return lut[idx]


def bucket_column(
    col: "pa.Array | pa.ChunkedArray", num_buckets: int, stable_str: bool = False
) -> pa.Array:
    """Arrow int32 wrapper around :func:`bucket_of_column`."""
    return pa.array(bucket_of_column(col, num_buckets, stable_str), type=pa.int32())
