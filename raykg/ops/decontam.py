"""Test-set decontamination: drop every corpus document that shares any
word n-gram with a held-out evaluation set — standard training-data
hygiene (13-gram overlap removal in published LLM pipelines; ``n`` is a
parameter here so small test corpora stay non-vacuous).

Scale shape: the evaluation set is orders of magnitude smaller than the
corpus by construction, so its n-gram **hash set** is the broadcast side
— computed distributed (one streaming pass over the test set emitting
per-block unique uint64 gram hashes), unioned once on the driver (the
only driver-side state is the deduped hash array, ~8 bytes per distinct
test gram), ``ray.put`` once.  The corpus then streams through a single
``map_batches`` membership filter: all window hashes of a batch are
concatenated into one array, ONE ``searchsorted`` against the broadcast
keys, and per-document any-hit flags come from ``add.reduceat`` over the
per-doc offsets — no shuffle, no join, nothing corpus-sized ever
materializes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from .text import window_hashes


def gram_hash_set(
    ds: "ray.data.Dataset", text_column: str = "text", n: int = 13
) -> np.ndarray:
    """Sorted distinct word-``n``-gram window hashes of the (small) test
    set: per-block unique partials, deduped once in the calling process."""

    def partial(batch: pa.Table) -> pa.Table:
        parts = []
        for t in batch[text_column].to_pylist():
            ws = (t or "").split()
            if len(ws) >= n:
                parts.append(window_hashes(ws, n))
        hs = (
            np.unique(np.concatenate(parts))
            if parts
            else np.zeros(0, dtype=np.uint64)
        )
        return pa.table({"h": pa.array(hs, type=pa.uint64())})

    refs = ds.map_batches(partial, batch_format="pyarrow").materialize().to_arrow_refs()
    tabs = [t for t in ray.get(list(refs)) if t.num_rows]
    if not tabs:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(
        np.concatenate(
            [t["h"].combine_chunks().to_numpy(zero_copy_only=False) for t in tabs]
        )
    )


def decontaminate(
    corpus: "ray.data.Dataset",
    testset: "ray.data.Dataset",
    text_column: str = "text",
    n: int = 13,
) -> "ray.data.Dataset":
    """Return ``corpus`` minus every document sharing at least one word
    ``n``-gram with ``testset``.  Documents shorter than ``n`` words have
    no grams and always survive."""
    return drop_grams(corpus, gram_hash_set(testset, text_column, n), text_column, n)


def drop_grams(
    corpus: "ray.data.Dataset",
    keys: np.ndarray,
    text_column: str = "text",
    n: int = 13,
) -> "ray.data.Dataset":
    """Return ``corpus`` minus every document with a word-``n``-gram hash
    in ``keys``, the sorted output of :func:`gram_hash_set`."""
    keys_ref = ray.put(keys)

    def keep(batch: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)  # zero-copy view from the object store
        texts = batch[text_column].to_pylist()
        parts, counts = [], np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            ws = (t or "").split()
            h = window_hashes(ws, n)
            parts.append(h)
            counts[i] = len(h)
        if len(keys) == 0 or not counts.any():
            return batch
        all_h = np.concatenate(parts)
        pos = np.minimum(np.searchsorted(keys, all_h), len(keys) - 1)
        hit = (keys[pos] == all_h).astype(np.int64)
        # per-doc any(hit): reduceat over the non-empty docs' offsets —
        # consecutive non-empty docs bound exactly their own hash ranges
        # (empty docs contribute zero elements between them)
        nz = counts > 0
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))[nz]
        doc_hit = np.zeros(len(texts), dtype=bool)
        doc_hit[nz] = np.add.reduceat(hit, offsets) > 0
        return batch.filter(pa.array(~doc_hit))

    return corpus.map_batches(keep, batch_format="pyarrow")
