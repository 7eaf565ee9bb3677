"""Within-corpus exact-substring (duplicate k-gram span) detection and
removal — the EXACTSUBSTR dedup of "Deduplicating Training Data Makes
Language Models Better" (Lee et al., 2021), re-expressed as a distributed
k-gram inverted index instead of the paper's sharded suffix arrays.

Reference parity note: the reference plugin has no near-dup machinery at
all (its only dedup is `formatting/base.py:107` drop_duplicates); this is
one of the training-data extras the target engine adds.

Scale shape (what moves through the cluster):

1. **Inverted-index exchange** — one streaming pass over the corpus
   emits ``(doc_id, pos, gram_hash)`` occurrence rows, h-sharded.  All
   occurrences of a hash co-locate in its shard, so duplicate discovery
   (distinct-doc count >= ``min_docs``) AND the hit filter happen inside
   the shard in one vectorized pass — no separate discovery aggregate,
   no join, one corpus read.  The exchange carries 24-byte rows (hash +
   id + position) — never gram text, never doc bodies.
2. **Per-doc reduce** — duplicated positions group per document through
   a second sharded exchange; span merging / coverage is one vectorized
   numpy pass per shard (intervals ``[p, p+k)`` merge when the position
   delta is <= k, so coverage = k + sum(min(diff, k)) per doc).

Grouping is by 64-bit polynomial window hash (`ops/text.window_hashes`)
rather than gram text: a collision can only ADD a false duplicate flag,
with probability ~n^2/2^64 — the standard inverted-index trade, and the
same stance `ops/decontam.py` takes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .agg import sharded_groupby_apply
from .text import window_hashes


def _occurrences(
    ds: "ray.data.Dataset", text_column: str, id_column: str, k: int
) -> "ray.data.Dataset":
    """(doc_id, pos, h) — one row per k-gram window of every document."""

    def emit(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_numpy(zero_copy_only=False)
        hs: List[np.ndarray] = []
        counts = np.zeros(len(ids), dtype=np.int64)
        for i, t in enumerate(batch[text_column].to_pylist()):
            ws = (t or "").split()
            if len(ws) >= k:
                h = window_hashes(ws, k)
                hs.append(h)
                counts[i] = len(h)
        if not hs:
            return pa.table(
                {
                    id_column: pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                    "h": pa.array([], type=pa.uint64()),
                }
            )
        allh = np.concatenate(hs)
        rep_ids = np.repeat(ids, counts)
        # position vector: 0..counts[i]-1 within each doc, one vectorized pass
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1], dtype=np.int64) - np.repeat(
            ends - counts, counts
        )
        return pa.table(
            {
                id_column: pa.array(rep_ids, type=pa.int64()),
                "pos": pa.array(pos, type=pa.int64()),
                "h": pa.array(allh, type=pa.uint64()),
            }
        )

    return ds.map_batches(emit, batch_format="pyarrow")


def duplicate_hits(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 8,
    min_docs: int = 2,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """(doc_id, pos) of every window whose k-gram is duplicated across
    >= ``min_docs`` distinct documents (all occurrences, including in-doc
    repeats of a cross-doc-duplicated gram).

    One h-sharded exchange of the occurrence rows does BOTH discovery and
    the hit join: all occurrences of a hash co-locate in its shard, so the
    distinct-doc count and the filter happen in place — a separate
    discovery aggregate plus a join would re-shuffle the same occurrence
    rows on the same key (and read the corpus twice)."""
    occ = _occurrences(ds, text_column, id_column, k)

    def hits_in_shard(df: pd.DataFrame) -> pd.DataFrame:
        n_docs = (
            df.drop_duplicates(["h", id_column]).groupby("h", sort=False).size()
        )
        keep = df["h"].map(n_docs).to_numpy() >= min_docs
        return df.loc[keep, [id_column, "pos"]]

    return sharded_groupby_apply(occ, ["h"], hits_in_shard, num_shards=num_buckets)


def duplicate_span_stats(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 8,
    min_docs: int = 2,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Per-document duplicate-text profile: for every doc containing at
    least one duplicated k-gram, ``(doc_id, n_dup_grams, n_dup_spans,
    dup_tokens)`` where spans are maximal merged ``[p, p+k)`` intervals
    and ``dup_tokens`` is the number of distinct token positions covered."""
    hits = duplicate_hits(
        ds,
        text_column=text_column,
        id_column=id_column,
        k=k,
        min_docs=min_docs,
        num_buckets=num_buckets,
    )

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_column, "pos"], kind="mergesort")
        ids = df[id_column].to_numpy()
        pos = df["pos"].to_numpy()
        new_doc = np.r_[True, ids[1:] != ids[:-1]]
        diff = np.r_[0, pos[1:] - pos[:-1]]
        # interval [p, p+k) merges with predecessor iff diff <= k
        step = np.where(new_doc, k, np.minimum(diff, k))
        span_start = new_doc | (diff > k)
        starts = np.flatnonzero(new_doc)
        counts = np.diff(np.r_[starts, len(ids)])
        return pd.DataFrame(
            {
                id_column: ids[starts],
                "n_dup_grams": counts,
                "n_dup_spans": np.add.reduceat(span_start.astype(np.int64), starts),
                "dup_tokens": np.add.reduceat(step, starts),
            }
        )

    return sharded_groupby_apply(hits, [id_column], per_doc, num_shards=num_buckets)


def drop_duplicate_spans(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 8,
    min_docs: int = 2,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Every document rebuilt with all duplicated-span tokens removed
    (``(doc_id, clean_text)``; whitespace canonicalized to single spaces
    on every doc, so unchanged docs are ``" ".join(text.split())``).

    Lee et al. keep one canonical occurrence; this variant removes ALL
    occurrences — a stricter, coordination-free rule whose output needs no
    global ordering decision, so it stays a pure composition of streaming
    stages.  Docs and their duplicated positions meet in one sharded
    reduce: both relations are unioned (position rows carry a null text,
    document rows carry pos = -1), sharded by doc hash, and rebuilt with
    one coverage mask per document."""
    hits = duplicate_hits(
        ds,
        text_column=text_column,
        id_column=id_column,
        k=k,
        min_docs=min_docs,
        num_buckets=num_buckets,
    )

    def hit_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_column: batch[id_column],
                "pos": batch["pos"],
                text_column: pa.nulls(batch.num_rows, type=pa.string()),
            }
        )

    def doc_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_column: batch[id_column],
                "pos": pa.array(
                    np.full(batch.num_rows, -1, dtype=np.int64), type=pa.int64()
                ),
                text_column: batch[text_column],
            }
        )

    both = ds.map_batches(doc_rows, batch_format="pyarrow").union(
        hits.map_batches(hit_rows, batch_format="pyarrow")
    )

    def rebuild(df: pd.DataFrame) -> pd.DataFrame:
        out_ids: List[int] = []
        out_txt: List[Optional[str]] = []
        for doc_id, g in df.groupby(id_column, sort=False):
            texts = g.loc[g["pos"] < 0, text_column]
            if texts.empty:
                continue  # positions of a doc not in this input slice
            ws = (texts.iloc[0] or "").split()
            pos = g.loc[g["pos"] >= 0, "pos"].to_numpy()
            if len(pos) and ws:
                # difference-array coverage: +1 at span starts, -1 past
                # span ends, covered where the running sum is positive
                delta = np.zeros(len(ws) + 1, dtype=np.int64)
                np.add.at(delta, pos, 1)
                np.add.at(delta, np.minimum(pos + k, len(ws)), -1)
                keep = np.cumsum(delta[:-1]) == 0
                clean = " ".join(w for w, m in zip(ws, keep) if m)
            else:
                clean = " ".join(ws)
            out_ids.append(doc_id)
            out_txt.append(clean)
        return pd.DataFrame({id_column: out_ids, "clean_text": out_txt})

    return sharded_groupby_apply(both, [id_column], rebuild, num_shards=num_buckets)
