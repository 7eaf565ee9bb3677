"""Corpus-statistics language-model fluency scoring (CCNet-style).

Parity note: not in the reference plugin — this is the LM-based quality
signal a training-data pipeline runs next to the rule-based metrics in
`ops/text.py`: documents whose word transitions are rare relative to
the corpus score low and get filtered or down-weighted.

The model is the corpus itself: bigram and unigram-head counts over the
whitespace tokens.  The score per document is the MEAN CONDITIONAL
BIGRAM PROBABILITY

    score(doc) = mean over bigrams (w1, w2) of  c(w1, w2) / c(w1)

— deliberately NOT log-perplexity: every term is one IEEE-exact integer
division, so a SQL oracle reproduces the scores (libm ``log`` rounding
is engine-dependent; same trade as `ops/tfidf.py` and `ops/bm25.py`).
Because the model is trained on the corpus being scored, every document
bigram exists in the counts — no OOV smoothing branch.

Scale shape — ONE corpus read and TWO exchanges, total:

1. **Head-sharded count + score** — the explode emits per-batch
   pre-counted ``(doc, w1, w2, n)`` rows (tokenization is the only
   per-row Python; the pre-count is one C-speed pandas groupby).  These
   rows shard by ``w1``: every bigram sharing a head word co-locates,
   so the GLOBAL counts ``c(w1, w2)`` and ``c(w1)`` are in-shard sums
   of the very same rows — no separate count tables, no join.  A
   vectorized merge scores each row and pre-reduces ``(doc, sum p,
   n_bigrams)`` partials per shard.
2. **Per-doc reduce** — the partials co-locate in a doc-sharded
   exchange; the mean is one vectorized pass.

The vocabulary-scaled counts never exist as a separate table, never
broadcast, and never meet a join — the count model lives entirely
inside the shard that needs it.
"""
from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .agg import sharded_groupby_apply
from .text import WORD_RE


def _doc_bigrams(toks: pa.ListArray):
    """Adjacent non-empty token pairs of each list of a ``list<string>``
    array, possibly sliced: ``(doc index, w1, w2)`` in document order."""
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    # a sliced list array's offsets index into its whole child array, from
    # offsets[0] on: cut the child to this slice and rebase to 0
    flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
    offsets = offsets - offsets[0]
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    kept_flat = flat.filter(pa.array(keep))
    csum = np.concatenate([[0], np.cumsum(keep.astype(np.int64))])
    counts = csum[offsets[1:]] - csum[offsets[:-1]]  # \S+ per doc
    new_off = np.concatenate([[0], np.cumsum(counts)])
    nbi = np.maximum(counts - 1, 0)  # bigrams per doc
    idx = np.concatenate(
        [np.arange(o, o + k) for o, k in zip(new_off[:-1], nbi)]
    ) if nbi.any() else np.zeros(0, dtype=np.int64)
    w1 = kept_flat.take(pa.array(idx, type=pa.int64()))
    w2 = kept_flat.take(pa.array(idx + 1, type=pa.int64()))
    return np.repeat(np.arange(len(toks)), nbi), w1, w2


def _bigram_rows(
    docs: "ray.data.Dataset", text_column: str, id_column: str
) -> "ray.data.Dataset":
    """Pre-counted ``(doc, w1, w2, n)`` rows, one per distinct in-doc
    bigram per batch."""

    def explode(batch: pa.Table) -> pa.Table:
        # Arrow-native tokenization (no Python per string):
        # utf8_split_whitespace emits empty tokens at string edges, which
        # _doc_bigrams drops — the result matches WORD_RE (\S+) exactly;
        # bigram pairs are two shifted takes of the kept tokens
        toks = pc.utf8_split_whitespace(
            pc.coalesce(batch[text_column], pa.scalar(""))
        ).combine_chunks()
        doc_idx, w1, w2 = _doc_bigrams(toks)
        doc_ids = batch[id_column].take(pa.array(doc_idx, type=pa.int64()))
        df = pd.DataFrame(
            {id_column: doc_ids.to_pandas(), "w1": w1.to_pandas(),
             "w2": w2.to_pandas()}
        )
        g = df.groupby([id_column, "w1", "w2"], sort=False, as_index=False).size()
        return pa.table(
            {
                id_column: pa.array(
                    g[id_column], type=batch.schema.field(id_column).type
                ),
                "w1": pa.array(g["w1"], type=pa.string()),
                "w2": pa.array(g["w2"], type=pa.string()),
                "n": pa.array(g["size"], type=pa.int64()),
            }
        )

    return docs.map_batches(explode, batch_format="pyarrow")


def lm_score(
    docs: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    num_shards: int = 32,
    round_digits: int = 6,
) -> "ray.data.Dataset":
    """(id, lm_score) per document with >= 1 bigram; ``lm_score`` is the
    mean conditional bigram probability under the corpus's own counts,
    rounded to ``round_digits``.  Docs with < 2 tokens are absent."""

    def shard_score(df: pd.DataFrame) -> pd.DataFrame:
        # global c(w1, w2) and c(w1): in-shard sums — all rows of a head
        # word are here by construction of the shard key
        g12 = (
            df.groupby(["w1", "w2"], sort=False, as_index=False)["n"]
            .sum()
            .rename(columns={"n": "c12"})
        )
        g1 = (
            df.groupby("w1", sort=False, as_index=False)["n"]
            .sum()
            .rename(columns={"n": "c1"})
        )
        m = df.merge(g12, on=["w1", "w2"]).merge(g1, on="w1")
        n = m["n"].to_numpy(dtype=np.float64)
        p = n * (
            m["c12"].to_numpy(dtype=np.float64) / m["c1"].to_numpy(dtype=np.float64)
        )
        part = pd.DataFrame({id_column: m[id_column], "s": p, "k": n})
        return part.groupby(id_column, sort=False, as_index=False).sum()

    partials = sharded_groupby_apply(
        _bigram_rows(docs, text_column, id_column),
        ["w1"],
        shard_score,
        num_shards=num_shards,
    )

    def doc_mean(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_column, sort=False)
        s = g["s"].sum()
        k = g["k"].sum()
        return pd.DataFrame(
            {
                id_column: s.index.to_numpy(),
                "lm_score": np.round(s.to_numpy() / k.to_numpy(), round_digits),
            }
        )

    return sharded_groupby_apply(
        partials, [id_column], doc_mean, num_shards=num_shards
    )
