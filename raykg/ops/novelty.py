"""Per-document duplicate-n-gram rate (novelty / memorization-risk QA).

For each document: of its DISTINCT word n-grams, what fraction also
occurs in at least one OTHER document?  This is the per-doc diagnostic
behind n-gram-overlap dedup decisions (Lee et al. 2022, "Deduplicating
Training Data Makes Language Models Better" measure near-dup leakage
with exactly this kind of cross-doc n-gram incidence): a doc with a
high dup-gram rate is either boilerplate-heavy or a near-copy, and is
what MinHash/winnowing pipelines should have caught.

Scale shape (an n-gram inverted index without pair emission): each
doc emits one (hash, doc_id, size) row per distinct n-gram; ONE
hash-sharded exchange decides cross-doc incidence locally (every
occurrence of a hash lands in the same shard), emitting per-doc PARTIAL
dup counts; a final per-doc combine sums partials.  Gram text never
moves — only 63-bit hashes (the top 63 bits of the gram's md5, so the
DuckDB oracle mirrors it exactly).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

_WS = re.compile(r"\S+")


def _distinct_gram_hashes(text: str, n: int) -> np.ndarray:
    """Sorted distinct 63-bit md5 hashes of the word n-grams; a doc with
    0 < words < n contributes its whole text as one gram."""
    words = _WS.findall(text or "")
    if not words:
        return np.zeros(0, dtype=np.int64)
    if len(words) >= n:
        grams = {
            " ".join(words[i : i + n]) for i in range(len(words) - n + 1)
        }
    else:
        grams = {" ".join(words)}
    return np.unique(
        np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(g.encode("utf-8")).digest()[:8], "big"
                )
                >> 1
                for g in grams
            ),
            dtype=np.int64,
            count=len(grams),
        )
    )


def dup_gram_rate(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    n: int = 5,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """(doc_id, n_grams, dup_grams, dup_rate) — ``dup_rate`` is the
    6-digit-rounded fraction of the doc's distinct n-grams occurring in
    >= 2 distinct documents corpus-wide.  One exchange."""

    def index_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_pylist()
        texts = batch[text_column].to_pylist()
        out_h, out_i, out_s = [], [], []
        for did, txt in zip(ids, texts):
            hv = _distinct_gram_hashes(txt, n)
            if len(hv):
                out_h.append(hv)
                out_i.append(np.full(len(hv), did, dtype=np.int64))
                out_s.append(np.full(len(hv), len(hv), dtype=np.int64))
        if not out_h:
            return pa.table(
                {
                    "h": pa.array([], type=pa.int64()),
                    "doc_id": pa.array([], type=pa.int64()),
                    "size": pa.array([], type=pa.int64()),
                    "shard": pa.array([], type=pa.int32()),
                }
            )
        h = np.concatenate(out_h)
        return pa.table(
            {
                "h": pa.array(h),
                "doc_id": pa.array(np.concatenate(out_i)),
                "size": pa.array(np.concatenate(out_s)),
                "shard": pa.array(
                    (h.astype(np.uint64) % np.uint64(num_shards)).astype(
                        np.int32
                    )
                ),
            }
        )

    def shard_partials(g: pd.DataFrame) -> pd.DataFrame:
        """Every occurrence of a hash is in this shard: a gram is dup iff
        >= 2 distinct docs hold it.  Emit per-doc partial sums (plus the
        constant per-doc size so the combiner needs no second input)."""
        ndoc = g.groupby("h")["doc_id"].transform("nunique")
        dup = (ndoc > 1).to_numpy().astype(np.int64)
        agg = (
            g.assign(dup=dup)
            .groupby("doc_id", sort=False)
            .agg(n_grams=("size", "max"), dup_grams=("dup", "sum"))
            .reset_index()
        )
        # shard the combine on doc id — a Ray groupby(doc_id) would pay
        # per-group overhead on a corpus-scale group count
        agg["dshard"] = agg["doc_id"].to_numpy(np.int64) % num_shards
        return agg

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id", sort=False).agg(
            n_grams=("n_grams", "max"), dup_grams=("dup_grams", "sum")
        ).reset_index()
        rate = agg["dup_grams"].to_numpy(np.float64) / agg[
            "n_grams"
        ].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].to_numpy(np.int64),
                "n_grams": agg["n_grams"].to_numpy(np.int64),
                "dup_grams": agg["dup_grams"].to_numpy(np.int64),
                "dup_rate": np.floor(rate * 1e6 + 0.5) / 1e6,
            }
        )

    return (
        ds.map_batches(index_rows, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(shard_partials, batch_format="pandas")
        .groupby("dshard")
        .map_groups(combine, batch_format="pandas")
    )
