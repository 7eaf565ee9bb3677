"""BM25 term-based retrieval (Robertson & Spärck Jones; Okapi BM25).

Parity note: not in the reference plugin — lexical retrieval over a
training corpus.

Scale shape:

1. **Explode** — one streaming pass emits distinct ``(doc, term, tf,
   dl)`` rows, dl (doc token length) computed inline so no doc-keyed
   join is ever needed.  The query-term filter applies IN THE SAME PASS,
   so only rows of the handful of query terms leave the scan — the
   corpus-sized vocabulary never enters an exchange.
2. **df reduce** — document frequencies of the query terms only: a
   sharded aggregate over the filtered rows producing ≤ |query| rows,
   which legitimately broadcast back (bounded by query size, not corpus
   size).
3. **Score + per-doc reduce** — per-row BM25 weights are vectorized
   numpy; per-doc sums co-locate in one doc-sharded exchange; the final
   top-k is `ops/topk.global_topk` (per-block local top-k + one
   O(k x blocks) reduce — no global sort even when a frequent query
   term matches a corpus-sized doc set).

Global scalars N (doc count) and avgdl (mean token length) are two
driver-side floats from a one-pass partial reduce.

Determinism: ``rational_idf=True`` (default) scores with
``(N - df + 0.5) / (df + 0.5)`` instead of the usual ``ln`` of it,
built purely from IEEE-exact ``+ - * /`` so a SQL oracle reproduces
scores bit-for-bit before rounding (libm ``log`` rounding is
engine-dependent; see `ops/tfidf.py` for the same trade).  Ordering
caveat: dropping the log is order-preserving PER TERM (it is monotone
in df), so single-term rankings match textbook BM25 exactly — but
multi-term totals weight rare terms more heavily than log idf would,
so multi-term rankings can deviate from conventional BM25.  Pass
``rational_idf=False`` for the textbook formula where parity with
standard BM25 ranking matters more than a bit-exact oracle.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from .agg import sharded_groupby_apply
from .text import WORD_RE
from .topk import global_topk


def bm25_topk(
    docs: "ray.data.Dataset",
    query_terms: Sequence[str],
    k: int = 10,
    k1: float = 1.5,
    b: float = 0.75,
    text_column: str = "text",
    id_column: str = "doc_id",
    num_shards: int = 32,
    rational_idf: bool = True,
    round_digits: int = 6,
) -> "ray.data.Dataset":
    """Top-``k`` documents for ``query_terms`` by summed BM25 weight.

    Returns ``(id_column, score)`` ordered by ``(score DESC, id)``;
    scores are rounded to ``round_digits`` BEFORE the ordering so ties
    broken by id are reproducible across engines.
    """
    terms = set(query_terms)
    from collections import Counter

    def explode(batch: pa.Table) -> pa.Table:
        ids: List = []
        out_terms: List[str] = []
        tfs: List[int] = []
        dls: List[int] = []
        id_vals = batch[id_column].to_pylist()
        for i, t in zip(id_vals, batch[text_column].to_pylist()):
            toks = WORD_RE.findall(t or "")
            for term, n in Counter(toks).items():
                if term in terms:
                    ids.append(i)
                    out_terms.append(term)
                    tfs.append(n)
                    dls.append(len(toks))
        return pa.table(
            {
                id_column: pa.array(ids, type=batch.schema.field(id_column).type),
                "term": pa.array(out_terms, type=pa.string()),
                "tf": pa.array(tfs, type=pa.int64()),
                "dl": pa.array(dls, type=pa.int64()),
            }
        )

    def corpus_partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        dl = 0
        for t in batch[text_column].to_pylist():
            dl += len(WORD_RE.findall(t or ""))
        return pa.table(
            {"n": pa.array([n], type=pa.int64()), "dl": pa.array([dl], type=pa.int64())}
        )

    stats = docs.map_batches(corpus_partial, batch_format="pyarrow")
    n_docs = stats.sum("n") or 0
    if n_docs == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    id_column: pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        )
    avgdl = float(stats.sum("dl") or 0) / float(n_docs)

    hits = docs.map_batches(explode, batch_format="pyarrow").materialize()
    if hits.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    id_column: pa.array([], type=pa.int64()),
                    "score": pa.array([], type=pa.float64()),
                }
            )
        )

    def df_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("term", sort=False)
        return pd.DataFrame({"term": list(g.groups), "df": g.size().to_numpy()})

    df_tab = sharded_groupby_apply(
        hits, ["term"], df_reduce, num_shards=min(num_shards, max(1, len(terms)))
    ).to_pandas()  # ≤ |query_terms| rows — bounded by the query, not the corpus
    df_map = dict(zip(df_tab["term"], df_tab["df"].astype(float)))

    def score_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_column: batch[id_column],
                    "w": pa.array([], type=pa.float64()),
                }
            )
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = batch["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = np.array(
            [df_map[t] for t in batch["term"].to_pylist()], dtype=np.float64
        )
        ridf = (n_docs - dfv + 0.5) / (dfv + 0.5)
        idf = ridf if rational_idf else np.log(ridf + 1.0)
        w = idf * (tf * (k1 + 1.0)) / (tf + k1 * ((1.0 - b) + b * (dl / avgdl)))
        return pa.table(
            {id_column: batch[id_column], "w": pa.array(w, type=pa.float64())}
        )

    def doc_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_column, sort=False)
        return pd.DataFrame(
            {
                id_column: list(g.groups),
                "score": np.round(g["w"].sum().to_numpy(), round_digits),
            }
        )

    scored = sharded_groupby_apply(
        hits.map_batches(score_rows, batch_format="pyarrow"),
        [id_column],
        doc_sum,
        num_shards=num_shards,
    )
    # per-block local top-k + one tiny reduce (O(k x blocks) exchange) —
    # a global sort here would move every matched doc for a frequent term
    return global_topk(scored, "score", k, descending=True, tiebreak=[id_column])
