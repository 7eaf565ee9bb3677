"""Cross-document boilerplate removal (CCNet / RefinedWeb line-dedup
family, e.g. Wenzek et al. 2020 "CCNet", arXiv:1911.00359).

Web-scale pipelines drop LINES that recur across many documents (nav
bars, cookie banners, license footers) while keeping the documents
themselves.  The sandbox corpus has no newlines, so the unit of
deduplication is parameterized: a *chunk* is a run of ``chunk_words``
consecutive whitespace-delimited words (non-overlapping, last chunk may
be short) — with ``\n``-split corpora the same machinery applies to real
lines via ``split_lines=True``.

Distributed plan (two streaming passes over the corpus, no corpus-scale
driver state):

1. Frequency pass: ``map_batches`` explodes each doc into chunks,
   dedups ``(chunk, doc)`` *within the batch* (a doc row never spans
   batches, so per-batch dedup makes global counts exact distinct-doc
   counts), pre-aggregates to ``(chunk, partial_count)``, then ONE
   ``groupby(chunk).sum`` exchange of chunk-level partials yields the
   boilerplate set ``{chunk : docs(chunk) >= min_docs}``.
2. Rewrite pass: the boilerplate set is bounded above by
   ``total_chunks / min_docs``; under ``broadcast_max`` it ships once as
   a ``ray.put`` frozenset and the rewrite is a pure per-batch map (no
   exchange).  Above the gate the plan switches to an explode ->
   bucketed LEFT join on chunk -> ``groupby(doc).map_groups``
   reassembly: two more hash exchanges, never a driver materialization.

Output per document: ``(id, clean_text, n_chunks, n_removed)`` with
``clean_text`` the space-joined surviving chunks in original order
(empty string when everything was boilerplate).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

# Above this many boilerplate chunks, broadcast is replaced by bucketed joins.
BROADCAST_MAX_CHUNKS = 5_000_000


def _doc_chunks(text: str, chunk_words: int, split_lines: bool) -> list:
    if split_lines:
        return text.split("\n")
    w = text.split(" ")
    return [
        " ".join(w[i : i + chunk_words]) for i in range(0, len(w), chunk_words)
    ]


def _chunk_counts(
    docs: "ray.data.Dataset", text_column: str, chunk_words: int,
    split_lines: bool,
) -> "ray.data.Dataset":
    """(chunk, n_docs) via per-batch distinct-doc partials + one exchange."""

    def partial(batch: pa.Table) -> pa.Table:
        seen = {}
        for text in batch[text_column].to_pylist():
            for c in set(_doc_chunks(text or "", chunk_words, split_lines)):
                if c.strip():
                    seen[c] = seen.get(c, 0) + 1
        return pa.table(
            {"chunk": pa.array(list(seen.keys()), type=pa.string()),
             "n_docs": pa.array(list(seen.values()), type=pa.int64())}
        )

    # distinct chunks scale with the corpus, so the exchange shards on
    # hash(chunk) and sums inside the shard (ops/agg contract) instead of
    # paying the per-distinct-key groupby cost
    from .agg import sharded_groupby_apply

    def shard_sum(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("chunk", sort=False)["n_docs"].sum()
        return pd.DataFrame(
            {"chunk": g.index.to_numpy(object),
             "sum(n_docs)": g.to_numpy(np.int64)}
        )

    return sharded_groupby_apply(
        docs.map_batches(partial, batch_format="pyarrow"),
        ["chunk"], shard_sum, num_shards=64,
    )


def boilerplate_trim(
    docs: "ray.data.Dataset",
    id_column: str = "doc_id",
    text_column: str = "text",
    chunk_words: int = 5,
    min_docs: int = 2,
    split_lines: bool = False,
    broadcast_max: int = BROADCAST_MAX_CHUNKS,
) -> "ray.data.Dataset":
    """Remove chunks occurring in >= ``min_docs`` distinct documents."""
    counts = _chunk_counts(docs, text_column, chunk_words, split_lines)
    dup = counts.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b["sum(n_docs)"], min_docs)
        ).select(["chunk"]),
        batch_format="pyarrow",
    ).materialize()

    def rewrite_row(text: str, is_dup) -> tuple:
        chunks = _doc_chunks(text or "", chunk_words, split_lines)
        kept = [c for c in chunks if not is_dup(c)]
        sep = "\n" if split_lines else " "
        return sep.join(kept), len(chunks), len(chunks) - len(kept)

    if dup.count() <= broadcast_max:
        dup_set = frozenset(
            c for b in dup.iter_batches(batch_format="pyarrow")
            for c in b["chunk"].to_pylist()
        )
        ref = ray.put(dup_set)

        def rewrite(batch: pa.Table) -> pa.Table:
            dups = ray.get(ref)
            clean, nc, nr = [], [], []
            for text in batch[text_column].to_pylist():
                c, n, r = rewrite_row(text, dups.__contains__)
                clean.append(c)
                nc.append(n)
                nr.append(r)
            return pa.table(
                {id_column: batch[id_column],
                 "clean_text": pa.array(clean, type=pa.string()),
                 "n_chunks": pa.array(nc, type=pa.int64()),
                 "n_removed": pa.array(nr, type=pa.int64())}
            )

        return docs.map_batches(rewrite, batch_format="pyarrow")

    # Over-gate path: explode -> bucketed LEFT join on chunk -> reassemble.
    from .join import bucketed_hash_join

    def explode(batch: pa.Table) -> pa.Table:
        ids, cidx, chunks = [], [], []
        for i, text in zip(
            batch[id_column].to_pylist(), batch[text_column].to_pylist()
        ):
            cs = _doc_chunks(text or "", chunk_words, split_lines)
            ids.extend([i] * len(cs))
            cidx.extend(range(len(cs)))
            chunks.extend(cs)
        return pa.table(
            {id_column: pa.array(ids),
             "cidx": pa.array(cidx, type=pa.int64()),
             "chunk": pa.array(chunks, type=pa.string())}
        )

    flagged = bucketed_hash_join(
        docs.map_batches(explode, batch_format="pyarrow"),
        dup.map_batches(
            lambda b: pa.table(
                {"chunk": b["chunk"],
                 "isdup": pa.array(np.ones(b.num_rows, bool))}
            ),
            batch_format="pyarrow",
        ),
        on="chunk",
        how="left",
    )
    sep = "\n" if split_lines else " "

    def reassemble(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("cidx", kind="stable")
        keep = g["isdup"].isna()  # isdup is True or null after the left join
        return pa.table(
            {id_column: pa.array([g[id_column].iloc[0]]),
             "clean_text": pa.array(
                 [sep.join(g.loc[keep, "chunk"])], type=pa.string()),
             "n_chunks": pa.array([len(g)], type=pa.int64()),
             "n_removed": pa.array([int((~keep).sum())], type=pa.int64())}
        )

    return flagged.groupby(id_column).map_groups(
        reassemble, batch_format="pandas"
    )
