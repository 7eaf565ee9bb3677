"""TF-IDF keyword extraction — the distributed composition pattern.

Pipeline: explode documents into distinct ``(doc, term, tf)`` rows in one
streaming pass; ONE term-sharded exchange both reduces document
frequencies and attaches them (all rows of a term co-locate in its
shard, so df is the term's in-shard row count — a separate df aggregate
plus a tf⋈df join would re-shuffle the same rows on the same key); rank
with the sharded per-group top-k.  The vocabulary scales with the
corpus, so DF stays distributed — never a broadcast dict (at 100 TB the
vocabulary alone is too large to ship to every task).

Scoring uses ``tf / df`` (rarity-weighted term frequency).  The ratio of
two small ints is IEEE-exact and identically ordered in every engine,
unlike ``log``-based idf where libm rounding could flip near-ties; ranks
are therefore exactly reproducible by a SQL oracle.
"""

from __future__ import annotations

from collections import Counter

import pandas as pd
import pyarrow as pa

import ray.data

from .agg import sharded_groupby_apply
from .text import WORD_RE
from .topk import group_topk


def term_frequencies(
    docs: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
) -> "ray.data.Dataset":
    """One row per distinct ``(doc, term)`` with its in-doc count ``tf`` —
    the per-batch Counter explode is the only text-sized pass."""

    def explode(batch: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for i, t in zip(batch[id_column].to_pylist(), batch[text_column].to_pylist()):
            for term, n in Counter(WORD_RE.findall(t or "")).items():
                ids.append(i)
                terms.append(term)
                tfs.append(n)
        return pa.table(
            {
                id_column: pa.array(ids, type=batch.schema.field(id_column).type),
                "term": pa.array(terms, type=pa.string()),
                "tf": pa.array(tfs, type=pa.int64()),
            }
        )

    return docs.map_batches(explode, batch_format="pyarrow")


def tfidf_topk(
    docs: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    k: int = 3,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Top-``k`` most characteristic terms per document by ``tf / df``,
    deterministic tie-break on the term.  Output: ``(id, term, tf, df,
    rank)`` — integer columns only, so oracle comparison is exact."""
    tf = term_frequencies(docs, text_column, id_column)

    # ONE term-sharded exchange replaces the df-aggregate + tf⋈df join
    # pair: after sharding on the term, every (doc, term, tf) row of a
    # term is co-located, so its document frequency is simply the term's
    # row count inside the shard (tf rows are distinct per doc) — the
    # join would re-shuffle the same rows on the same key to attach a
    # value that is already derivable in place.  This also runs the
    # text-sized explode once instead of twice (two consumers of a lazy
    # Dataset re-execute it).
    def attach_df(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(df=g.groupby("term", sort=False)["tf"].transform("size"))
        g["df"] = g["df"].astype("int64")
        return g

    joined = sharded_groupby_apply(tf, ["term"], attach_df, num_shards=num_shards)

    def score(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.append_column(
            "score",
            pc.divide(
                pc.cast(batch["tf"], pa.float64()), pc.cast(batch["df"], pa.float64())
            ),
        )

    ranked = group_topk(
        joined.map_batches(score, batch_format="pyarrow"),
        keys=[id_column],
        value_column="score",
        k=k,
        tiebreak=["term"],
        num_shards=num_shards,
    )
    return ranked.select_columns([id_column, "term", "tf", "df", "rank"])
