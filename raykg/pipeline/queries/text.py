"""Text analysis and training-data preparation over documents.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ...ops import text as text_ops
from ._shared import QUERIES, ORACLE_SQL


def q_profile(sf_dir: str):
    """Column profile of the documents table (counts / nulls / exact
    distinct / lexicographic extremes) — `ops/profile.py`; reads only the
    profiled columns."""
    from ...ops.profile import profile_columns

    cols = ["doc_id", "lang", "source"]
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)
    return profile_columns(ds, cols, num_shards=16)


CHUNK_SIZE, CHUNK_OVERLAP = 64, 16


def q_chunk_docs(sf_dir: str):
    """Context-window chunking of the documents table (64-token windows,
    16-token overlap) — stateless flat-map, no exchange (`ops/chunk.py`)."""
    from ...ops.chunk import chunk_documents

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return chunk_documents(ds, size=CHUNK_SIZE, overlap=CHUNK_OVERLAP)


BM25_TERMS = ["customer", "vector", "stream"]
BM25_K = 10


def q_bm25(sf_dir: str):
    """BM25 lexical retrieval over the documents table — `ops/bm25.py`
    with the rational-idf scoring (engine-exact arithmetic; see module
    docstring)."""
    from ...ops.bm25 import bm25_topk

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return bm25_topk(ds, BM25_TERMS, k=BM25_K, num_shards=16)


# --- training-data ops -----------------------------------------------------


def q_token_counts(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return text_ops.add_token_counts(docs).select_columns(["doc_id", "n_tokens"])


def q_quality(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return text_ops.add_quality(docs).select_columns(
        ["doc_id", "n_chars", "n_words", "n_distinct_words", "max_word_len", "quality_score"]
    )


def q_fingerprint(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return text_ops.add_fingerprints(docs).select_columns(["doc_id", "text_md5"])


def q_lang_id(sf_dir: str):
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return text_ops.add_lang_id(docs, concurrency=(1, 4)).select_columns(
        ["doc_id", "pred_lang"]
    )


def q_sample_det(sf_dir: str):
    """Deterministic 20% sample — md5-percentile keyed, reproducible in SQL."""
    from ...ops.sample import deterministic_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return deterministic_sample(docs, "doc_id", pct=20)


def q_sample_stratified(sf_dir: str):
    """Per-language rates: downsample 'en' to 25%, keep the rest whole."""
    from ...ops.sample import stratified_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return stratified_sample(docs, "doc_id", "lang", rates={"en": 25})


def q_ngram_top(sf_dir: str):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return text_ops.ngram_counts(docs, n=3, top=50)


HH_MIN_COUNT = 200


def q_heavy_tokens(sf_dir: str):
    """Exact iceberg query over the corpus vocabulary: tokens occurring
    >= 200 times — `ops/sketch.heavy_hitters` (one Count-Min fold bounds
    every frequency from above, then a candidate-only exact-count pass;
    the exchange carries O(N/T) keys, never the whole vocabulary)."""
    from ...ops.sketch import heavy_hitters

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        import re

        rx = re.compile(r"\S+")
        out = [t for s in df["text"].fillna("") for t in rx.findall(s)]
        return pd.DataFrame({"tok": pd.Series(out, dtype=str)})

    tokens = docs.map_batches(explode, batch_format="pandas")
    hh = heavy_hitters(
        tokens, "tok", min_count=HH_MIN_COUNT, num_shards=16
    )
    return hh.map_batches(
        lambda df: pa.table(
            {
                "tok": pa.array(df["key"], type=pa.string()),
                "n": pa.array(df["n"], type=pa.int64()),
            }
        ),
        batch_format="pandas",
    )


CURRICULUM_BUCKETS = 10


def q_curriculum(sf_dir: str):
    """Curriculum bucketing: a GLOBAL NTILE(10) over documents ordered
    by length (short-to-long training schedule) — `ops/index.
    zip_with_index` provides the dense global rank (one range sort +
    block-offset tasks), then the SQL NTILE split is pure arithmetic on
    the rank; no second exchange."""
    from ...ops.index import zip_with_index

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def key(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = pc.add(
            pc.multiply(
                pc.cast(batch["n_chars"], pa.int64()),
                pa.scalar(1 << 40, type=pa.int64()),
            ),
            pc.cast(batch["doc_id"], pa.int64()),
        )
        return pa.table({"doc_id": batch["doc_id"], "k": k})

    keyed = docs.map_batches(key, batch_format="pyarrow")
    n = docs.count()
    ranked = zip_with_index(keyed, sort_key="k", id_col="rank")
    kb = CURRICULUM_BUCKETS
    q, r = n // kb, n % kb
    big = (q + 1) * r  # rows covered by the larger buckets

    def bucket(batch: pa.Table) -> pa.Table:
        rank = batch["rank"].to_numpy(zero_copy_only=False)
        b = np.where(
            rank < big,
            rank // (q + 1) + 1,
            r + (rank - big) // max(q, 1) + 1 if q else r,
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(b.astype(np.int64), type=pa.int64()),
            }
        )

    return ranked.map_batches(bucket, batch_format="pyarrow")


MASK_RATE = 15  # percent of token positions


def q_mlm_pairs(sf_dir: str):
    """Masked-LM training-pair generation: every token position masks
    independently at 15% via the corpus-auditable md5 idiom
    (``md5(doc_id:pos) % 100 < 15`` — reproducible on any engine and
    stable under corpus growth, the `ops/sample.py` contract), emitting
    (doc_id, masked text, 'pos:token' labels).  Stateless per-batch map,
    zero exchange; hashing is per token position, the same cost class as
    the md5-percentile samplers."""
    import hashlib

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def mask(df: pd.DataFrame) -> pa.Table:
        import re

        rx = re.compile(r"\S+")
        out_id, out_text, out_labels = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = rx.findall(text or "")
            masked, labels = [], []
            for i, tok in enumerate(toks):
                h = int(
                    hashlib.md5(f"{doc_id}:{i}".encode()).hexdigest()[:15],
                    16,
                )
                if h % 100 < MASK_RATE:
                    masked.append("[MASK]")
                    labels.append(f"{i}:{tok}")
                else:
                    masked.append(tok)
            out_id.append(doc_id)
            out_text.append(" ".join(masked))
            out_labels.append(",".join(labels))
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "masked": pa.array(out_text, type=pa.string()),
                "labels": pa.array(out_labels, type=pa.string()),
            }
        )

    return docs.map_batches(mask, batch_format="pandas")


def q_bpe_pairs(sf_dir: str):
    """BPE vocabulary-induction pair statistics: global adjacent-character
    pair counts over \\S+ words of the documents corpus (round 0 of BPE
    training).  The per-batch kernel is a vectorized uint32-codepoint
    pass; the oracle mirrors word extraction and per-word substr pairs
    exactly."""
    from raykg.ops import bpe as bpe_ops

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return bpe_ops.pair_counts(docs)


DECONTAM_N = 4  # word-gram size: 13 in production pipelines; 4 keeps the
DECONTAM_MOD = 13  # tiny-vocabulary sf corpora non-vacuous (test set = docs
#                    with doc_id % 13 == 0, held out of the corpus side)


def q_decontam(sf_dir: str):
    """Test-set decontamination: corpus docs surviving n-gram overlap
    removal against the held-out eval slice."""
    from ...ops.decontam import decontaminate

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def _slice(held_out: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy()
            m = ids % DECONTAM_MOD == 0
            return batch.filter(pa.array(m if held_out else ~m))

        return fn

    corpus = docs.map_batches(_slice(False), batch_format="pyarrow")
    testset = docs.map_batches(_slice(True), batch_format="pyarrow")
    return decontaminate(corpus, testset, n=DECONTAM_N).select_columns(["doc_id"])


def q_redact(sf_dir: str):
    """PII redaction over a deterministically PII-injected corpus (the sf
    documents carry no emails/phones, so the query plants them from doc_id
    identically on both engines, then redacts)."""
    import pyarrow.compute as pc

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def inject(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].combine_chunks() if isinstance(
            batch["doc_id"], pa.ChunkedArray
        ) else batch["doc_id"]
        idstr = pc.cast(ids, pa.string())
        pad = pc.utf8_lpad(
            pc.cast(
                pa.array(ids.to_numpy(zero_copy_only=False) % 10000), pa.string()
            ),
            4,
            "0",
        )
        n = batch.num_rows
        pii = pc.binary_join_element_wise(
            pa.array(["doc "] * n), idstr, pa.array([": "] * n),
            batch["text"],
            pa.array([" contact user"] * n), idstr,
            pa.array(["@example.com or call 415-555-"] * n), pad,
            pa.array([""] * n),  # separator
        )
        return pa.table({"doc_id": ids, "text": pii})

    return text_ops.redact(
        docs.map_batches(inject, batch_format="pyarrow")
    ).select_columns(["doc_id", "text"])


def q_repetition(sf_dir: str):
    """Gopher-style repetition metrics per document."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return docs.map_batches(
        lambda b: text_ops.repetition_batch(b), batch_format="pyarrow"
    ).select_columns(["doc_id", "top_word_pct", "top_bigram_pct", "dup_word_pct"])


def q_tfidf_top(sf_dir: str):
    """Top-3 characteristic terms per document by tf/df (exact-rank
    TF-IDF variant; see ops/tfidf.py for why the ratio, not log-idf)."""
    from ...ops.tfidf import tfidf_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return tfidf_topk(docs, k=3)


def q_doc_splits(sf_dir: str):
    """Deterministic train/val/test split assignment (80/10/10 on the
    md5 percentile of doc_id) — stateless map, reproducible across
    engines and cluster sizes."""
    from ...ops.sample import assign_splits

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return assign_splits(docs, "doc_id", bounds=(80, 90))


def q_lm_scores(sf_dir: str):
    """Corpus-bigram LM fluency score per document (mean conditional
    bigram probability under the corpus's own counts) — `ops/lm.py`;
    distributed counts + bucketed probability joins, rational arithmetic
    so the SQL oracle reproduces the scores."""
    from ...ops.lm import lm_score

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return lm_score(docs, num_shards=16)


INCR_PRIOR_MAX = 300
INCR_INC_MIN = 250


def q_incr_new_docs(sf_dir: str):
    """Incremental corpus processing: keep only increment docs whose text
    content hash is UNSEEN in the prior snapshot.  The windows overlap
    (prior = doc_id < 300, increment = doc_id >= 250) so the 50
    re-delivered docs are genuinely dropped by the hash membership test —
    the anti-join is exercised, not vacuous.  Only md5 hex strings cross
    the wire, never bodies; at corpus-scale priors swap the broadcast
    semi_join for `ops/join.bucketed_hash_join`."""
    import hashlib as _hl

    from ...ops.join import semi_join

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def with_hash(batch: pa.Table) -> pa.Table:
        hs = [
            _hl.md5((t or "").encode("utf-8")).hexdigest()
            for t in batch["text"].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "h": pa.array(hs, type=pa.string()),
            }
        )

    hashed = docs.map_batches(with_hash, batch_format="pyarrow")
    import pyarrow.compute as pc

    prior = hashed.map_batches(
        lambda b: b.filter(pc.less(b["doc_id"], INCR_PRIOR_MAX)),
        batch_format="pyarrow",
    )
    inc = hashed.map_batches(
        lambda b: b.filter(pc.greater_equal(b["doc_id"], INCR_INC_MIN)),
        batch_format="pyarrow",
    )
    return semi_join(inc, prior, on="h", anti=True).select_columns(
        ["doc_id", "lang"]
    )


def q_token_lift(sf_dir: str):
    """PMI-style association lift for co-occurring token pairs over the
    documents corpus — `ops/assoc.py` (df floor broadcast, doc-sharded
    pair expansion with per-shard partials, pair-sharded sum).  Lift is
    kept as the exact rational (n_docs * n_co) / (df_u * df_v) so the
    SQL mirror hash-matches (same idiom as BM25's rational idf)."""
    from ...ops.assoc import token_lift_pairs

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = token_lift_pairs(docs, min_df=50, min_co=25, num_shards=16)

    def typed(df):
        return pa.table(
            {
                "u": pa.array(df["u"], type=pa.string()),
                "v": pa.array(df["v"], type=pa.string()),
                "n_co": pa.array(df["n_co"], type=pa.int64()),
                "lift": pa.array(np.round(df["lift"], 8), type=pa.float64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_lang_sample(sf_dir: str):
    """Deterministic 5-doc sample per language (md5-ranked reservoir)."""
    from ...ops.sample import group_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return group_sample(docs, group_column="lang", key_column="doc_id", k=5)


PACK_CAPACITY = 256  # tokens per packed sequence; docs are <= ~100 tokens
PACK_SHARDS = 8
MIX_WEIGHTS = {"en": 0.5, "fr": 2.0, "de": 1.25, "es": 0.0, "zh": 1.0}


def q_pack_docs(sf_dir: str):
    """Sequence packing: greedy token-budget bin assignment per md5
    shard (deterministic, cluster-layout-invariant)."""
    from ...ops.pack import pack_bins

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return pack_bins(docs, capacity=PACK_CAPACITY, num_shards=PACK_SHARDS)


def q_mix_langs(sf_dir: str):
    """Deterministic mixture resampling: replicate/downsample per-language
    slices to a target weight (es dropped, fr doubled, en halved, ...)."""
    from ...ops.pack import mix_weighted

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    return mix_weighted(docs, MIX_WEIGHTS)


QUALITY_GATE_Q = 0.25


def q_quality_gate(sf_dir: str):
    """Per-language quality gate: drop each language's shortest quartile
    (n_chars below the per-lang discrete p25) — exact two-pass
    quantile-threshold filter (`ops/sample.py:group_quantile_filter`)."""
    from ...ops.sample import group_quantile_filter

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return group_quantile_filter(docs, "lang", "n_chars", QUALITY_GATE_Q)
QUERIES["heavy_tokens"] = q_heavy_tokens
QUERIES["mlm_pairs"] = q_mlm_pairs
QUERIES["curriculum"] = q_curriculum
QUERIES["profile"] = q_profile
QUERIES["chunk_docs"] = q_chunk_docs
QUERIES["bm25_top"] = q_bm25
QUERIES["doc_splits"] = q_doc_splits
QUERIES["lm_scores"] = q_lm_scores
QUERIES["incr_new_docs"] = q_incr_new_docs
QUERIES["token_lift"] = q_token_lift
QUERIES["token_counts"] = q_token_counts
QUERIES["quality"] = q_quality
QUERIES["fingerprint"] = q_fingerprint
QUERIES["lang_id"] = q_lang_id
QUERIES["sample_det"] = q_sample_det
QUERIES["sample_stratified"] = q_sample_stratified
QUERIES["ngram_top"] = q_ngram_top
QUERIES["bpe_pairs"] = q_bpe_pairs
QUERIES["decontam"] = q_decontam
QUERIES["redact"] = q_redact
QUERIES["repetition"] = q_repetition
QUERIES["tfidf_top"] = q_tfidf_top
QUERIES["lang_sample"] = q_lang_sample
QUERIES["pack_docs"] = q_pack_docs
QUERIES["mix_langs"] = q_mix_langs
QUERIES["quality_gate"] = q_quality_gate
ORACLE_SQL["token_counts"] = r"""
        SELECT doc_id,
               CAST(len(regexp_extract_all(text, '\w+|[^\w\s]')) AS BIGINT) AS n_tokens
        FROM documents
    """
ORACLE_SQL["quality"] = r"""
        WITH w AS (SELECT doc_id, text, regexp_extract_all(text, '\S+') AS words
                   FROM documents)
        SELECT doc_id,
               CAST(length(text) AS BIGINT) AS n_chars,
               CAST(len(words) AS BIGINT) AS n_words,
               CAST(len(list_distinct(words)) AS BIGINT) AS n_distinct_words,
               CAST(COALESCE(list_max(list_transform(words, x -> length(x))), 0) AS BIGINT)
                   AS max_word_len,
               CAST(CASE WHEN len(words) = 0 THEN 0
                    ELSE (100 * len(list_distinct(words))) // len(words) END AS BIGINT)
                   AS quality_score
        FROM w
    """
ORACLE_SQL["fingerprint"] = """
        SELECT doc_id, md5(text) AS text_md5 FROM documents
    """
ORACLE_SQL["lang_id"] = """
        WITH w AS (SELECT doc_id, str_split(lower(text), ' ') AS ws FROM documents),
        profiles(lang, prio, stops) AS (VALUES
          ('en', 0, ['the','a','of','and','to','in','is','that','it','for']),
          ('fr', 1, ['le','la','les','de','des','et','un','une','est','que']),
          ('de', 2, ['der','die','das','und','ist','ein','eine','zu','den','nicht']),
          ('es', 3, ['el','la','los','de','y','un','una','es','que','en']),
          ('it', 4, ['il','la','di','e','un','una','che','per','con','del']),
          ('pt', 5, ['o','a','os','de','e','um','uma','que','em','para'])),
        s AS (SELECT w.doc_id, p.lang, p.prio,
                     len(list_filter(w.ws, x -> list_contains(p.stops, x))) AS score
              FROM w, profiles p)
        SELECT doc_id, lang AS pred_lang FROM s
        QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, prio) = 1
    """


# bpe_pairs: per-word adjacent character pairs — identical to the engine's
# whitespace-masked codepoint-pair pass (pairs never straddle \S+ words)
ORACLE_SQL["bpe_pairs"] = r"""
    WITH w AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS word
               FROM documents),
    p AS (SELECT substr(word, i, 1) AS sym_a, substr(word, i + 1, 1) AS sym_b
          FROM w, unnest(generate_series(1, len(word) - 1)) AS t(i))
    SELECT sym_a, sym_b, CAST(count(*) AS BIGINT) AS cnt
    FROM p GROUP BY 1, 2
"""

# the md5-percentile keying is the documented cross-engine contract of
# ops/sample.py — the SQL below reproduces the EXACT subset
_MD5_PCT = "(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))::UBIGINT % 100)"
ORACLE_SQL["sample_det"] = f"""
    SELECT doc_id, lang FROM documents WHERE {_MD5_PCT} < 20
"""
ORACLE_SQL["sample_stratified"] = f"""
    SELECT doc_id, lang FROM documents
    WHERE {_MD5_PCT} < CASE WHEN lang = 'en' THEN 25 ELSE 100 END
"""

ORACLE_SQL["ngram_top"] = r"""
    WITH w AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
    g AS (SELECT unnest(CASE WHEN len(ws) >= 3 THEN list_transform(
                     generate_series(1, len(ws) - 2),
                     i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                 ELSE [] END) AS ngram
          FROM w)
    SELECT ngram, CAST(COUNT(*) AS BIGINT) AS n
    FROM g GROUP BY 1 ORDER BY n DESC, ngram LIMIT 50
"""

# decontamination: word n-grams in SQL via list slicing (same '\S+'-split
# as Python .split()); a corpus doc is contaminated iff it shares a gram
# with the held-out doc_id % MOD == 0 slice
ORACLE_SQL["decontam"] = rf"""
    WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws
               FROM documents),
    g AS (SELECT doc_id,
                 array_to_string(ws[i:i+{DECONTAM_N - 1}], ' ') AS gram
          FROM w, UNNEST(generate_series(1, len(ws) - {DECONTAM_N - 1})) t(i)
          WHERE len(ws) >= {DECONTAM_N}),
    test_g AS (SELECT DISTINCT gram FROM g WHERE doc_id % {DECONTAM_MOD} = 0),
    dirty AS (SELECT DISTINCT g.doc_id FROM g JOIN test_g USING (gram)
              WHERE g.doc_id % {DECONTAM_MOD} <> 0)
    SELECT doc_id FROM documents
    WHERE doc_id % {DECONTAM_MOD} <> 0 AND doc_id NOT IN (SELECT doc_id FROM dirty)
"""

# redaction: identical PII injection, then the SAME RE2 rules in the same
# order (both engines are RE2, so the patterns are shared verbatim)
ORACLE_SQL["redact"] = r"""
    WITH pii AS (SELECT doc_id,
                        'doc ' || CAST(doc_id AS VARCHAR) || ': ' || text ||
                        ' contact user' || CAST(doc_id AS VARCHAR) ||
                        '@example.com or call 415-555-' ||
                        lpad(CAST(doc_id % 10000 AS VARCHAR), 4, '0') AS text
                 FROM documents)
    SELECT doc_id,
           regexp_replace(
             regexp_replace(
               regexp_replace(text,
                 '[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
               '\d{3}-\d{3}-\d{4}', '<PHONE>', 'g'),
             '\b\d+\b', '<NUM>', 'g') AS text
    FROM pii
"""

# Gopher-rule repetition metrics: same '\S+' word split as the Python op,
# integer floor-division percentages so values compare exactly
ORACLE_SQL["repetition"] = r"""
    WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS ws
               FROM documents),
    g1 AS (SELECT doc_id, ws[i] AS word
           FROM w, UNNEST(generate_series(1, len(ws))) t(i)),
    wc AS (SELECT doc_id, MAX(n) AS mw, CAST(SUM(n) AS BIGINT) AS nw,
                  COUNT(*) AS nd
           FROM (SELECT doc_id, word, COUNT(*) AS n FROM g1 GROUP BY 1, 2)
           GROUP BY 1),
    g2 AS (SELECT doc_id, array_to_string(ws[i:i+1], ' ') AS bigram
           FROM w, UNNEST(generate_series(1, len(ws) - 1)) t(i)
           WHERE len(ws) >= 2),
    bc AS (SELECT doc_id, MAX(n) AS mb
           FROM (SELECT doc_id, bigram, COUNT(*) AS n FROM g2 GROUP BY 1, 2)
           GROUP BY 1)
    SELECT d.doc_id,
           CAST(COALESCE((100 * wc.mw) // wc.nw, 0) AS BIGINT) AS top_word_pct,
           CAST(COALESCE((100 * bc.mb) // (wc.nw - 1), 0) AS BIGINT) AS top_bigram_pct,
           CAST(COALESCE((100 * (wc.nw - wc.nd)) // wc.nw, 0) AS BIGINT) AS dup_word_pct
    FROM documents d
    LEFT JOIN wc ON d.doc_id = wc.doc_id
    LEFT JOIN bc ON d.doc_id = bc.doc_id
"""

# tf/df-ranked keyword extraction (integer-exact: the score is a ratio of
# small ints, identically ordered in IEEE doubles on both engines)
ORACLE_SQL["tfidf_top"] = r"""
    WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS ws
               FROM documents),
    g AS (SELECT doc_id, ws[i] AS term
          FROM w, UNNEST(generate_series(1, len(ws))) t(i)),
    tf AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
           FROM g GROUP BY 1, 2),
    df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM tf GROUP BY 1),
    r AS (SELECT tf.doc_id, tf.term, tf.tf, df.df,
                 ROW_NUMBER() OVER (
                     PARTITION BY tf.doc_id
                     ORDER BY CAST(tf.tf AS DOUBLE) / df.df DESC, tf.term ASC
                 ) AS rank
          FROM tf JOIN df USING (term))
    SELECT doc_id, term, tf, df, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 3
"""

# deterministic per-group reservoir: identical md5-60bit rank key
ORACLE_SQL["lang_sample"] = """
    WITH h AS (SELECT doc_id, lang,
                      CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                           AS BIGINT) AS h
               FROM documents),
    r AS (SELECT doc_id, lang,
                 CAST(ROW_NUMBER() OVER (PARTITION BY lang ORDER BY h, doc_id)
                      AS BIGINT) AS rank
          FROM h)
    SELECT doc_id, lang, rank FROM r WHERE rank <= 5
"""


# sequence packing: the greedy within-shard walk is a RECURSIVE CTE
# advancing every shard one doc per iteration (depth = max docs/shard)
ORACLE_SQL["pack_docs"] = rf"""
    WITH RECURSIVE
    w AS (SELECT doc_id,
                 CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tok,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))
                      AS BIGINT) % {PACK_SHARDS} AS shard
          FROM documents),
    d AS (SELECT doc_id, shard, n_tok,
                 ROW_NUMBER() OVER (PARTITION BY shard ORDER BY doc_id) AS rn
          FROM w),
    walk AS (
      SELECT doc_id, shard, n_tok, rn, CAST(0 AS BIGINT) AS bin, n_tok AS fill
      FROM d WHERE rn = 1
      UNION ALL
      SELECT d.doc_id, d.shard, d.n_tok, d.rn,
             CASE WHEN w2.fill + d.n_tok > {PACK_CAPACITY}
                  THEN w2.bin + 1 ELSE w2.bin END,
             CASE WHEN w2.fill + d.n_tok > {PACK_CAPACITY}
                  THEN d.n_tok ELSE w2.fill + d.n_tok END
      FROM d JOIN walk w2 ON d.shard = w2.shard AND d.rn = w2.rn + 1)
    SELECT doc_id, shard, bin, n_tok FROM walk
"""

_MIX_VALUES = ", ".join(
    f"('{lang}', {int(w)}, {int(round((w - int(w)) * 100))})"
    for lang, w in MIX_WEIGHTS.items()
)
ORACLE_SQL["mix_langs"] = f"""
    WITH wts(lang, whole, fpct) AS (VALUES {_MIX_VALUES}),
    b AS (SELECT doc_id, d.lang, whole, fpct,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                      AS BIGINT) % 100 AS p
          FROM documents d JOIN wts USING (lang)),
    c AS (SELECT doc_id, lang,
                 whole + CASE WHEN p < fpct THEN 1 ELSE 0 END AS n
          FROM b)
    SELECT doc_id, lang, CAST(t.c AS BIGINT) AS copy
    FROM c, UNNEST(generate_series(1, n)) t(c)
"""

ORACLE_SQL["curriculum"] = f"""
    SELECT doc_id,
           CAST(NTILE({CURRICULUM_BUCKETS})
                OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS bucket
    FROM documents
"""

ORACLE_SQL["mlm_pairs"] = rf"""
    WITH w AS (SELECT doc_id,
                      regexp_extract_all(COALESCE(text, ''), '\S+') AS ws
               FROM documents),
    g AS (SELECT doc_id, i, ws[i] AS tok,
                 CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':'
                       || CAST(i - 1 AS VARCHAR)), 1, 15)) AS BIGINT)
                 % 100 < {MASK_RATE} AS m
          FROM w, UNNEST(generate_series(1, len(ws))) t(i)),
    agg AS (SELECT doc_id,
                   string_agg(CASE WHEN m THEN '[MASK]' ELSE tok END,
                              ' ' ORDER BY i) AS masked,
                   string_agg(CASE WHEN m
                                   THEN CAST(i - 1 AS VARCHAR) || ':' || tok
                              END, ',' ORDER BY i) AS labels
            FROM g GROUP BY doc_id)
    SELECT w.doc_id, COALESCE(agg.masked, '') AS masked,
           COALESCE(agg.labels, '') AS labels
    FROM w LEFT JOIN agg ON w.doc_id = agg.doc_id
"""

ORACLE_SQL["heavy_tokens"] = rf"""
    WITH w AS (SELECT unnest(regexp_extract_all(COALESCE(text, ''), '\S+'))
                      AS tok
               FROM documents)
    SELECT tok, CAST(COUNT(*) AS BIGINT) AS n
    FROM w GROUP BY tok HAVING COUNT(*) >= {HH_MIN_COUNT}
"""

_PROFILE_COL_SQL = """
    SELECT '{c}' AS "column", COUNT(*) AS n_rows,
           COUNT(*) - COUNT({c}) AS n_null,
           COUNT(DISTINCT {c}) AS n_distinct,
           MIN(CAST({c} AS VARCHAR)) AS min_str,
           MAX(CAST({c} AS VARCHAR)) AS max_str
    FROM documents
"""
ORACLE_SQL["profile"] = " UNION ALL ".join(
    _PROFILE_COL_SQL.format(c=c) for c in ("doc_id", "lang", "source")
)

_CHUNK_STRIDE = CHUNK_SIZE - CHUNK_OVERLAP
ORACLE_SQL["chunk_docs"] = f"""
    WITH t AS (SELECT doc_id,
                      list_filter(string_split_regex(trim(text), '\\s+'),
                                  x -> x <> '') AS toks
               FROM documents),
    n AS (SELECT doc_id, toks, len(toks) AS n_tok FROM t)
    SELECT doc_id, i AS chunk_idx, i * {_CHUNK_STRIDE} AS tok_start,
           least({CHUNK_SIZE}, n_tok - i * {_CHUNK_STRIDE}) AS tok_len,
           array_to_string(
               toks[i * {_CHUNK_STRIDE} + 1 : i * {_CHUNK_STRIDE} + {CHUNK_SIZE}],
               ' ') AS chunk
    FROM n, UNNEST(generate_series(
        0, CAST(ceil(n_tok / {_CHUNK_STRIDE}.0) AS BIGINT))) s(i)
    WHERE i * {_CHUNK_STRIDE} < n_tok
"""

_BM25_IN = ", ".join(f"'{t}'" for t in BM25_TERMS)
ORACLE_SQL["bm25_top"] = rf"""
    WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS ws
               FROM documents),
    st AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n,
                  CAST(SUM(len(ws)) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS avgdl
           FROM w),
    g AS (SELECT doc_id, ws[i] AS term, len(ws) AS dl
          FROM w, UNNEST(generate_series(1, len(ws))) t(i)),
    tf AS (SELECT doc_id, term, dl, CAST(COUNT(*) AS BIGINT) AS tf
           FROM g WHERE term IN ({_BM25_IN}) GROUP BY 1, 2, 3),
    df AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY 1),
    sc AS (SELECT tf.doc_id,
                  SUM(((SELECT n FROM st) - df.df + 0.5) / (df.df + 0.5)
                      * (CAST(tf.tf AS DOUBLE) * (1.5 + 1.0))
                      / (CAST(tf.tf AS DOUBLE)
                         + 1.5 * ((1.0 - 0.75)
                                  + 0.75 * (CAST(tf.dl AS DOUBLE)
                                            / (SELECT avgdl FROM st))))) AS s
           FROM tf JOIN df USING (term) GROUP BY 1)
    SELECT doc_id, round(s, 6) AS score
    FROM sc ORDER BY round(s, 6) DESC, doc_id LIMIT 10
"""

ORACLE_SQL["doc_splits"] = f"""
    SELECT doc_id, lang,
           CASE WHEN {_MD5_PCT} < 80 THEN 'train'
                WHEN {_MD5_PCT} < 90 THEN 'val'
                ELSE 'test' END AS split
    FROM documents
"""

ORACLE_SQL["lm_scores"] = r"""
    WITH w AS (SELECT doc_id, regexp_extract_all(COALESCE(text, ''), '\S+') AS ws
               FROM documents),
    bg AS (SELECT doc_id, ws[i] AS w1, ws[i+1] AS w2
           FROM w, UNNEST(generate_series(1, len(ws) - 1)) t(i)),
    c12 AS (SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS c12 FROM bg GROUP BY 1, 2),
    c1 AS (SELECT w1, CAST(SUM(c12) AS BIGINT) AS c1 FROM c12 GROUP BY 1),
    db AS (SELECT doc_id, w1, w2, CAST(COUNT(*) AS BIGINT) AS n
           FROM bg GROUP BY 1, 2, 3),
    s AS (SELECT db.doc_id,
                 SUM(CAST(db.n AS DOUBLE)
                     * (CAST(c12.c12 AS DOUBLE) / CAST(c1.c1 AS DOUBLE))) AS s,
                 SUM(CAST(db.n AS DOUBLE)) AS k
          FROM db JOIN c12 USING (w1, w2) JOIN c1 USING (w1)
          GROUP BY 1)
    SELECT doc_id, round(s / k, 6) AS lm_score FROM s
"""

ORACLE_SQL["token_lift"] = """
    WITH tok AS (
        SELECT DISTINCT doc_id, t.tok
        FROM documents, UNNEST(string_split(text, ' ')) AS t(tok)
        WHERE t.tok <> ''),
    df AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c
           FROM tok GROUP BY tok),
    voc AS (SELECT tok, c FROM df WHERE c >= 50),
    vt AS (SELECT t.doc_id, t.tok FROM tok t
           JOIN voc ON voc.tok = t.tok),
    pairs AS (
        SELECT a.tok AS u, b.tok AS v, CAST(COUNT(*) AS BIGINT) AS c
        FROM vt a JOIN vt b
          ON a.doc_id = b.doc_id AND a.tok < b.tok
        GROUP BY a.tok, b.tok
        HAVING COUNT(*) >= 25),
    n AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM documents)
    SELECT p.u, p.v, p.c AS n_co,
           round((SELECT n FROM n) * p.c / (du.c * dv.c), 8) AS lift
    FROM pairs p
    JOIN voc du ON du.tok = p.u
    JOIN voc dv ON dv.tok = p.v
"""

ORACLE_SQL["incr_new_docs"] = f"""
    WITH prior AS (SELECT md5(text) AS h FROM documents
                   WHERE doc_id < {INCR_PRIOR_MAX}),
    inc AS (SELECT doc_id, lang, md5(text) AS h FROM documents
            WHERE doc_id >= {INCR_INC_MIN})
    SELECT doc_id, lang FROM inc
    WHERE h NOT IN (SELECT h FROM prior)
"""

ORACLE_SQL["quality_gate"] = f"""
    WITH thr AS (SELECT lang, quantile_disc(n_chars, {QUALITY_GATE_Q}) AS q
                 FROM documents GROUP BY lang)
    SELECT d.doc_id, d.lang, d.n_chars
    FROM documents d JOIN thr USING (lang)
    WHERE d.n_chars >= thr.q
"""


def q_readability(sf_dir: str):
    """Flesch reading-ease per document — the classical corpus quality
    score from three integer regex counts (words, sentences,
    vowel-group syllables with a 1-per-word floor) over the lowercased
    text; one fixed float evaluation tree so the SQL mirror sees
    bit-identical doubles (`ops/text.readability_batch`).  Stateless,
    embarrassingly parallel, no exchange."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def fn(batch: pa.Table) -> pa.Table:
        return text_ops.readability_batch(batch, "text").drop_columns(
            ["text"]
        )

    return docs.map_batches(fn, batch_format="pyarrow")


QUERIES["readability"] = q_readability
ORACLE_SQL["readability"] = """
    WITH c AS (SELECT doc_id,
                      length(regexp_extract_all(lower(text), '[a-z]+'))
                          AS w,
                      GREATEST(1, length(regexp_extract_all(lower(text),
                          '[.!?]+'))) AS s,
                      length(regexp_extract_all(lower(text), '[aeiouy]+'))
                          + (length(regexp_extract_all(lower(text),
                                 '[a-z]+'))
                             - length(regexp_extract_all(lower(text),
                                 '[a-z]*[aeiouy][a-z]*'))) AS sy
               FROM documents)
    SELECT doc_id, CAST(w AS BIGINT) AS n_words,
           CAST(s AS BIGINT) AS n_sentences,
           CAST(sy AS BIGINT) AS n_syllables,
           ROUND(206.835 - 1.015 * (w * 1.0 / s)
                 - 84.6 * (sy * 1.0 / w), 6) AS flesch
    FROM c WHERE w > 0
"""


def q_token_zipf(sf_dir: str):
    """Zipf's-law fit over the corpus vocabulary: OLS of ln(frequency)
    on ln(tie-averaged rank) — slope ~ -1 is the natural-language
    signature; drift flags synthetic or degenerate corpora.  One
    hash(token) count exchange, one vocab-table sort for ranks, then
    streaming log-moment partials (`ops/zipf.py`)."""
    from ...ops.zipf import zipf_fit

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    return zipf_fit(docs, "text")


QUERIES["token_zipf"] = q_token_zipf
ORACLE_SQL["token_zipf"] = r"""
    WITH w AS (SELECT unnest(regexp_extract_all(COALESCE(text, ''),
                                                '\S+')) AS tok
               FROM documents),
    c AS (SELECT tok, COUNT(*) * 1.0 AS f FROM w GROUP BY tok),
    cc AS (SELECT f, COUNT(*) AS m FROM c GROUP BY f),
    ccw AS (SELECT f, m,
                   COALESCE(SUM(m) OVER (ORDER BY f DESC
                            ROWS BETWEEN UNBOUNDED PRECEDING
                            AND 1 PRECEDING), 0) AS gt
            FROM cc),
    r AS (SELECT c.tok, c.f, ccw.gt + (ccw.m + 1) / 2.0 AS rnk
          FROM c JOIN ccw USING (f)),
    m AS (SELECT COUNT(*) * 1.0 AS n, SUM(LN(rnk)) AS sx,
                 SUM(LN(f)) AS sy, SUM(LN(rnk) * LN(rnk)) AS sxx,
                 SUM(LN(rnk) * LN(f)) AS sxy
          FROM r)
    SELECT CAST(m.n AS BIGINT) AS n_tokens,
           ROUND((m.n * m.sxy - m.sx * m.sy)
                 / (m.n * m.sxx - m.sx * m.sx), 6) AS slope,
           ROUND((m.sy - ((m.n * m.sxy - m.sx * m.sy)
                 / (m.n * m.sxx - m.sx * m.sx)) * m.sx) / m.n, 6)
               AS intercept
    FROM m
"""


def q_source_card(sf_dir: str):
    """Per-source data card — the corpus datasheet row a training-data
    pipeline publishes per provenance: doc count, total chars/tokens,
    floor-integer mean quality (x100), language count and majority
    language.  Per-batch (source, lang) cell partials (bounded: sources
    x languages), one bounded groupby, integer-only arithmetic."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["source", "lang", "text"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        q = text_ops.quality_batch(batch, "text")
        tok = text_ops.token_count_batch(batch, "text")
        df = pd.DataFrame(
            {
                "source": batch["source"].to_pylist(),
                "lang": batch["lang"].to_pylist(),
                "chars": q["n_chars"].to_numpy(zero_copy_only=False),
                "toks": tok["n_tokens"].to_numpy(zero_copy_only=False),
                "qs": q["quality_score"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["source", "lang"], sort=False).agg(
            n=("qs", "size"), ch=("chars", "sum"), tk=("toks", "sum"),
            qsum=("qs", "sum"),
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    cells = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .sum(["n", "ch", "tk", "qsum"])
        .to_pandas()
        .rename(columns={"sum(n)": "n", "sum(ch)": "ch",
                         "sum(tk)": "tk", "sum(qsum)": "qsum"})
    )
    per = cells.groupby("source").agg(
        n_docs=("n", "sum"), total_chars=("ch", "sum"),
        total_tokens=("tk", "sum"), qsum=("qsum", "sum"),
        n_langs=("lang", "nunique"),
    )
    per["avg_quality_x100"] = (100 * per["qsum"]) // per["n_docs"]
    top = (
        cells.sort_values(["source", "n", "lang"],
                          ascending=[True, False, True])
        .drop_duplicates("source")
        .set_index("source")["lang"]
    )
    per["top_lang"] = top
    per = per.reset_index().sort_values("source")
    return pa.table(
        {
            "source": pa.array(per["source"], type=pa.string()),
            "n_docs": pa.array(per["n_docs"], type=pa.int64()),
            "total_chars": pa.array(per["total_chars"], type=pa.int64()),
            "total_tokens": pa.array(per["total_tokens"], type=pa.int64()),
            "avg_quality_x100": pa.array(per["avg_quality_x100"],
                                         type=pa.int64()),
            "n_langs": pa.array(per["n_langs"], type=pa.int64()),
            "top_lang": pa.array(per["top_lang"], type=pa.string()),
        }
    )


QUERIES["source_card"] = q_source_card
ORACLE_SQL["source_card"] = r"""
    WITH q AS (SELECT source, lang, length(text) AS chars,
                      len(regexp_extract_all(text, '\w+|[^\w\s]')) AS toks,
                      CASE WHEN len(regexp_extract_all(text, '\S+')) = 0
                           THEN 0
                           ELSE (100 * len(list_distinct(
                                    regexp_extract_all(text, '\S+'))))
                                // len(regexp_extract_all(text, '\S+'))
                      END AS score
               FROM documents),
    sl AS (SELECT source, lang, COUNT(*) AS n, SUM(chars) AS ch,
                  SUM(toks) AS tk, SUM(score) AS qs
           FROM q GROUP BY 1, 2),
    s AS (SELECT source, SUM(n) AS n_docs, SUM(ch) AS total_chars,
                 SUM(tk) AS total_tokens,
                 (100 * SUM(qs)) // SUM(n) AS avg_quality_x100,
                 COUNT(*) AS n_langs
          FROM sl GROUP BY 1),
    top AS (SELECT source, lang AS top_lang FROM sl
            QUALIFY row_number() OVER (PARTITION BY source
                                       ORDER BY n DESC, lang) = 1)
    SELECT s.source, CAST(n_docs AS BIGINT) AS n_docs,
           CAST(total_chars AS BIGINT) AS total_chars,
           CAST(total_tokens AS BIGINT) AS total_tokens,
           CAST(avg_quality_x100 AS BIGINT) AS avg_quality_x100,
           CAST(n_langs AS BIGINT) AS n_langs, top_lang
    FROM s JOIN top USING (source)
"""


BOILERPLATE_CHUNK_WORDS = 5
BOILERPLATE_MIN_DOCS = 2


def q_boilerplate(sf_dir: str):
    """CCNet-style cross-document boilerplate removal (the line-dedup
    cleaning stage of web-scale corpora): chunks of BOILERPLATE_CHUNK_WORDS
    consecutive words recurring in >= BOILERPLATE_MIN_DOCS distinct docs
    are dropped from every document, preserving chunk order.  One
    groupby(chunk) exchange for the frequency pass; the rewrite is a pure
    broadcast map under the 5M-chunk gate (bucketed-join fallback above —
    see ops/boilerplate.py)."""
    from ...ops.boilerplate import boilerplate_trim

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return boilerplate_trim(
        docs,
        id_column="doc_id",
        text_column="text",
        chunk_words=BOILERPLATE_CHUNK_WORDS,
        min_docs=BOILERPLATE_MIN_DOCS,
    )


QUERIES["boilerplate"] = q_boilerplate
ORACLE_SQL["boilerplate"] = f"""
    WITH W AS (SELECT doc_id, string_split(text, ' ') AS words
               FROM documents),
    L AS (SELECT doc_id,
                 CAST(i AS BIGINT) AS cidx,
                 array_to_string(
                     words[i * {BOILERPLATE_CHUNK_WORDS} + 1 :
                           i * {BOILERPLATE_CHUNK_WORDS}
                           + {BOILERPLATE_CHUNK_WORDS}], ' ') AS chunk
          FROM W,
               LATERAL (SELECT unnest(range(CAST(
                   ceil(len(words) / {BOILERPLATE_CHUNK_WORDS}.0)
                   AS BIGINT))) AS i) r),
    dup AS (SELECT chunk FROM L WHERE trim(chunk) <> ''
            GROUP BY chunk
            HAVING COUNT(DISTINCT doc_id) >= {BOILERPLATE_MIN_DOCS}),
    flagged AS (SELECT l.doc_id, l.cidx, l.chunk,
                       d.chunk IS NOT NULL AS isdup
                FROM L l LEFT JOIN dup d USING (chunk))
    SELECT doc_id,
           COALESCE(string_agg(chunk, ' ' ORDER BY cidx)
                        FILTER (WHERE NOT isdup), '') AS clean_text,
           CAST(COUNT(*) AS BIGINT) AS n_chunks,
           CAST(COUNT(*) FILTER (WHERE isdup) AS BIGINT) AS n_removed
    FROM flagged GROUP BY doc_id
"""


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): every document scored by
    how target-like (lang='en') its hashed-unigram distribution is, in
    exact int64 quantized-log arithmetic (ops/dsir.py — one bucket-table
    exchange, then a zero-exchange scoring stream)."""
    from ...ops.dsir import dsir_weights

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return dsir_weights(docs, target_column="lang", target_value="en")


QUERIES["dsir_weights"] = q_dsir_weights
ORACLE_SQL["dsir_weights"] = """
    WITH tok AS (SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                        lang = 'en' AS is_t FROM documents),
    tb AS (SELECT doc_id, is_t,
                  ('0x' || substr(md5(tok), 1, 8))::UBIGINT % 4096 AS b
           FROM tok),
    cnt AS (SELECT b, COUNT(*) FILTER (WHERE is_t) AS ct, COUNT(*) AS cr
            FROM tb GROUP BY b),
    tot AS (SELECT SUM(ct) AS t, SUM(cr) AS r FROM cnt),
    sc AS (SELECT b,
                  CAST(FLOOR(LN(CAST(ct + 1 AS DOUBLE)) * 1000000) AS BIGINT)
                - CAST(FLOOR(LN(CAST(cr + 1 AS DOUBLE)) * 1000000) AS BIGINT)
                      AS s
           FROM cnt),
    dw AS (SELECT tb.doc_id, CAST(COUNT(*) AS BIGINT) AS n_tokens,
                  CAST(SUM(s) AS BIGINT) AS sw
           FROM tb JOIN sc USING (b) GROUP BY tb.doc_id)
    SELECT doc_id, n_tokens,
           CAST(sw + n_tokens *
                (CAST(FLOOR(LN(CAST(r + 4096 AS DOUBLE)) * 1000000) AS BIGINT)
               - CAST(FLOOR(LN(CAST(t + 4096 AS DOUBLE)) * 1000000) AS BIGINT))
                AS BIGINT) AS dsir_w
    FROM dw, tot
"""


def q_ccnet_buckets(sf_dir: str):
    """CCNet-style head/middle/tail split (Wenzek et al. 2020): per
    language, documents rank by LM fluency (corpus-bigram score,
    `ops/lm.py`) and NTILE(3) into quality buckets — 1=head is the
    best-scoring third that CCNet keeps for training.  lang attaches via
    a bucketed hash join on doc_id (both sides corpus-scale); the split
    is NTILE(3) via rank-by-sort (`ops/window.py` rank kinds auto-route
    to `ops/rank.with_keyed_ranks`): one range-partitioned sort on
    (lang, -score, doc_id) — no worker ever holds a whole language,
    which the old lang-sharded plan required (terabytes per worker at
    100 TB).  Exact SQL NTILE semantics."""
    import pyarrow.compute as pc

    from ...ops.join import bucketed_hash_join
    from ...ops.lm import lm_score
    from ...ops.window import window_over

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    scores = lm_score(docs, num_shards=16)
    langs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    both = bucketed_hash_join(scores, langs, on="doc_id", num_buckets=32)

    def add_neg(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "neg_score", pc.negate(batch["lm_score"])
        )

    ranked = window_over(
        both.map_batches(add_neg, batch_format="pyarrow"),
        keys=["lang"], order_by=["neg_score", "doc_id"],
        specs=[("ntile", None, "bucket", 3)],
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": pc.cast(batch["doc_id"], pa.int64()),
             "lang": pc.cast(batch["lang"], pa.string()),
             "lm_score": pc.round(pc.cast(batch["lm_score"], pa.float64()), 6),
             "bucket": pc.cast(batch["bucket"], pa.int64())}
        )

    return ranked.map_batches(finish, batch_format="pyarrow")


QUERIES["ccnet_buckets"] = q_ccnet_buckets
_LM_SQL = ORACLE_SQL["lm_scores"]
ORACLE_SQL["ccnet_buckets"] = f"""
    WITH lm AS ({_LM_SQL})
    SELECT lm.doc_id, d.lang, lm.lm_score,
           CAST(NTILE(3) OVER (PARTITION BY d.lang
                               ORDER BY lm.lm_score DESC, lm.doc_id)
                AS BIGINT) AS bucket
    FROM lm JOIN documents d USING (doc_id)
"""


# ---------------------------------------------------------------------------
# Vocabulary richness per source: token totals, vocabulary size, and hapax
# legomena (tokens occurring exactly once) — corpus-quality signals for
# data-mixing decisions
# ---------------------------------------------------------------------------


def q_hapax_rate(sf_dir: str):
    """Per document source: exact token count, vocabulary size, and hapax
    count (tokens whose corpus-wide frequency within the source is
    exactly 1) — the vocabulary-richness profile that flags templated or
    machine-generated sources.

    Plan, scale notes: batches fold text to (source, token, n) cells
    vectorized (one split + one np.unique — no Python token loop), then
    ONE hash(source, token) exchange co-locates each token's cells;
    shards emit per-source 3-cell partials and the final groupby runs
    over the bounded source domain.  Token strings cross the wire once,
    pre-aggregated."""
    from ...ops.agg import sharded_groupby_apply

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )

    def cells(batch: pa.Table) -> pa.Table:
        src = batch["source"].to_pylist()
        txt = batch["text"].to_pylist()
        all_src, all_tok = [], []
        for s, t in zip(src, txt):
            toks = (t or "").split()
            all_src.extend([s] * len(toks))
            all_tok.extend(toks)
        if not all_tok:
            return pa.table(
                {"source": pa.array([], type=pa.string()),
                 "tok": pa.array([], type=pa.string()),
                 "n": pa.array([], type=pa.int64())}
            )
        df = pd.DataFrame({"source": all_src, "tok": all_tok})
        g = df.groupby(["source", "tok"], sort=False).size().reset_index(
            name="n")
        return pa.table(
            {"source": pa.array(g["source"], type=pa.string()),
             "tok": pa.array(g["tok"], type=pa.string()),
             "n": pa.array(g["n"].to_numpy().astype(np.int64))}
        )

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "tok"], sort=False)["n"].sum().reset_index()
        g["hapax"] = (g["n"] == 1).astype(np.int64)
        g["one"] = 1
        return g.groupby("source", as_index=False, sort=False).agg(
            n_tokens=("n", "sum"), n_vocab=("one", "sum"),
            n_hapax=("hapax", "sum"),
        )

    parts = sharded_groupby_apply(
        docs.map_batches(cells, batch_format="pyarrow"),
        ["source", "tok"], in_shard,
    )
    final = (
        parts.groupby("source")
        .sum(["n_tokens", "n_vocab", "n_hapax"])
        .to_pandas()
        .rename(columns={"sum(n_tokens)": "n_tokens",
                         "sum(n_vocab)": "n_vocab",
                         "sum(n_hapax)": "n_hapax"})
        .sort_values("source")
    )
    return pa.table(
        {"source": pa.array(final["source"], type=pa.string()),
         "n_tokens": pa.array(final["n_tokens"].to_numpy().astype(np.int64)),
         "n_vocab": pa.array(final["n_vocab"].to_numpy().astype(np.int64)),
         "n_hapax": pa.array(final["n_hapax"].to_numpy().astype(np.int64))}
    )


QUERIES["hapax_rate"] = q_hapax_rate
ORACLE_SQL["hapax_rate"] = r"""
    WITH toks AS (SELECT source, unnest(regexp_extract_all(text, '\S+'))
                      AS tok
                  FROM documents),
    tf AS (SELECT source, tok, COUNT(*) AS n FROM toks GROUP BY 1, 2)
    SELECT source,
           CAST(SUM(n) AS BIGINT) AS n_tokens,
           COUNT(*) AS n_vocab,
           CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax
    FROM tf GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
# Cross-source vocabulary drift: pairwise trigram-set Jaccard
# ---------------------------------------------------------------------------

VOCAB_OVERLAP_N = 3


def q_vocab_overlap(sf_dir: str):
    """Pairwise lexical-drift audit: Jaccard of each source pair's
    DISTINCT word-trigram sets.  No gram self-join — each gram carries a
    source BITMASK through one hash(gram) exchange and only (mask, count)
    histogram cells reach the driver, so cost is one vocabulary-sized
    exchange for ALL pairs (`ops/vocab.py`)."""
    from ...ops.vocab import gram_overlap

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "text"]
    )
    return gram_overlap(docs, "source", "text", n=VOCAB_OVERLAP_N)


QUERIES["vocab_overlap"] = q_vocab_overlap
ORACLE_SQL["vocab_overlap"] = r"""
    WITH w AS (SELECT source, regexp_extract_all(text, '\S+') AS ws
               FROM documents),
    b AS (SELECT DISTINCT source,
                 unnest(CASE WHEN len(ws) >= 3 THEN list_transform(
                     generate_series(1, len(ws) - 2),
                     i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2])
                 ELSE [] END) AS gram
          FROM w),
    sizes AS (SELECT source, COUNT(*) AS n FROM b GROUP BY 1),
    inter AS (SELECT x.source AS source_a, y.source AS source_b,
                     COUNT(*) AS inter
              FROM b x JOIN b y ON x.gram = y.gram AND x.source < y.source
              GROUP BY 1, 2)
    SELECT i.source_a, i.source_b, CAST(i.inter AS BIGINT) AS inter,
           CAST(sa.n + sb.n - i.inter AS BIGINT) AS union_n,
           ROUND(i.inter * 1.0 / (sa.n + sb.n - i.inter), 6) AS jaccard
    FROM inter i, sizes sa, sizes sb
    WHERE sa.source = i.source_a AND sb.source = i.source_b
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Per-doc duplicate-n-gram rate (novelty / memorization-risk QA)

DUPGRAM_N = 5


def q_dup_gram_rate(sf_dir: str):
    """Per-document duplicate-n-gram rate: the fraction of a doc's
    distinct DUPGRAM_N-grams that occur in >= 2 distinct documents —
    the per-doc diagnostic behind n-gram-overlap dedup (Lee et al.
    2022).  One hash-sharded exchange over 63-bit gram hashes
    (ops/novelty.py); gram text never moves."""
    from ...ops.novelty import dup_gram_rate

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return dup_gram_rate(docs, n=DUPGRAM_N)


QUERIES["dup_gram_rate"] = q_dup_gram_rate
ORACLE_SQL["dup_gram_rate"] = f"""
    WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
               FROM documents),
    g AS (SELECT doc_id,
                 CASE WHEN len(ws) >= {DUPGRAM_N} THEN
                          list_distinct(list_transform(
                              generate_series(1, len(ws) - {DUPGRAM_N - 1}),
                              i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]
                                   || ' ' || ws[i+3] || ' ' || ws[i+4]))
                      WHEN len(ws) > 0 THEN [array_to_string(ws, ' ')]
                      ELSE [] END AS gs
          FROM w),
    h AS (SELECT DISTINCT doc_id,
                 CAST(('0x' || substr(md5(unnest(gs)), 1, 16))::UBIGINT >> 1
                      AS BIGINT) AS fp
          FROM g),
    cnt AS (SELECT fp, COUNT(DISTINCT doc_id) AS nd FROM h GROUP BY fp)
    SELECT h.doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_grams,
           CAST(COUNT(*) FILTER (WHERE cnt.nd > 1) AS BIGINT) AS dup_grams,
           ROUND(COUNT(*) FILTER (WHERE cnt.nd > 1) * 1.0 / COUNT(*), 6)
               AS dup_rate
    FROM h JOIN cnt USING (fp)
    GROUP BY h.doc_id
"""


def q_mix_weights(sf_dir: str):
    """Temperature-based corpus mixing weights per language (the
    multilingual sampling scheme of Arivazhagan et al. 2019 / mT5):
    p_i ∝ n_i^(1/T) with T=2, i.e. sqrt — chosen because IEEE sqrt is
    correctly rounded everywhere, so quantizing floor(sqrt(n)*1e6) to
    int64 makes numerator AND denominator exact integers on both sides
    of the oracle.  Per-batch lang partials, one bounded groupby, O(langs)
    driver combine (the distinct-langs pre-flight shape)."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as _np

        langs, counts = _np.unique(
            _np.asarray(batch["lang"].to_pylist(), dtype=object), return_counts=True
        )
        return pa.table(
            {
                "lang": pa.array([str(x) for x in langs], type=pa.string()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    agg = (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values("lang")
    )
    n = agg["n"].to_numpy(np.int64)
    w = np.floor(np.sqrt(n.astype(np.float64)) * 1e6).astype(np.int64)
    total_n, total_w = int(n.sum()), int(w.sum())
    return pa.table(
        {
            "lang": pa.array(agg["lang"].tolist(), type=pa.string()),
            "n_docs": pa.array(n),
            "w_sqrt_x1e6": pa.array(w),
            "p_raw": pa.array(
                np.floor(n / total_n * 1e6 + 0.5) / 1e6, type=pa.float64()
            ),
            "p_temp": pa.array(
                np.floor(w / total_w * 1e6 + 0.5) / 1e6, type=pa.float64()
            ),
        }
    )


QUERIES["mix_weights"] = q_mix_weights
ORACLE_SQL["mix_weights"] = """
    WITH c AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n
               FROM documents GROUP BY lang),
    q AS (SELECT lang, n,
                 CAST(FLOOR(SQRT(CAST(n AS DOUBLE)) * 1000000) AS BIGINT)
                     AS w
          FROM c),
    t AS (SELECT SUM(n) AS tn, SUM(w) AS tw FROM q)
    SELECT q.lang, q.n AS n_docs, q.w AS w_sqrt_x1e6,
           ROUND(q.n * 1.0 / t.tn, 6) AS p_raw,
           ROUND(q.w * 1.0 / t.tw, 6) AS p_temp
    FROM q, t
"""


def q_source_kl(sf_dir: str):
    """Per-source vocabulary-drift score: add-one-smoothed KL divergence
    of each source's hashed-unigram distribution from the whole corpus,
    in the exact int64 quantized-log arithmetic shared with
    dsir_weights (ops/dsir.source_kl) — the domain-shift diagnostic
    behind mixing decisions.  One bounded (source x 4096-bucket)
    exchange; rows never move."""
    from ...ops.dsir import source_kl

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "source"]
    )
    return source_kl(docs, group_column="source")


QUERIES["source_kl"] = q_source_kl
ORACLE_SQL["source_kl"] = """
    WITH tok AS (SELECT source, unnest(string_split(text, ' ')) AS tok
                 FROM documents),
    tb AS (SELECT source,
                  CAST(('0x' || substr(md5(tok), 1, 8))::UBIGINT % 4096
                       AS BIGINT) AS b
           FROM tok),
    sc AS (SELECT source, b, CAST(COUNT(*) AS BIGINT) AS n
           FROM tb GROUP BY 1, 2),
    cb AS (SELECT b, CAST(COUNT(*) AS BIGINT) AS n FROM tb GROUP BY 1),
    ns AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n FROM tb GROUP BY 1),
    nc AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM tb),
    grid AS (SELECT s.source, g.b
             FROM (SELECT DISTINCT source FROM tb) s,
                  (SELECT unnest(range(4096)) AS b) g),
    cells AS (SELECT grid.source, grid.b,
                     COALESCE(sc.n, 0) AS nsb, COALESCE(cb.n, 0) AS ncb
              FROM grid
              LEFT JOIN sc ON sc.source = grid.source AND sc.b = grid.b
              LEFT JOIN cb ON cb.b = grid.b)
    SELECT cells.source, ns.n AS n_tokens,
           CAST(SUM((nsb + 1) *
                (CAST(FLOOR(LN(CAST(nsb + 1 AS DOUBLE)) * 1000000) AS BIGINT)
               - CAST(FLOOR(LN(CAST(ns.n + 4096 AS DOUBLE)) * 1000000) AS BIGINT)
               - CAST(FLOOR(LN(CAST(ncb + 1 AS DOUBLE)) * 1000000) AS BIGINT)
               + CAST(FLOOR(LN(CAST(nc.n + 4096 AS DOUBLE)) * 1000000) AS BIGINT)))
                AS BIGINT) AS kl_q
    FROM cells
    JOIN ns ON ns.source = cells.source
    CROSS JOIN nc
    GROUP BY cells.source, ns.n
"""
