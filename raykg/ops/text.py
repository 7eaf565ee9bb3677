"""Text analysis operators: token counting, quality scoring, language ID,
document fingerprinting.  All are streaming ``map_batches`` stages; integer
metrics are used wherever an exact DuckDB oracle compares values (floats
only where rows-only checks apply)."""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List

import numpy as np
import pyarrow as pa

import ray.data

# BPE-ish word/punct split; RE2-compatible (same pattern is used in the
# DuckDB oracle) and ASCII-safe on both engines.
TOKEN_RE = re.compile(r"\w+|[^\w\s]")
WORD_RE = re.compile(r"\S+")


def token_count_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    texts = batch[text_column].to_pylist()
    findall = TOKEN_RE.findall
    n_tokens = pa.array(
        [len(findall(t)) if t is not None else 0 for t in texts], type=pa.int64()
    )
    return batch.append_column("n_tokens", n_tokens)


def quality_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Integer quality metrics: n_chars, n_words, n_distinct_words,
    max_word_len, quality_score = 100*n_distinct_words // n_words."""
    texts = batch[text_column].to_pylist()
    n_chars: List[int] = []
    n_words: List[int] = []
    n_distinct: List[int] = []
    max_len: List[int] = []
    score: List[int] = []
    for t in texts:
        t = t or ""
        words = WORD_RE.findall(t)
        nw = len(words)
        nd = len(set(words))
        n_chars.append(len(t))
        n_words.append(nw)
        n_distinct.append(nd)
        max_len.append(max((len(w) for w in words), default=0))
        score.append((100 * nd) // nw if nw else 0)
    for name, vals in [
        ("n_chars", n_chars),
        ("n_words", n_words),
        ("n_distinct_words", n_distinct),
        ("max_word_len", max_len),
        ("quality_score", score),
    ]:
        batch = batch.append_column(name, pa.array(vals, type=pa.int64()))
    return batch


def repetition_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Repetition-based quality metrics (the Gopher-rule family): share of
    the document consumed by its most frequent word / bigram and the
    duplicate-word share — the standard signals for dropping boilerplate
    and degenerate (looping) generations from training corpora.  Integer
    percentages (floor division) so an exact SQL oracle can compare:

    - ``top_word_pct``   = 100 * max word count // n_words
    - ``top_bigram_pct`` = 100 * max bigram count // (n_words - 1)
    - ``dup_word_pct``   = 100 * (n_words - n_distinct_words) // n_words

    all 0 when the document is too short to have the denominator."""
    from collections import Counter

    texts = batch[text_column].to_pylist()
    top_w: List[int] = []
    top_b: List[int] = []
    dup_w: List[int] = []
    for t in texts:
        words = WORD_RE.findall(t or "")
        nw = len(words)
        if nw == 0:
            top_w.append(0), top_b.append(0), dup_w.append(0)
            continue
        wc = Counter(words)
        top_w.append(100 * max(wc.values()) // nw)
        dup_w.append(100 * (nw - len(wc)) // nw)
        if nw >= 2:
            bc = Counter(zip(words, words[1:]))
            top_b.append(100 * max(bc.values()) // (nw - 1))
        else:
            top_b.append(0)
    for name, vals in [
        ("top_word_pct", top_w),
        ("top_bigram_pct", top_b),
        ("dup_word_pct", dup_w),
    ]:
        batch = batch.append_column(name, pa.array(vals, type=pa.int64()))
    return batch


_FP_WINDOW = 8
_FP_K = 0x100000001B3  # FNV-ish odd multiplier for the window polynomial


def window_hashes(words: List[str], w: int) -> "np.ndarray":
    """Polynomial hash of every ``w``-word window (uint64 wrap arithmetic)
    over per-word crc32s, one vectorized numpy pass:
    ``h_i = sum_j crc32(words[i+j]) * K^(w-1-j)``.  Deterministic across
    processes/platforms — the shared gram-hash primitive for winnowed
    fingerprints and n-gram decontamination."""
    import numpy as np
    import zlib

    n = len(words)
    if n < w or w <= 0:
        return np.zeros(0, dtype=np.uint64)
    wh = np.fromiter(
        (zlib.crc32(x.encode("utf-8")) for x in words),
        dtype=np.uint64,
        count=n,
    )
    k = np.uint64(_FP_K)
    acc = np.zeros(n - w + 1, dtype=np.uint64)
    for j in range(w):
        acc = acc * np.uint64(1) + wh[j : j + n - w + 1] * (k ** np.uint64(w - 1 - j))
    return acc


def _window_fingerprint(words: List[str]) -> int:
    """Winnowed fingerprint: min over 8-word windows of the polynomial
    window hash — a single per-word crc32 instead of one md5 per WINDOW
    (~50x cheaper at the same determinism; the fingerprint is an opaque
    63-bit id either way)."""
    import numpy as np

    n = len(words)
    if n == 0:
        return 0
    acc = window_hashes(words, min(n, _FP_WINDOW))
    return int(acc.min() >> np.uint64(1))


def fingerprint_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Content fingerprints: md5 of the text plus a winnowed rolling-hash
    fingerprint (min of 8-gram word-window polynomial hashes) for fuzzy
    comparison."""
    texts = batch[text_column].to_pylist()
    md5s: List[str] = []
    winnow: List[int] = []
    for t in texts:
        t = t or ""
        md5s.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        winnow.append(_window_fingerprint(t.split()))
    batch = batch.append_column("text_md5", pa.array(md5s, type=pa.string()))
    batch = batch.append_column("fingerprint", pa.array(winnow, type=pa.int64()))
    return batch


# Tiny embedded stopword profiles for the heuristic language identifier.
_LANG_PROFILES: Dict[str, set] = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "que"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "nicht"},
    "es": {"el", "la", "los", "de", "y", "un", "una", "es", "que", "en"},
    "it": {"il", "la", "di", "e", "un", "una", "che", "per", "con", "del"},
    "pt": {"o", "a", "os", "de", "e", "um", "uma", "que", "em", "para"},
}


def ngram_counts(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    n: int = 3,
    top: int = 50,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Top-``top`` corpus word n-grams by total occurrence count
    (ties: ngram asc).

    Three bounded stages: per-batch Counter partials (exchange carries one
    row per distinct ngram per block), a sharded exact total per ngram
    (ngram count scales with the corpus — ``ops/agg.py``) that also emits
    only its shard's local top-``top`` (a superset of that shard's global
    winners, so exact), then one tiny sort+limit over shards x top rows."""
    from collections import Counter

    from .agg import sharded_groupby_apply

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch[text_column].to_pylist():
            ws = WORD_RE.findall(t or "")
            for i in range(len(ws) - n + 1):
                c[" ".join(ws[i : i + n])] += 1
        return pa.Table.from_pydict(
            {
                "ngram": pa.array(list(c.keys()), type=pa.string()),
                "cnt": pa.array(list(c.values()), type=pa.int64()),
            }
        )

    def shard_total_topk(df):
        tot = df.groupby("ngram", sort=False)["cnt"].sum().reset_index(name="n")
        return tot.sort_values(["n", "ngram"], ascending=[False, True]).head(top)

    totals = sharded_groupby_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["ngram"],
        shard_total_topk,
        num_shards=num_shards,
    )
    return totals.sort(["n", "ngram"], descending=[True, False]).limit(top)


class LangIdActor:
    """Heuristic n-gram/stopword language identifier (actor pool: profiles
    compiled once per actor)."""

    def __init__(self, text_column: str = "text", default: str = "en"):
        self.text_column = text_column
        self.default = default
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        preds: List[str] = []
        for t in texts:
            words = (t or "").lower().split()
            best, best_score = self.default, 0
            for lang, stops in self.profiles.items():
                s = sum(1 for w in words if w in stops)
                if s > best_score:
                    best, best_score = lang, s
            preds.append(best)
        return batch.append_column("pred_lang", pa.array(preds, type=pa.string()))


# RE2 patterns only (no lookaround/backrefs): the same strings run
# unchanged through pyarrow.compute (RE2) and DuckDB regexp_replace (RE2),
# so a SQL oracle can mirror the redaction verbatim.
DEFAULT_REDACT_RULES = [
    (r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\d{3}-\d{3}-\d{4}", "<PHONE>"),
    (r"\b\d+\b", "<NUM>"),
]


def redact(
    ds: "ray.data.Dataset",
    rules=None,
    text_column: str = "text",
    out_column: str | None = None,
) -> "ray.data.Dataset":
    """PII redaction: sequential global regex replacements applied as ONE
    Arrow compute kernel per rule (``pc.replace_substring_regex`` — RE2,
    vectorized, zero-copy in).  Rule order matters (an email is consumed
    before its digits can match the number rule) and is preserved."""
    import pyarrow.compute as pc

    rules = DEFAULT_REDACT_RULES if rules is None else list(rules)
    out = out_column or text_column

    def fn(batch: pa.Table) -> pa.Table:
        col = batch[text_column]
        for pat, rep in rules:
            col = pc.replace_substring_regex(col, pattern=pat, replacement=rep)
        if out in batch.schema.names:
            return batch.set_column(batch.schema.get_field_index(out), out, col)
        return batch.append_column(out, col)

    return ds.map_batches(fn, batch_format="pyarrow")


def add_token_counts(ds: "ray.data.Dataset", text_column: str = "text"):
    return ds.map_batches(
        lambda b: token_count_batch(b, text_column), batch_format="pyarrow"
    )


def add_quality(ds: "ray.data.Dataset", text_column: str = "text"):
    return ds.map_batches(
        lambda b: quality_batch(b, text_column), batch_format="pyarrow"
    )


def add_fingerprints(ds: "ray.data.Dataset", text_column: str = "text"):
    return ds.map_batches(
        lambda b: fingerprint_batch(b, text_column), batch_format="pyarrow"
    )


def add_lang_id(ds: "ray.data.Dataset", text_column: str = "text", concurrency=2):
    return ds.map_batches(
        LangIdActor,
        fn_constructor_kwargs={"text_column": text_column},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class TokenizeActor:
    """``tokenize_df`` parity (reference spacy_tokenizer.py:432-488): adds a
    ``tokens`` list<string> column, dispatching per-row by language when a
    language column is given.  Tokenizers are actor state, built lazily per
    language."""

    def __init__(self, text_column: str = "text", language: str = "en",
                 language_column: str | None = None):
        from ..core.tokenize import Tokenizer, check_language

        self.text_column = text_column
        self.language = language
        self.language_column = language_column
        self._check = check_language
        self._Tokenizer = Tokenizer
        self._tokenizers = {}

    def _tok(self, lang):
        t = self._tokenizers.get(lang)
        if t is None:
            self._check(lang)
            t = self._Tokenizer(lang)
            self._tokenizers[lang] = t
        return t

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_column].to_pylist()
        langs = (
            batch[self.language_column].to_pylist()
            if self.language_column
            else [self.language] * len(texts)
        )
        tokens = [
            self._tok(lang).token_texts(t or "") for t, lang in zip(texts, langs)
        ]
        return batch.append_column(
            "tokens", pa.array(tokens, type=pa.list_(pa.string()))
        )


def add_tokens(ds: "ray.data.Dataset", text_column: str = "text",
               language: str = "en", language_column: str | None = None,
               concurrency=2):
    return ds.map_batches(
        TokenizeActor,
        fn_constructor_kwargs={
            "text_column": text_column,
            "language": language,
            "language_column": language_column,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


_READ_WORD = None  # compiled lazily so workers pay the cost once


def readability_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Flesch reading-ease per document from three regex counts over the
    lowercased text (the classical 206.835 − 1.015·(W/S) − 84.6·(Sy/W)
    heuristic with vowel-group syllables):

    - words      = ``[a-z]+`` runs,
    - sentences  = ``[.!?]+`` runs, floored at 1,
    - syllables  = ``[aeiouy]+`` groups (a group never crosses a
      non-letter, so the whole-text count equals the per-word sum)
      plus one per vowel-less word (the max(1, groups) floor).

    All three are integers, and the final float expression uses one
    fixed evaluation tree — a SQL mirror computing the same counts gets
    bit-identical doubles.  Zero-word documents are dropped (the ratio
    is undefined); each kept row carries the counts for auditability.
    """
    import re

    global _READ_WORD
    if _READ_WORD is None:
        _READ_WORD = (
            re.compile(r"[a-z]+"),
            re.compile(r"[aeiouy]+"),
            re.compile(r"[a-z]*[aeiouy][a-z]*"),
            re.compile(r"[.!?]+"),
        )
    wrx, vrx, wvrx, srx = _READ_WORD
    texts = batch[text_column].to_pylist()
    words: List[int] = []
    sents: List[int] = []
    syls: List[int] = []
    keep: List[bool] = []
    for t in texts:
        s = (t or "").lower()
        w = len(wrx.findall(s))
        vg = len(vrx.findall(s))
        wv = len(wvrx.findall(s))  # words containing >= 1 vowel
        words.append(w)
        sents.append(max(1, len(srx.findall(s))))
        syls.append(vg + (w - wv))  # vowel-less words count 1 syllable
        keep.append(w > 0)
    w_arr = np.asarray(words, dtype=np.float64)
    s_arr = np.asarray(sents, dtype=np.float64)
    y_arr = np.asarray(syls, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        flesch = 206.835 - 1.015 * (w_arr / s_arr) - 84.6 * (y_arr / w_arr)
    out = batch
    for name, vals, typ in [
        ("n_words", words, pa.int64()),
        ("n_sentences", sents, pa.int64()),
        ("n_syllables", syls, pa.int64()),
    ]:
        out = out.append_column(name, pa.array(vals, type=typ))
    out = out.append_column(
        "flesch", pa.array(np.round(flesch, 6), type=pa.float64())
    )
    return out.filter(pa.array(keep))
