"""Ontology loading, cleaning and per-language matcher compilation.

Reference semantics:
- empty-string cells are nulls; rows missing keyword or tag are dropped and
  an all-dropped ontology is an error (``ontology_tagger.py:145-154``)
- missing categories become ``"uncategorized"`` (``ontology_tagger.py:156-160``)
- keywords are normalized with the *same* invariant as document sentences
  and tokenized per language (``ontology_tagger.py:183-188,213-232``)
- the keyword -> tag reverse map is keyed by the tokenized keyword's text
  (or single-space-joined lemma), duplicate keys -> last ontology row wins
  (``ontology_tagger.py:221-231``)

The compiled per-language matcher holds the token-id kernel
(:class:`~raykg.core.vector_match.VectorizedExactMatcher`) over the
normalized token sequences; ``category`` mode resolves overlaps
longest-match-first (EntityRuler/doc.ents), ``no-category`` mode emits all
matches (PhraseMatcher) — SURVEY.md Appendix A.3.  :func:`match_documents`
matches a batch of documents through one kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .lemma import Lemmatizer
from .normalize import normalize
from .tokenize import Tokenizer
from .vector_match import VectorizedExactMatcher, reduce_hits


@dataclass(frozen=True)
class MatchConfig:
    """The three matching booleans of the reference recipe
    (recipe.json; dku_plugin_config_loading.py)."""

    ignore_case: bool = False
    ignore_diacritics: bool = False
    lemmatization: bool = False
    # True = tokenize every row with the reference-equivalent Python flow
    # (disables the ASCII fast paths and the space-split codes of eligible
    # rows); the path real multilingual text takes regardless
    strict_reference: bool = False

    def normalize(self, text: str) -> str:
        return normalize(
            text,
            ignore_case=self.ignore_case,
            ignore_diacritics=self.ignore_diacritics,
            lemmatization=self.lemmatization,
        )


@dataclass
class OntologyRow:
    tag: str
    keyword: str
    category: Optional[str] = None


def _is_null(v) -> bool:
    return v is None or v != v or v == ""


def clean_ontology(
    rows: Sequence[Tuple], has_category: bool, keep_empty_ok: bool = False
) -> List[OntologyRow]:
    """Drop incomplete rows, default categories; error when nothing is left.

    ``rows`` are (tag, keyword) or (tag, keyword, category) tuples.
    """
    cleaned: List[OntologyRow] = []
    for row in rows:
        tag, keyword = row[0], row[1]
        category = row[2] if has_category and len(row) > 2 else None
        if _is_null(tag) or _is_null(keyword):
            continue
        if has_category and _is_null(category):
            category = "uncategorized"
        cleaned.append(OntologyRow(str(tag), str(keyword), category if has_category else None))
    if not cleaned and not keep_empty_ok:
        raise ValueError(
            "No valid tags were found. Please specify at least a keyword and a tag "
            "in the ontology dataset, and re-run the recipe"
        )
    return cleaned


@dataclass
class CompiledMatcher:
    """Per-language compiled dictionary: pattern metadata plus the kernel."""

    language: str
    config: MatchConfig
    has_category: bool
    # pattern_id -> (tag, category); pattern order = ontology row order so
    # equal spans resolve to the earliest ontology row, like the matcher's
    # first-added pattern.
    patterns: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    # pattern_id -> the matched token sequence (probe attr: TEXT or LEMMA)
    # and the keyword string a simple-text match reports
    pattern_tokens: List[tuple] = field(default_factory=list)
    pattern_keywords: List[str] = field(default_factory=list)
    # normalized keyword string (text or joined lemma) -> tag, LAST duplicate
    # ontology row wins (ontology_tagger.py:221-231)
    keyword_to_tag: Dict[str, str] = field(default_factory=dict)
    tokenizer: Tokenizer = None  # type: ignore[assignment]
    lemmatizer: Optional[Lemmatizer] = None
    kernel: VectorizedExactMatcher = None  # type: ignore[assignment]


def compile_matcher(
    ontology: Sequence[OntologyRow],
    language: str,
    config: MatchConfig,
    has_category: bool,
    lemma_table: Dict[str, str] | None = None,
) -> CompiledMatcher:
    """Build the per-language lookup maps + the matching kernel.

    Runs once per (actor, language) in distributed execution — the analog of
    the reference building one PhraseMatcher/EntityRuler per language on the
    driver (``ontology_tagger.py:288-302,251-266``).
    """
    tokenizer = Tokenizer(language, strict=config.strict_reference)
    lemmatizer = (
        Lemmatizer(language, table=lemma_table) if config.lemmatization else None
    )
    patterns: List[Tuple[str, Optional[str]]] = []
    pattern_tokens: List[tuple] = []
    pattern_keywords: List[str] = []
    keyword_to_tag: Dict[str, str] = {}
    for row in ontology:
        norm_kw = config.normalize(row.keyword)
        tokens = [t[0] for t in tokenizer.tokenize(norm_kw)]
        if not tokens:
            continue
        if config.lemmatization and lemmatizer is not None:
            seq = lemmatizer.lemmas(tokens)
            key = " ".join(seq)
        else:
            seq = tokens
            # PhraseMatcher pattern key is the tokenized keyword's doc.text,
            # i.e. the tokens re-joined with their original whitespace; for
            # matching we only need the token sequence, and the reverse-map
            # key is doc.text == the normalized keyword string itself.
            key = norm_kw
        patterns.append((row.tag, row.category))
        pattern_tokens.append(tuple(seq))
        pattern_keywords.append(" ".join(tokens))
        keyword_to_tag[key] = row.tag  # last duplicate wins
    matcher = CompiledMatcher(
        language=language,
        config=config,
        has_category=has_category,
        patterns=patterns,
        pattern_tokens=pattern_tokens,
        pattern_keywords=pattern_keywords,
        keyword_to_tag=keyword_to_tag,
        tokenizer=tokenizer,
        lemmatizer=lemmatizer,
    )
    matcher.kernel = VectorizedExactMatcher(matcher)
    return matcher


@dataclass
class Mention:
    """One keyword match inside one sentence of one document."""

    sent_idx: int
    start_char: int  # char offsets into the *normalized* sentence
    end_char: int
    keyword: str  # span text from the normalized sentence (Appendix A.4)
    tag: str
    category: Optional[str]
    sentence: str  # the ORIGINAL (un-normalized) sentence


class _Sentences:
    """The sentences of a batch of documents, flattened for one kernel call.

    Sentence ``i`` is ``info[i] = (doc, sent_idx, original, normalized,
    shift)``; its tokens are ``words[offs[i]:offs[i + 1]]`` (token texts,
    or lemmas in lemma mode), at char offsets ``starts``/``ends`` minus
    ``shift`` in the normalized sentence.  Flat lists of strings and ints,
    not a list of tokens per sentence: the container objects of a whole
    batch would stay alive to its end and set off full garbage collections.
    """

    def __init__(self, matcher: CompiledMatcher):
        self.matcher = matcher
        self.lem = matcher.lemmatizer if matcher.config.lemmatization else None
        self.info: List[tuple] = []
        self.offs = [0]
        self.words: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []

    def add(self, doc: int, originals: Sequence[str]) -> None:
        """Normalize each sentence with the shared invariant and tokenize it."""
        for sent_idx, original in enumerate(originals):
            norm = self.matcher.config.normalize(original)
            self.add_tokens(doc, sent_idx, original, norm, self.matcher.tokenizer.tokenize(norm))

    def add_tokens(self, doc, sent_idx, original, norm, tokens, shift=0) -> None:
        self.info.append((doc, sent_idx, original, norm, shift))
        if tokens:
            words, starts, ends = zip(*tokens)
            self.words.extend(words if self.lem is None else self.lem.lemmas(words))
            self.starts.extend(starts)
            self.ends.extend(ends)
        self.offs.append(len(self.words))

    def add_document(self, doc: int, text) -> None:
        """Sentencize one document with a single tokenization pass when
        normalization is the identity on a sentence (always true for ASCII
        text in exact-matching mode, where NFD is a no-op): the document is
        tokenized once, sentence spans are cut from those tokens, and each
        sentence whose normalized form equals its original reuses its token
        slice instead of being re-tokenized.  Non-identity sentences fall
        back to the reference flow (normalize -> tokenize) — results are
        identical either way; this is purely a hot-path shortcut."""
        from .normalize import clean_linebreaks
        from .sentencize import split_sentences, split_tokens_to_sentences_spans

        m = self.matcher
        if text is None or text != text:
            return
        if m.config.strict_reference:
            self.add(doc, split_sentences(text, m.tokenizer))
            return
        cleaned = clean_linebreaks(str(text))
        tokens = m.tokenizer.tokenize(cleaned)
        spans = split_tokens_to_sentences_spans(tokens, cleaned)
        for sent_idx, (tok_lo, tok_hi, char_lo, char_hi) in enumerate(spans):
            original = cleaned[char_lo:char_hi]
            norm = m.config.normalize(original)
            if norm == original:
                self.add_tokens(doc, sent_idx, original, norm, tokens[tok_lo:tok_hi], char_lo)
            else:
                self.add_tokens(doc, sent_idx, original, norm, m.tokenizer.tokenize(norm))


def match_documents(matcher: CompiledMatcher, texts: Sequence, split=None):
    """``(mentions, hits)`` of a batch, from one kernel call: ``mentions[i]``
    lists the mentions of ``texts[i]`` in sentence order, each document
    sentencized, normalized and tokenized (lemmatized) in Python.  The
    optional Arrow column ``split`` of eligible rows rides in the same call
    as space-split codes; ``hits`` are its ``(rows, pids, counts)`` as from
    ``VectorizedExactMatcher.batch_hits`` (empty without ``split``)."""
    sents = _Sentences(matcher)
    for doc, text in enumerate(texts):
        try:
            sents.add_document(doc, text)
        except Exception as e:
            # the reference quotes the offending docs TRUNCATED in its
            # tokenization-error message (spacy_tokenizer.py:428,
            # cleaning_utils.py:24-40) — same log-hygiene contract here
            from .format import truncate_text_list

            raise type(e)(
                f"Tokenization error: {e} for document(s): "
                f"'{truncate_text_list([text or ''])}'"
            ) from e
    return _match(sents, len(texts), split)


def process_document(matcher: CompiledMatcher, text) -> List[Mention]:
    """Mentions of one document (:func:`match_documents` of one text)."""
    return match_documents(matcher, [text])[0][0]


def match_sentences(
    matcher: CompiledMatcher, original_sentences: Sequence[str]
) -> List[Mention]:
    """Match one document's sentence list; returns mentions in sentence order."""
    sents = _Sentences(matcher)
    sents.add(0, original_sentences)
    return _match(sents, 1)[0][0]


def _match(sents: _Sentences, n_docs: int, split=None):
    """One kernel call over the sentences ``sents`` of ``n_docs`` documents
    (and the eligible rows ``split``), then one mention per span.  The
    reported keyword is the span text sliced from the normalized sentence,
    the reported sentence the original one (formatter_by_match.py:84-93);
    without categories the tag resolves through the reverse map, so
    duplicate normalized keywords keep last-row-wins semantics."""
    matcher, kernel = sents.matcher, sents.matcher.kernel
    code, offs = kernel.token_codes(sents.words), np.array(sents.offs, dtype=np.int64)
    n_split = 0
    if split is not None and len(split):
        s_code, s_offs = kernel.split_codes(split)
        n_split = len(split)
        code = np.concatenate([s_code, code])
        offs = np.concatenate([s_offs, offs[1:] + s_offs[-1]])
    seg, start, end, pid = kernel.spans(code, offs)
    k = int(np.searchsorted(seg, n_split))
    hits = reduce_hits(seg[:k], pid[:k], n_split) if n_split else (seg[:0], seg[:0], seg[:0])
    mentions: List[List[Mention]] = [[] for _ in range(n_docs)]
    spans = zip((seg[k:] - n_split).tolist(), start[k:].tolist(), end[k:].tolist(), pid[k:].tolist())
    for s, t_start, t_end, p in spans:
        doc, sent_idx, original, norm, shift = sents.info[s]
        first = sents.offs[s] + t_start
        last = sents.offs[s] + t_end - 1
        start_char = sents.starts[first] - shift
        end_char = sents.ends[last] - shift
        span_text = norm[start_char:end_char]
        tag, category = matcher.patterns[p]
        if not matcher.has_category:
            key = " ".join(sents.words[first:last + 1]) if sents.lem else span_text
            tag = matcher.keyword_to_tag.get(key, tag)
        mentions[doc].append(
            Mention(sent_idx, start_char, end_char, span_text, tag, category, original)
        )
    return mentions, hits
