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

The compiled per-language matcher is a :class:`TokenAutomaton` over the
normalized token sequences; ``category`` mode resolves overlaps
longest-match-first (EntityRuler/doc.ents), ``no-category`` mode emits all
matches (PhraseMatcher) — SURVEY.md Appendix A.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .automaton import TokenAutomaton, filter_longest
from .lemma import Lemmatizer
from .normalize import normalize
from .tokenize import Tokenizer


@dataclass(frozen=True)
class MatchConfig:
    """The three matching booleans of the reference recipe
    (recipe.json; dku_plugin_config_loading.py)."""

    ignore_case: bool = False
    ignore_diacritics: bool = False
    lemmatization: bool = False
    # True = run the reference-equivalent general path everywhere (disables
    # the ASCII fast paths and the vectorized kernel); the path real
    # multilingual text takes regardless
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
    """Per-language compiled dictionary: the automaton plus pattern metadata."""

    language: str
    config: MatchConfig
    has_category: bool
    automaton: TokenAutomaton
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

    def probe_key(self, token_texts: Sequence[str], span_text: str) -> str:
        """The string used to look a matched span up in keyword_to_tag:
        span text, or its single-space-joined lemma (nlp/utils.py:35-46)."""
        if self.config.lemmatization and self.lemmatizer is not None:
            return self.lemmatizer.lemmatize_joined(token_texts)
        return span_text


def compile_matcher(
    ontology: Sequence[OntologyRow],
    language: str,
    config: MatchConfig,
    has_category: bool,
    lemma_table: Dict[str, str] | None = None,
) -> CompiledMatcher:
    """Build the per-language automaton + lookup maps.

    Runs once per (actor, language) in distributed execution — the analog of
    the reference building one PhraseMatcher/EntityRuler per language on the
    driver (``ontology_tagger.py:288-302,251-266``).
    """
    tokenizer = Tokenizer(language, strict=config.strict_reference)
    lemmatizer = (
        Lemmatizer(language, table=lemma_table) if config.lemmatization else None
    )
    automaton = TokenAutomaton()
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
        pid = len(patterns)
        patterns.append((row.tag, row.category))
        pattern_tokens.append(tuple(seq))
        pattern_keywords.append(" ".join(tokens))
        automaton.add(seq, pid)
        keyword_to_tag[key] = row.tag  # last duplicate wins
    automaton.build()
    return CompiledMatcher(
        language=language,
        config=config,
        has_category=has_category,
        automaton=automaton,
        patterns=patterns,
        pattern_tokens=pattern_tokens,
        pattern_keywords=pattern_keywords,
        keyword_to_tag=keyword_to_tag,
        tokenizer=tokenizer,
        lemmatizer=lemmatizer,
    )


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


def process_document(matcher: CompiledMatcher, text) -> List[Mention]:
    """Sentencize + match one document with a single tokenization pass when
    normalization is the identity on a sentence (always true for ASCII text
    in exact-matching mode, where NFD is a no-op): the document is tokenized
    once, sentence spans are cut from those tokens, and each sentence whose
    normalized form equals its original reuses its token slice instead of
    being re-tokenized.  Non-identity sentences fall back to the reference
    flow (normalize -> tokenize) — results are identical either way; this is
    purely a hot-path shortcut.
    """
    from .normalize import clean_linebreaks
    from .sentencize import split_tokens_to_sentences_spans

    if text is None or text != text:
        return []
    if matcher.config.strict_reference:
        from .sentencize import split_sentences

        return match_sentences(matcher, split_sentences(text, matcher.tokenizer))
    cleaned = clean_linebreaks(str(text))
    if not cleaned:
        return []
    tokens = matcher.tokenizer.tokenize(cleaned)
    if not tokens:
        return []
    out: List[Mention] = []
    spans = split_tokens_to_sentences_spans(tokens, cleaned)
    for sent_idx, (tok_lo, tok_hi, char_lo, char_hi) in enumerate(spans):
        original = cleaned[char_lo:char_hi]
        norm = matcher.config.normalize(original)
        if norm == original:
            sent_tokens = [
                (t[0], t[1] - char_lo, t[2] - char_lo)
                for t in tokens[tok_lo:tok_hi]
            ]
        else:
            sent_tokens = matcher.tokenizer.tokenize(norm)
        _match_sentence(matcher, sent_idx, original, norm, sent_tokens, out)
    return out


def match_sentences(
    matcher: CompiledMatcher, original_sentences: Sequence[str]
) -> List[Mention]:
    """Match one document's sentence list; returns mentions in sentence order.

    Normalizes each sentence with the shared invariant and tokenizes it; the
    matching itself is :func:`_match_sentence`.
    """
    out: List[Mention] = []
    for sent_idx, original in enumerate(original_sentences):
        norm = matcher.config.normalize(original)
        tokens = matcher.tokenizer.tokenize(norm)
        _match_sentence(matcher, sent_idx, original, norm, tokens, out)
    return out


def _match_sentence(
    matcher: CompiledMatcher, sent_idx: int, original: str, norm: str, tokens, out
) -> None:
    """Append one sentence's mentions to ``out``: the match step shared by
    :func:`process_document` and :func:`match_sentences`.

    ``tokens`` are the normalized sentence's tokens, with offsets into
    ``norm``.  Walks the automaton over the tokens (or their lemmas) and
    resolves overlaps per mode (all matches vs longest-wins).  The reported
    keyword is the span text sliced from the normalized sentence; the
    reported sentence is the original one (formatter_by_match.py:84-93).
    """
    if not tokens:
        return
    lem = matcher.lemmatizer if matcher.config.lemmatization else None
    probe_seq = [t[0] for t in tokens]
    if lem is not None:
        probe_seq = lem.lemmas(probe_seq)
    matches = matcher.automaton.find(probe_seq)
    if not matches:
        return
    if matcher.has_category:
        matches = filter_longest(matches)
    else:
        # PhraseMatcher emits in match order; sort by (start, end) for
        # deterministic downstream order
        matches.sort(key=lambda m: (m[0], m[1]))
    for t_start, t_end, pid in matches:
        start_char = tokens[t_start][1]
        end_char = tokens[t_end - 1][2]
        span_text = norm[start_char:end_char]
        tag, category = matcher.patterns[pid]
        if not matcher.has_category:
            # resolve through the reverse map so duplicate normalized
            # keywords keep last-row-wins semantics
            key = (
                lem.lemmatize_joined([t[0] for t in tokens[t_start:t_end]])
                if lem is not None
                else span_text
            )
            tag = matcher.keyword_to_tag.get(key, tag)
        out.append(
            Mention(
                sent_idx=sent_idx,
                start_char=start_char,
                end_char=end_char,
                keyword=span_text,
                tag=tag,
                category=category,
                sentence=original,
            )
        )
