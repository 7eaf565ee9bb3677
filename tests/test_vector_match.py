"""The token-id kernel (core/vector_match.py): its spans and the per-row
engine against a brute-force span finder, the split path of eligible rows
against the per-row engine, eligibility rules; the actors' one kernel call
per batch and their tagging against per-row process_document."""

import random
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from raykg.core.ontology import (
    MatchConfig,
    clean_ontology,
    compile_matcher,
    process_document,
)
from raykg.core.sentencize import split_sentences
from raykg.core.vector_match import VectorizedExactMatcher, filter_longest
from raykg.pipeline.config import PipelineConfig
from raykg.pipeline.graph import TRIPLE_SCHEMA, TripleActor
from raykg.pipeline.tag import MentionActor, MentionCountActor, TagActor

ONTO = [
    ("Engine", "spark", "tech"),
    ("Windowing", "window", "op"),
    ("AggRow", "agg row", "pattern"),
    ("BigData", "big data", "buzz"),
    ("Customer", "customer", "entity"),
    ("FastMerge", "fast merge", "pattern"),
]
VOCAB = ["spark", "window", "agg", "row", "big", "data", "fast", "merge",
         "customer", "the", "x1", "b2"]


def matcher(has_cat=True, **flags):
    onto = clean_ontology(ONTO, has_category=has_cat)
    return compile_matcher(onto, "en", MatchConfig(**flags), has_cat)


def strings(texts):
    return pa.array(texts, type=pa.string())


def hit_counts(vm, texts):
    """Per row: {pattern_id: count}, from ``batch_hits`` over an Arrow
    column (a Python list is converted first)."""
    if not isinstance(texts, pa.Array):
        texts = strings(texts)
    out = [{} for _ in range(len(texts))]
    rows, pids, counts = vm.batch_hits(texts)
    for r, p, c in zip(rows.tolist(), pids.tolist(), counts.tolist()):
        out[r][p] = c
    return out


def resolved_counts(m, hits_dict):
    out = {}
    for pid, cnt in hits_dict.items():
        tag, cat = m.patterns[pid]
        kw = m.pattern_keywords[pid]
        if not m.has_category:
            tag = m.keyword_to_tag.get(kw, tag)
        key = (tag, cat, kw)
        out[key] = out.get(key, 0) + cnt
    return out


def slow_counts(m, text):
    out = {}
    for mn in process_document(m, text):
        key = (mn.tag, mn.category, mn.keyword)
        out[key] = out.get(key, 0) + 1
    return out


def brute_spans(pattern_tokens, tokens, longest=False):
    """Reference span finder, O(tokens x patterns): every (start, end, pid)
    whose slice of ``tokens`` equals pattern ``pid``; category mode keeps
    the longest-first non-overlapping ones."""
    found = [
        (start, start + len(pat), pid)
        for start in range(len(tokens))
        for pid, pat in enumerate(pattern_tokens)
        if tuple(tokens[start:start + len(pat)]) == tuple(pat)
    ]
    return filter_longest(found) if longest else sorted(found)


def kernel_spans(m, seqs):
    """Per token sequence: its spans from one kernel call over all of them."""
    offs = np.cumsum([0] + [len(seq) for seq in seqs])
    code = m.kernel.token_codes([t for seq in seqs for t in seq])
    seg, start, end, pid = m.kernel.spans(code, offs)
    out = [[] for _ in seqs]
    for s, a, b, p in zip(seg.tolist(), start.tolist(), end.tolist(), pid.tolist()):
        out[s].append((a, b, p))
    return out


def brute_mentions(m, text):
    """process_document's mentions rebuilt from brute_spans over the
    reference sentence split."""
    out = []
    for sent_idx, original in enumerate(split_sentences(text, m.tokenizer)):
        norm = m.config.normalize(original)
        toks = m.tokenizer.tokenize(norm)
        for a, b, p in brute_spans(m.pattern_tokens, [t[0] for t in toks], m.has_category):
            kw = norm[toks[a][1]:toks[b - 1][2]]
            tag, cat = m.patterns[p]
            if not m.has_category:
                tag = m.keyword_to_tag.get(kw, tag)
            out.append((sent_idx, toks[a][1], toks[b - 1][2], kw, tag, cat, original))
    return out


_SHARED = [
    ("BigData", "big data", "c"), ("Data", "data", "w"), ("DataWin", "data win", "c"),
    ("Win", "win", "w"), ("Bye", "bye bye", "b"), ("ByeBig", "bye big data", "c"),
    ("Data2", "data", "x"),  # the same keyword under a second tag
]


@pytest.mark.parametrize("has_cat", [False, True], ids=["all_matches", "longest"])
def test_spans_equal_brute_force(has_cat):
    """Patterns that share tokens, nest, repeat a token ("bye bye") and
    repeat a keyword: the kernel's spans over many segments in one call
    equal the brute-force finder's, in both modes."""
    m = compile_matcher(clean_ontology(_SHARED, has_category=has_cat), "en", MatchConfig(), has_cat)
    rng = random.Random(3)
    words = ["big", "data", "win", "bye", "x", "Data"]
    seqs = [[rng.choice(words) for _ in range(rng.randint(0, 14))] for _ in range(400)]
    got = kernel_spans(m, seqs)
    n_spans = 0
    for seq, spans in zip(seqs, got):
        assert spans == brute_spans(m.pattern_tokens, seq, has_cat), seq
        n_spans += len(spans)
    assert n_spans > 500


@pytest.mark.parametrize("has_cat", [False, True], ids=["all_matches", "longest"])
def test_process_document_equals_brute_force(has_cat):
    """process_document, on eligible, punctuated, multi-sentence and
    non-ASCII documents, against mentions rebuilt from brute_spans."""
    m = compile_matcher(
        clean_ontology(_SHARED + [("Cafe", "café win", "x")], has_category=has_cat),
        "en", MatchConfig(ignore_case=True), has_cat,
    )
    rng = random.Random(4)
    words = ["big", "Data", "win", "bye", "x", "café"]
    seps = [" ", " ", ", ", ". ", "  "]
    n_mentions = 0
    for _ in range(200):
        n = rng.randint(0, 16)
        text = "".join(rng.choice(words) + rng.choice(seps) for _ in range(n)).strip()
        got = [
            (x.sent_idx, x.start_char, x.end_char, x.keyword, x.tag, x.category, x.sentence)
            for x in process_document(m, text)
        ]
        assert got == brute_mentions(m, text), text
        n_mentions += len(got)
    assert n_mentions > 300


@pytest.mark.parametrize("flags", [{}, {"ignore_case": True}], ids=["exact", "case"])
@pytest.mark.parametrize("has_cat", [False, True], ids=["nocat", "cat"])
def test_fuzz_equivalence(flags, has_cat):
    m = matcher(has_cat=has_cat, **flags)
    vm = VectorizedExactMatcher(m)
    rng = random.Random(11)
    texts = []
    for _ in range(300):
        words = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
        if flags.get("ignore_case"):
            words = [w.upper() if rng.random() < 0.3 else w for w in words]
        texts.append(" ".join(words))
    assert vm.eligible_rows(strings(texts)).all()
    fast = hit_counts(vm, texts)
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t


def test_eligibility_rules():
    vm = VectorizedExactMatcher(matcher())
    good = ["spark window", "a", "UPPER case OK", "x1 b2 3"]
    bad = ["", "two  spaces", " leading", "trailing ", "punct.", "uni é", "new\nline", None]
    mask = vm.eligible_rows(strings(good + bad))
    assert mask[: len(good)].all()
    assert not mask[len(good):].any()
    # a chunked column gives the same mask
    chunked = pa.chunked_array([strings(good), strings(bad)])
    assert (vm.eligible_rows(chunked) == mask).all()


def test_shared_token_patterns_category_mode():
    # category mode with patterns that share a token: the kernel filters
    # each row's spans longest-first, as the per-row engine does
    onto = clean_ontology(
        [("A", "big data", "x"), ("B", "data", "y")], has_category=True
    )
    m = compile_matcher(onto, "en", MatchConfig(), True)
    texts = ["big data data", "data big data", "big data"]
    for t, counts in zip(texts, hit_counts(m.kernel, texts)):
        assert resolved_counts(m, counts) == slow_counts(m, t), t
    assert slow_counts(m, "big data data") == {("A", "x", "big data"): 1, ("B", "y", "data"): 1}
    # the same patterns in no-category (all-matches) mode count the "data"
    # inside the bigram too
    onto2 = clean_ontology([("A", "big data"), ("B", "data")], has_category=False)
    m2 = compile_matcher(onto2, "en", MatchConfig(), False)
    counts = hit_counts(m2.kernel, ["big data data"])
    assert resolved_counts(m2, counts[0]) == slow_counts(m2, "big data data")
    assert slow_counts(m2, "big data data") == {("A", None, "big data"): 1, ("B", None, "data"): 2}
    # lemma and strict_reference modes match through the same kernel
    for flags in ({"lemmatization": True}, {"strict_reference": True}):
        m3 = compile_matcher(onto2, "en", MatchConfig(**flags), False)
        assert slow_counts(m3, "big data data") == slow_counts(m2, "big data data")


def test_batch_hits_shapes():
    m = matcher()
    vm = VectorizedExactMatcher(m)
    rows, pids, counts = vm.batch_hits(
        strings(["spark spark", "nothing here", "agg row window"])
    )
    assert len(rows) == len(pids) == len(counts)
    got = {(int(r), int(p)): int(c) for r, p, c in zip(rows, pids, counts)}
    # row 0: spark twice; row 2: agg row once + window once
    assert got[(0, 0)] == 2
    assert got[(2, 2)] == 1 and got[(2, 1)] == 1
    assert not any(r == 1 for r, _ in got)


def test_empty_inputs():
    vm = VectorizedExactMatcher(matcher())
    assert hit_counts(vm, []) == []
    rows, pids, counts = vm.batch_hits(strings([]))
    assert len(rows) == 0


def test_self_overlap_bye_bye():
    # a pattern with a repeated token self-overlaps: "bye bye" occurs twice
    # in "bye bye bye"; all-matches mode keeps both spans, category
    # (longest-wins) mode the first one — in the kernel's spans, in
    # batch_hits and in process_document alike
    for has_cat, want in ((False, [(0, 2, 0), (1, 3, 0)]), (True, [(0, 2, 0)])):
        onto = clean_ontology([("Bye", "bye bye", "x"), ("Hi", "hello", "y")], has_cat)
        m = compile_matcher(onto, "en", MatchConfig(), has_cat)
        assert kernel_spans(m, [["bye", "bye", "bye"]]) == [want]
        assert brute_spans(m.pattern_tokens, ["bye", "bye", "bye"], has_cat) == want
        assert hit_counts(m.kernel, ["bye bye bye"]) == [{0: len(want)}]
        assert sum(slow_counts(m, "bye bye bye").values()) == len(want)


def test_fuzz_repeated_word_keywords_no_category():
    # fuzz the self-overlap shape in the mode where it IS vectorized
    import random as _random

    onto = clean_ontology([("Bye", "bye bye"), ("Go", "go")], has_category=False)
    m = compile_matcher(onto, "en", MatchConfig(), False)
    vm = m.kernel
    rng = _random.Random(7)
    texts = [
        " ".join(rng.choice(["bye", "go", "x"]) for _ in range(rng.randint(1, 12)))
        for _ in range(200)
    ]
    fast = hit_counts(vm, texts)
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t


def test_kernel_edges():
    # a keyword inside a longer word, matches that would span row
    # boundaries in the flat token column, empty rows (incl. trailing),
    # sliced/offset arrays, and large_string input
    onto = clean_ontology([("Engine", "spark", "tech"), ("B", "ab", "x")], True)
    m = compile_matcher(onto, "en", MatchConfig(), True)
    vm = VectorizedExactMatcher(m)
    out = hit_counts(vm, ["ab", "", "drab spark sparkle", ""])
    assert out[0] == {1: 1}
    assert out[2] == {0: 1}  # not "drab"/"sparkle" substrings
    assert out[1] == {} and out[3] == {}
    # row-boundary span: rows "x spa" + "rk y" abut as "x spark y" in the
    # concatenated data buffer, so a naive byte scan would see "spark"; the
    # same-row check must reject it
    rows, pids, counts = vm.batch_hits(strings(["x spa", "rk y"]))
    assert len(rows) == 0
    # a two-token keyword split across two rows ("agg" | "row") is no match
    vm2 = VectorizedExactMatcher(matcher())
    assert hit_counts(vm2, ["spark agg", "row x"]) == [{0: 1}, {}]
    # sliced array with non-zero offset + large_string agree with lists
    arr = pa.array(["pad", "spark ab", "ab spark spark"], type=pa.string())
    sl = arr.slice(1, 2)
    got = hit_counts(vm, sl)
    assert got == hit_counts(vm, ["spark ab", "ab spark spark"])
    ls = pa.array(["spark ab"], type=pa.large_string())
    assert hit_counts(vm, ls) == hit_counts(vm, ["spark ab"])


def _random_words(rng, n, alphabet="abcdefghij"):
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(alphabet) for _ in range(rng.randint(2, 5))))
    return sorted(words)


@pytest.mark.parametrize("flags", [{}, {"ignore_case": True}], ids=["exact", "case"])
def test_large_k_fuzz_equivalence(flags):
    # ~2000 patterns of 1-6 tokens over a small vocabulary, so tokens and
    # prefixes are shared heavily; one keyword under two tags; keywords
    # with punctuation / non-ASCII tokens that no eligible row can hold
    rng = random.Random(5)
    vocab = _random_words(rng, 300)
    vocab += [w.capitalize() for w in vocab[:40]]  # case matters when exact
    keywords = set()
    while len(keywords) < 1990:
        keywords.add(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
    keywords = sorted(keywords)
    # extensions of existing keywords: shared prefixes of every length
    keywords += [kw + " " + rng.choice(vocab) for kw in keywords[:10]]
    rows = [(f"T{i}", kw) for i, kw in enumerate(keywords)]
    rows += [
        ("Dup", keywords[3]),  # the same keyword listed under a second tag
        ("Punct", "ab-cd " + vocab[0]),
        ("Comma", vocab[1] + ", " + vocab[2]),
        ("Accent", "café " + vocab[3]),
        ("Greek", "λόγος"),
    ]
    onto = clean_ontology(rows, has_category=False)
    m = compile_matcher(onto, "en", MatchConfig(**flags), False)
    vm = m.kernel
    assert len(m.patterns) >= 2000 and max(map(len, m.pattern_tokens)) >= 6
    texts = []
    for _ in range(400):
        words = []
        while len(words) < rng.randint(1, 40):
            if rng.random() < 0.3:
                words.extend(rng.choice(keywords).split())
            else:
                words.append(rng.choice(vocab))
        if flags.get("ignore_case"):
            words = [w.upper() if rng.random() < 0.2 else w for w in words]
        texts.append(" ".join(words))
    assert vm.eligible_rows(strings(texts)).all()
    # an Arrow array sliced at a non-zero offset, in two pieces
    arr = pa.array(["pad row"] * 7 + texts, type=pa.string())
    fast = hit_counts(vm, arr.slice(7, 150)) + hit_counts(vm, arr.slice(157))
    assert fast == hit_counts(vm, texts)
    n_hits = 0
    for i, t in enumerate(texts):
        expect = slow_counts(m, t)
        assert resolved_counts(m, fast[i]) == expect, t
        n_hits += sum(expect.values())
    assert n_hits > 1000  # the fuzz input really exercises the matcher


@pytest.mark.parametrize("n_tokens", [511, 512])
def test_long_keyword_keys_do_not_overflow(n_tokens):
    # an 8-token keyword over a pattern vocabulary of ~2**9 tokens: packing
    # the 8 ids of a window as (V or V+1)**8 needs 72 bits, and in int64
    # the first token's weight 2**63 keeps only its parity, so the window
    # "w2 w1 ... w7" would collide with the keyword "w0 w1 ... w7"
    long_kw = " ".join(f"w{i}" for i in range(8))
    rows = [("Long", long_kw)]
    rows += [(f"F{i}", f"f{i}") for i in range(n_tokens - 8)]
    onto = clean_ontology(rows, has_category=False)
    m = compile_matcher(onto, "en", MatchConfig(), False)
    vm = m.kernel
    assert len(vm.token_ids) == n_tokens
    texts = [
        long_kw,
        "x " + long_kw + " f3 " + long_kw,
        " ".join(["w2"] + [f"w{i}" for i in range(1, 8)]),
        " ".join(["w4"] + [f"w{i}" for i in range(1, 8)]),
        " ".join([f"w{i}" for i in range(7)] + ["w5"]),
        " ".join(f"w{i}" for i in range(7)),
    ]
    fast = hit_counts(vm, texts)
    assert fast[0] == {0: 1}
    assert fast[1] == {0: 2, 4: 1}
    assert fast[2:] == [{}, {}, {}, {}]
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t


# --- the actors' one tagging path -------------------------------------------


def _rows(table, names):
    return sorted(zip(*[table[c].to_pylist() for c in names]), key=repr)


def test_duplicate_keyword_tagged_as_once_per_turn(ray_session):
    """A keyword listed under two tags (no category) resolves to one tag:
    TripleActor emits its tagged_as triple once per turn, whether the turn
    takes the kernel ("spark here") or the per-row path ("spark, here"),
    and exactly as triples_from_mentions does."""
    import ray.data

    from raykg.pipeline.graph import triples_from_mentions
    from raykg.pipeline.tag import extract_mentions

    rows = [("A", "spark"), ("B", "spark")]
    cfg = PipelineConfig(concurrency=1)
    batch = pa.table({
        "conv_id": ["c1", "c1"],
        "turn_idx": pa.array([0, 1], type=pa.int32()),
        "text": ["spark here", "spark, here"],
    })
    out = TripleActor(clean_ontology(rows, has_category=False), cfg)(batch)
    tagged = [
        (s, o) for s, p, o in _rows(out, ["subj", "pred", "obj"]) if p == "tagged_as"
    ]
    assert tagged == [("c1#0#spark", "concept:B"), ("c1#1#spark", "concept:B")]
    ds = ray.data.from_arrow(batch)
    want = pa.Table.from_pandas(
        triples_from_mentions(extract_mentions(ds, rows, cfg), ds).to_pandas()
    )
    assert _rows(out, TRIPLE_SCHEMA.names) == _rows(want, TRIPLE_SCHEMA.names)


_WORDS = ["spark", "Spark", "window", "windows", "agg", "row", "big", "data",
          "fast", "merge", "customer", "the", "x1", "café", "worked", "working"]
_ONTO_NOCAT = [
    ("Engine", "spark"), ("Dup", "spark"), ("Windowing", "window"),
    ("AggRow", "agg row"), ("BigData", "big data"), ("Data", "data"),
    ("Cafe", "café"), ("Work", "worked"), ("Punct", "fast, merge"),
]
_ONTO_CAT = [
    ("Engine", "spark", "tech"), ("Windowing", "window", "op"),
    ("AggRow", "agg row", "pattern"), ("BigData", "big data", "buzz"),
    ("Cafe", "café", "x"),
]
_ONTO_CAT_SHARED = _ONTO_CAT + [("Data", "data", "y")]
_MODES = {
    "exact": (_ONTO_NOCAT, {}),
    "case": (_ONTO_NOCAT, {"ignore_case": True}),
    "category": (_ONTO_CAT, {"category_column": "category"}),
    "category_shared": (_ONTO_CAT_SHARED, {"category_column": "category"}),
    "lemma": (_ONTO_NOCAT, {"lemmatization": True}),
    "multilingual": (
        _ONTO_NOCAT, {"language": "language_column", "language_column": "lang"}
    ),
}


def _random_batch(rng, n):
    """Eligible rows mixed with punctuated, non-ASCII, multi-sentence,
    double-spaced, empty and null rows."""
    texts = []
    for _ in range(n):
        words = [rng.choice(_WORDS[:13]) for _ in range(rng.randint(1, 12))]
        kind = rng.random()
        if kind < 0.4:
            text = " ".join(words)
        elif kind < 0.55:
            text = ", ".join(words)
        elif kind < 0.7:
            text = " ".join(words + [rng.choice(_WORDS[13:])])
        elif kind < 0.85:
            text = " ".join(words) + ". " + " ".join(reversed(words)) + "!"
        elif kind < 0.95:
            text = "  ".join(words)
        else:
            text = rng.choice(["", None])
        texts.append(text)
    return pa.table({
        "conv_id": [f"c{i // 4}" for i in range(n)],
        "turn_idx": pa.array([i % 4 for i in range(n)], type=pa.int32()),
        "text": texts,
        "tool": [rng.choice([None, "", "search"]) for _ in range(n)],
        "lang": [rng.choice(["en", "fr", "de"]) for _ in range(n)],
    })


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_actors_equal_per_row_process_document(mode, seed, monkeypatch):
    """TripleActor and MentionCountActor, called without Ray, against the
    triples and counts built row by row from process_document."""
    onto_rows, flags = _MODES[mode]
    cfg = PipelineConfig(**flags)
    onto = clean_ontology(onto_rows, has_category=cfg.has_category)
    batch = _random_batch(random.Random(seed), 300)
    matchers = {}
    want_triples, want_counts = [], []
    for conv, turn, text, tool, lang in zip(*[batch[c].to_pylist() for c in batch.column_names]):
        lang = lang if cfg.multilingual else "en"
        if lang not in matchers:
            matchers[lang] = compile_matcher(onto, lang, cfg.match_config, cfg.has_category)
        tid = f"{conv}#{turn}"
        want_triples.append((conv, "utters", tid, conv, turn, 1.0))
        if tool:
            want_triples.append((tid, "used_tool", tool, conv, turn, 1.0))
        counts = Counter(
            (m.tag, m.keyword) for m in process_document(matchers[lang], text)
        )
        for (tag, kw), n in counts.items():
            want_triples.append((f"{tid}#{kw}", "tagged_as", f"concept:{tag}", conv, turn, 1.0))
            want_counts.append((conv, turn, tag, kw, n))
    # the batch's eligible rows are coded by an Arrow split in exactly
    # these modes (category with shared tokens too)
    split_rows = []
    split_codes = VectorizedExactMatcher.split_codes
    monkeypatch.setattr(
        VectorizedExactMatcher, "split_codes",
        lambda self, texts: split_rows.append(len(texts)) or split_codes(self, texts),
    )
    triples = TripleActor(onto, cfg)(batch)
    counts = MentionCountActor(onto, cfg)(batch)
    splits = mode in ("exact", "case", "category", "category_shared")
    assert len(split_rows) == (2 if splits else 0)
    assert all(n > 50 for n in split_rows)
    assert triples.schema == TRIPLE_SCHEMA
    assert _rows(triples, TRIPLE_SCHEMA.names) == sorted(want_triples, key=repr)
    names = ["conv_id", "turn_idx", "tag", "keyword", "n_matches"]
    assert _rows(counts, names) == sorted(want_counts, key=repr)
    assert len(want_counts) > 50  # the batch really exercises the matcher


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_one_kernel_call_per_batch_and_language(mode, monkeypatch):
    """Every actor matches a batch with one kernel call per language in it:
    split rows and per-row rows together, all sentences of all rows."""
    onto_rows, flags = _MODES[mode]
    cfg = PipelineConfig(**flags)
    onto = clean_ontology(onto_rows, has_category=cfg.has_category)
    batch = _random_batch(random.Random(5), 300)
    calls = []
    spans = VectorizedExactMatcher.spans
    monkeypatch.setattr(
        VectorizedExactMatcher, "spans",
        lambda self, code, offs: calls.append(len(offs) - 1) or spans(self, code, offs),
    )
    want = len(set(batch["lang"].to_pylist())) if cfg.multilingual else 1
    actors = [
        MentionActor(onto, cfg),
        TripleActor(onto, cfg),
        TagActor(onto, PipelineConfig(output_format="one_row_per_match", **flags)),
        TagActor(onto, PipelineConfig(output_format="one_row_per_doc", **flags)),
    ]
    for actor in actors:
        calls.clear()
        actor(batch)
        assert len(calls) == want, type(actor).__name__
        assert sum(calls) >= 300  # every row, or every sentence, is a segment
