"""Vectorized batch matcher: equivalence with the per-row engine, eligibility
rules, and mode gating (core/vector_match.py)."""

import random

import pyarrow as pa
import pytest

from raykg.core.ontology import (
    MatchConfig,
    clean_ontology,
    compile_matcher,
    process_document,
)
from raykg.core.vector_match import VectorizedExactMatcher, get_vectorized

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


@pytest.mark.parametrize("flags", [{}, {"ignore_case": True}], ids=["exact", "case"])
@pytest.mark.parametrize("has_cat", [False, True], ids=["nocat", "cat"])
def test_fuzz_equivalence(flags, has_cat):
    m = matcher(has_cat=has_cat, **flags)
    vm = VectorizedExactMatcher(m)
    assert vm.mode_ok  # ONTO patterns are token-disjoint
    rng = random.Random(11)
    texts = []
    for _ in range(300):
        words = [rng.choice(VOCAB) for _ in range(rng.randint(1, 30))]
        if flags.get("ignore_case"):
            words = [w.upper() if rng.random() < 0.3 else w for w in words]
        texts.append(" ".join(words))
    assert vm.eligible_rows(texts).all()
    fast = vm.batch_counts(texts)
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t


def test_eligibility_rules():
    vm = VectorizedExactMatcher(matcher())
    good = ["spark window", "a", "UPPER case OK", "x1 b2 3"]
    bad = ["", "two  spaces", " leading", "trailing ", "punct.", "uni é", "new\nline", None]
    mask = vm.eligible_rows(good + bad)
    assert mask[: len(good)].all()
    assert not mask[len(good):].any()
    # arrow-array form agrees with the python form
    arrow_mask = vm.eligible_rows(pa.array(good + bad, type=pa.string()))
    assert (mask == arrow_mask).all()


def test_mode_gating():
    # lemmatization -> never vectorized
    assert get_vectorized(matcher(lemmatization=True)) is None
    # strict_reference -> never vectorized
    assert get_vectorized(matcher(strict_reference=True)) is None
    # category mode with overlapping patterns (shared token) -> not vectorized
    onto = clean_ontology(
        [("A", "big data", "x"), ("B", "data", "y")], has_category=True
    )
    m = compile_matcher(onto, "en", MatchConfig(), True)
    assert get_vectorized(m) is None
    # ...but the same patterns in no-category (all-matches) mode ARE ok
    onto2 = clean_ontology([("A", "big data"), ("B", "data")], has_category=False)
    m2 = compile_matcher(onto2, "en", MatchConfig(), False)
    vm2 = get_vectorized(m2)
    assert vm2 is not None
    counts = vm2.batch_counts(["big data data"])
    # "big data" once; "data" twice (all-matches incl. the one inside bigram)
    assert resolved_counts(m2, counts[0]) == slow_counts(m2, "big data data")


def test_batch_hits_shapes():
    m = matcher()
    vm = VectorizedExactMatcher(m)
    rows, pids, counts = vm.batch_hits(["spark spark", "nothing here", "agg row window"])
    assert len(rows) == len(pids) == len(counts)
    got = {(int(r), int(p)): int(c) for r, p, c in zip(rows, pids, counts)}
    # row 0: spark twice; row 2: agg row once + window once
    assert got[(0, 0)] == 2
    assert got[(2, 2)] == 1 and got[(2, 1)] == 1
    assert not any(r == 1 for r, _ in got)


def test_empty_inputs():
    vm = VectorizedExactMatcher(matcher())
    assert vm.batch_counts([]) == []
    rows, pids, counts = vm.batch_hits([])
    assert len(rows) == 0


def test_mode_gating_self_overlap():
    # a pattern with a repeated token ("bye bye") can self-overlap; in
    # category (longest-wins) mode the shifted-equality kernel would count
    # overlapping occurrences the span filter removes -> general path only
    onto = clean_ontology(
        [("Bye", "bye bye", "x"), ("Hi", "hello", "y")], has_category=True
    )
    m = compile_matcher(onto, "en", MatchConfig(), True)
    assert get_vectorized(m) is None
    assert slow_counts(m, "bye bye bye") == {("Bye", "x", "bye bye"): 1}
    # in all-matches (no-category) mode overlapping self-matches are real
    # matches and the vectorized kernel agrees with the general path
    onto2 = clean_ontology([("Bye", "bye bye")], has_category=False)
    m2 = compile_matcher(onto2, "en", MatchConfig(), False)
    vm2 = get_vectorized(m2)
    assert vm2 is not None
    counts = vm2.batch_counts(["bye bye bye"])
    expect = slow_counts(m2, "bye bye bye")
    assert resolved_counts(m2, counts[0]) == expect
    assert sum(expect.values()) == 2  # both overlapping occurrences


def test_fuzz_repeated_word_keywords_no_category():
    # fuzz the self-overlap shape in the mode where it IS vectorized
    import random as _random

    onto = clean_ontology([("Bye", "bye bye"), ("Go", "go")], has_category=False)
    m = compile_matcher(onto, "en", MatchConfig(), False)
    vm = get_vectorized(m)
    assert vm is not None
    rng = _random.Random(7)
    texts = [
        " ".join(rng.choice(["bye", "go", "x"]) for _ in range(rng.randint(1, 12)))
        for _ in range(200)
    ]
    fast = vm.batch_counts(texts)
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t


def test_kernel_edges():
    # a keyword inside a longer word, matches that would span row
    # boundaries in the flat token column, empty rows (incl. trailing),
    # sliced/offset arrays, and large_string input
    onto = clean_ontology([("Engine", "spark", "tech"), ("B", "ab", "x")], True)
    m = compile_matcher(onto, "en", MatchConfig(), True)
    vm = VectorizedExactMatcher(m)
    out = vm.batch_counts(["ab", "", "drab spark sparkle", ""])
    assert out[0] == {1: 1}
    assert out[2] == {0: 1}  # not "drab"/"sparkle" substrings
    assert out[1] == {} and out[3] == {}
    # row-boundary span: rows "x spa" + "rk y" abut as "x spark y" in the
    # concatenated data buffer, so a naive byte scan would see "spark"; the
    # same-row check must reject it
    rows, pids, counts = vm.batch_hits(["x spa", "rk y"])
    assert len(rows) == 0
    # a two-token keyword split across two rows ("agg" | "row") is no match
    vm2 = VectorizedExactMatcher(matcher())
    assert vm2.batch_counts(["spark agg", "row x"]) == [{0: 1}, {}]
    # sliced array with non-zero offset + large_string agree with lists
    arr = pa.array(["pad", "spark ab", "ab spark spark"], type=pa.string())
    sl = arr.slice(1, 2)
    got = vm.batch_counts(sl)
    assert got == vm.batch_counts(["spark ab", "ab spark spark"])
    ls = pa.array(["spark ab"], type=pa.large_string())
    assert vm.batch_counts(ls) == vm.batch_counts(["spark ab"])


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
    vm = get_vectorized(m)
    assert vm is not None
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
    assert vm.eligible_rows(texts).all()
    # an Arrow array sliced at a non-zero offset, in two pieces
    arr = pa.array(["pad row"] * 7 + texts, type=pa.string())
    fast = vm.batch_counts(arr.slice(7, 150)) + vm.batch_counts(arr.slice(157))
    assert fast == vm.batch_counts(texts)
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
    vm = get_vectorized(m)
    assert len(vm.token_ids) == n_tokens
    texts = [
        long_kw,
        "x " + long_kw + " f3 " + long_kw,
        " ".join(["w2"] + [f"w{i}" for i in range(1, 8)]),
        " ".join(["w4"] + [f"w{i}" for i in range(1, 8)]),
        " ".join([f"w{i}" for i in range(7)] + ["w5"]),
        " ".join(f"w{i}" for i in range(7)),
    ]
    fast = vm.batch_counts(texts)
    assert fast[0] == {0: 1}
    assert fast[1] == {0: 2, 4: 1}
    assert fast[2:] == [{}, {}, {}, {}]
    for i, t in enumerate(texts):
        assert resolved_counts(m, fast[i]) == slow_counts(m, t), t
