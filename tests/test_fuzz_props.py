"""Property-based fuzz tests (hypothesis) for the pure-python kernels:
tokenizer character conservation, normalization idempotence and the
novelty gram-hash kernel.  No Ray — these pin the
kernels the distributed stages call per batch."""

import numpy as np
from hypothesis import given, settings, strategies as st

SETTINGS = dict(max_examples=30, deadline=None)


@settings(**SETTINGS)
@given(text=st.text(max_size=200), lang=st.sampled_from(["en", "fr", "de", "ja", "zh", "ru", "tr", "fi"]))
def test_tokenizer_conserves_non_space_characters(text, lang):
    """No tokenizer may drop or duplicate non-whitespace characters —
    the reconstruction invariant the reference's tokenizer guarantees."""
    from raykg.core.tokenize import Tokenizer

    toks = Tokenizer(lang).tokenize(text)
    got = "".join("".join(t[0].split()) for t in toks)
    want = "".join(text.split())
    assert got == want
    # and every token's (start, end) span matches its text
    for t, s0, s1 in toks:
        assert text[s0:s1] == t


@settings(**SETTINGS)
@given(text=st.text(max_size=120))
def test_normalization_idempotent(text):
    from raykg.core.normalize import normalize

    once = normalize(text, ignore_case=True, ignore_diacritics=True)
    twice = normalize(once, ignore_case=True, ignore_diacritics=True)
    assert once == twice


@settings(**SETTINGS)
@given(
    nwords=st.integers(0, 120),
    vocab=st.integers(1, 20),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_novelty_gram_hashes_props(nwords, vocab, n, seed):
    """Distinct-gram hashes: sorted unique, count bounded by both the
    gram count and vocabulary^n, empty only for empty input."""
    from raykg.ops.novelty import _distinct_gram_hashes

    rng = np.random.default_rng(seed)
    text = " ".join(f"w{i}" for i in rng.integers(0, vocab, nwords))
    h = _distinct_gram_hashes(text, n)
    if nwords == 0:
        assert h.size == 0
        return
    assert h.size >= 1
    assert (np.diff(h) > 0).all()  # sorted strictly increasing (unique)
    assert h.size <= max(nwords - n + 1, 1)
    assert (h >= 0).all()  # 63-bit non-negative
