"""Corpus bigram LM fluency score: local-reference parity, edge docs."""
import numpy as np
import pandas as pd
import ray.data

from raykg.ops.lm import lm_score

DOCS = [
    "the cat sat on the mat",
    "the cat ran",
    "the dog sat on the cat",
    "mat",          # 1 token: no bigrams, absent from output
    "",             # empty: absent
    "cat cat cat",  # repeated bigram: multiplicity counted
]


def local_scores(docs):
    from collections import Counter

    c12, c1 = Counter(), Counter()
    for d in docs:
        toks = d.split()
        for a, b in zip(toks, toks[1:]):
            c12[(a, b)] += 1
            c1[a] += 1
    out = {}
    for i, d in enumerate(docs):
        toks = d.split()
        ps = [c12[(a, b)] / c1[a] for a, b in zip(toks, toks[1:])]
        if ps:
            out[i] = round(float(np.mean(ps)), 6)
    return out


def test_matches_local_reference(ray_session):
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(len(DOCS)), "text": DOCS})
    ).repartition(3)
    out = lm_score(ds, num_shards=4).to_pandas()
    got = dict(zip(out["doc_id"], out["lm_score"]))
    want = local_scores(DOCS)
    assert set(got) == set(want)
    for k in want:
        assert got[k] == want[k], (k, got[k], want[k])


def test_self_repeating_doc_scores_high(ray_session):
    # 'cat cat' transitions always seen -> higher mean prob than rare mixes
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(len(DOCS)), "text": DOCS})
    )
    out = lm_score(ds, num_shards=4).to_pandas()
    got = dict(zip(out["doc_id"], out["lm_score"]))
    assert got[5] >= got[1]


def test_doc_bigrams_on_sliced_token_lists():
    # a sliced list<string> array: its offsets start past 0 and index into
    # the whole child array, so bigrams must come from the slice's own range
    import pyarrow as pa
    import pyarrow.compute as pc

    from raykg.ops.lm import _doc_bigrams

    toks = pc.utf8_split_whitespace(
        pa.array(["pad tokens here", "a b c", " d  e ", "f", "g h"])
    )
    sliced = toks.slice(1, 3)
    assert sliced.offsets.to_pylist()[0] > 0
    doc, w1, w2 = _doc_bigrams(sliced)
    got = list(zip(doc.tolist(), w1.to_pylist(), w2.to_pylist()))
    assert got == [(0, "a", "b"), (0, "b", "c"), (1, "d", "e")]
    # and the unsliced array gives the same pairs, shifted by one doc
    doc_all, w1_all, _ = _doc_bigrams(toks)
    assert doc_all.tolist() == [0, 0, 1, 1, 2, 4]
    assert w1_all.to_pylist()[2:5] == ["a", "b", "d"]
