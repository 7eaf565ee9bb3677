"""Operator tests: sharded aggregation, per-group top-k, BPE pair
counts, text stats."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data

from raykg.ops.text import add_fingerprints, add_lang_id, add_quality, add_token_counts


def docs_ds(rows):
    return ray.data.from_pandas(pd.DataFrame(rows))


def test_sharded_agg_parity(ray_session):
    # sharded_groupby_apply == a plain pandas groupby, for random data
    # across int and string keys (exactness does not depend on sharding)
    from raykg.ops.agg import sharded_groupby_apply

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "k1": rng.randint(0, 200, size=2000),
            "k2": rng.choice(list("abcdefg"), size=2000),
            "v": rng.randint(-50, 50, size=2000),
        }
    )
    want = (
        df.groupby(["k1", "k2"], sort=False)["v"]
        .agg(["sum", "min", "count"])
        .reset_index()
        .rename(columns={"sum": "s", "min": "m", "count": "c"})
    )
    want["c"] = want["c"].astype("int64")

    def combine(g):
        out = (
            g.groupby(["k1", "k2"], sort=False)["v"]
            .agg(["sum", "min", "count"])
            .reset_index()
            .rename(columns={"sum": "s", "min": "m", "count": "c"})
        )
        out["c"] = out["c"].astype("int64")
        return out

    got = sharded_groupby_apply(docs_ds(df), ["k1", "k2"], combine, num_shards=7)
    got = got.to_pandas()
    key = ["k1", "k2"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )


def test_group_topk(ray_session):
    from raykg.ops.topk import group_topk

    rows = pd.DataFrame(
        {
            "k": ["a", "a", "a", "b", "b"],
            "v": [3, 1, 3, 2, 5],
            "t": ["z", "x", "y", "x", "y"],
        }
    )
    out = (
        group_topk(docs_ds(rows), ["k"], "v", k=2, tiebreak=["t"])
        .to_pandas()
        .sort_values(["k", "rank"])
        .reset_index(drop=True)
    )
    # a: ties at v=3 broken by t asc -> (3,'y') rank1, (3,'z') rank2
    assert list(out["k"]) == ["a", "a", "b", "b"]
    assert list(out["v"]) == [3, 3, 5, 2]
    assert list(out["t"]) == ["y", "z", "y", "x"]
    assert list(out["rank"]) == [1, 2, 1, 2]


@pytest.mark.usefixtures("ray_session")
class TestBpe:
    def test_pair_counts_matches_bruteforce(self):
        from collections import Counter

        from raykg.ops.bpe import pair_counts
        from raykg.ops.text import WORD_RE

        rows = [
            {"text": "low lower  lowest\tlow"},
            {"text": "new newer newest 😀😀ab"},
            {"text": ""},
            {"text": "a"},
        ]
        out = pair_counts(docs_ds(rows), num_shards=3).to_pandas()
        exp: Counter = Counter()
        for r in rows:
            for w in WORD_RE.findall(r["text"]):
                for i in range(len(w) - 1):
                    exp[(w[i], w[i + 1])] += 1
        got = {(a, b): int(c) for a, b, c in zip(out["sym_a"], out["sym_b"], out["cnt"])}
        assert got == dict(exp)

    def test_pair_counts_fuzz(self):
        from collections import Counter

        from raykg.ops.bpe import pair_counts
        from raykg.ops.text import WORD_RE

        rng = np.random.RandomState(21)
        # include unicode whitespace, emoji, and CJK in the alphabet
        alphabet = list("ab1.#") + ["😀", "界", "\t", " ", "\n", " ", "　"]
        rows = [
            {"text": "".join(rng.choice(alphabet, rng.randint(0, 60)))}
            for _ in range(40)
        ]
        out = pair_counts(docs_ds(rows), num_shards=4).to_pandas()
        exp: Counter = Counter()
        for r in rows:
            for w in WORD_RE.findall(r["text"]):
                for i in range(len(w) - 1):
                    exp[(w[i], w[i + 1])] += 1
        got = {(a, b): int(c) for a, b, c in zip(out["sym_a"], out["sym_b"], out["cnt"])}
        assert got == dict(exp)

@pytest.mark.usefixtures("ray_session")
class TestTextOps:
    ROWS = [
        {"doc_id": 0, "text": "the quick fox. #tag!"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "le la les de des et"},
    ]

    def test_token_count(self):
        out = add_token_counts(docs_ds(self.ROWS)).to_pandas()
        assert out["n_tokens"].tolist() == [7, 0, 6]

    def test_quality(self):
        out = add_quality(docs_ds(self.ROWS)).to_pandas().set_index("doc_id")
        assert out.loc[0, "n_words"] == 4
        assert out.loc[1, "quality_score"] == 0
        assert out.loc[2, "n_distinct_words"] == 6

    def test_fingerprints(self):
        out = add_fingerprints(docs_ds(self.ROWS)).to_pandas()
        import hashlib

        assert out["text_md5"][0] == hashlib.md5(self.ROWS[0]["text"].encode()).hexdigest()
        assert (out["fingerprint"] >= 0).all()

    def test_lang_id(self):
        out = add_lang_id(docs_ds(self.ROWS), concurrency=1).to_pandas()
        assert out["pred_lang"].tolist()[0] == "en"
        assert out["pred_lang"].tolist()[2] == "fr"


def test_readability_batch_counts_and_formula():
    import pyarrow as pa
    from raykg.ops.text import readability_batch

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "The cat sat. It purred!",       # 5 words, 2 sents
                "Rhythm tv",                      # vowel-less words
                "",                               # dropped (0 words)
                "No punctuation here",            # sentence floor = 1
            ],
        }
    )
    out = readability_batch(t)
    assert out["doc_id"].to_pylist() == [1, 2, 4]
    r = {d: (w, s, y) for d, w, s, y in zip(
        out["doc_id"].to_pylist(), out["n_words"].to_pylist(),
        out["n_sentences"].to_pylist(), out["n_syllables"].to_pylist())}
    # "the cat sat it purred": syllables e/a/a/i/u+e = 6 vowel groups
    assert r[1] == (5, 2, 6)
    # "rhythm tv": y counts as vowel -> rhythm has 1 group; tv floors at 1
    assert r[2] == (2, 1, 2)
    assert r[4] == (3, 1, 6)
    w, s, y = r[1]
    expect = round(206.835 - 1.015 * (w / s) - 84.6 * (y / w), 6)
    assert out["flesch"].to_pylist()[0] == expect


def test_sharded_groupby_volume_guard(ray_session):
    """A shard over the fit-in-worker cap fails loudly, naming the hot
    key and the scale-safe alternative — never a silent OOM at 100x."""
    import pandas as pd
    import pytest
    import ray.data

    from raykg.ops.agg import sharded_groupby_apply

    df = pd.DataFrame({"k": ["hot"] * 90 + ["cold"] * 10, "v": range(100)})
    ds = ray.data.from_pandas(df).repartition(4)
    with pytest.raises(Exception, match="hot"):
        sharded_groupby_apply(
            ds, ["k"], lambda g: g.groupby("k").size().reset_index(),
            num_shards=1, row_cap=50,
        ).materialize()
    # under the cap: runs fine
    out = sharded_groupby_apply(
        ds, ["k"], lambda g: g.groupby("k", sort=False).size().rename("n").reset_index(),
        num_shards=1, row_cap=1000,
    ).to_pandas()
    assert sorted(out["n"].tolist()) == [10, 90]


def test_sharded_groupby_byte_cap_counts_string_bytes(ray_session):
    """The byte cap counts the bytes of string values, not 8-byte object
    pointers: a few rows of long strings over a small cap must raise."""
    import pandas as pd
    import pytest
    import ray.data

    from raykg.ops.agg import sharded_groupby_apply

    df = pd.DataFrame({"k": ["a", "b", "c", "d"], "text": ["x" * 100_000] * 4})
    ds = ray.data.from_pandas(df)

    def apply(g):
        return g.groupby("k").size().rename("n").reset_index()

    with pytest.raises(Exception, match="fit-in-one-worker cap"):
        sharded_groupby_apply(ds, ["k"], apply, num_shards=1, byte_cap=64 << 10).materialize()
    out = sharded_groupby_apply(ds, ["k"], apply, num_shards=1, byte_cap=8 << 20).to_pandas()
    assert sorted(out["k"]) == ["a", "b", "c", "d"]


def test_default_shards_env_knob(monkeypatch):
    from raykg.ops.agg import default_shards

    assert default_shards(16) == 16           # explicit wins
    assert default_shards(None) == 64         # fallback
    monkeypatch.setenv("RAYKG_NUM_SHARDS", "256")
    assert default_shards(None) == 256        # cluster-wide env
    assert default_shards(8) == 8
