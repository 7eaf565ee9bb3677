"""Training-data hygiene operators: decontamination, PII redaction,
semi/anti joins, and the shared window-hash primitive."""

import numpy as np
import pytest

import ray
import ray.data

import pyarrow as pa

from raykg.ops.decontam import decontaminate
from raykg.ops.join import semi_join
from raykg.ops.text import (
    _window_fingerprint,
    redact,
    repetition_batch,
    window_hashes,
)


def test_window_hashes_basic():
    ws = ["a", "b", "c", "d"]
    h2 = window_hashes(ws, 2)
    assert h2.shape == (3,) and h2.dtype == np.uint64
    # shift invariance: the same window hashes the same anywhere
    assert window_hashes(["x", "a", "b"], 2)[1] == h2[0]
    # too-short inputs have no windows
    assert window_hashes(["a"], 2).size == 0
    assert window_hashes([], 1).size == 0


def test_window_fingerprint_uses_min_window_hash():
    ws = "the quick brown fox jumps over the lazy dog".split()
    assert _window_fingerprint(ws) == int(window_hashes(ws, 8).min() >> np.uint64(1))


@pytest.mark.usefixtures("ray_session")
class TestDecontaminate:
    def _ds(self, rows):
        return ray.data.from_items(rows)

    def test_drops_overlapping_docs(self):
        corpus = self._ds(
            [
                {"doc_id": 1, "text": "alpha beta gamma delta"},  # shares 3-gram
                {"doc_id": 2, "text": "one two three four"},  # clean
                {"doc_id": 3, "text": "beta gamma delta epsilon"},  # shares
                {"doc_id": 4, "text": "short doc"},  # < n words: survives
            ]
        )
        test = self._ds([{"doc_id": 100, "text": "zz alpha beta gamma yy beta gamma delta qq"}])
        out = decontaminate(corpus, test, n=3).to_pandas()
        assert sorted(out["doc_id"]) == [2, 4]

    def test_empty_testset_keeps_all(self):
        corpus = self._ds([{"doc_id": 1, "text": "a b c d e"}])
        test = self._ds([{"doc_id": 9, "text": "xy"}])  # no 3-grams
        out = decontaminate(corpus, test, n=3).to_pandas()
        assert list(out["doc_id"]) == [1]

    def test_null_text_survives(self):
        corpus = ray.data.from_arrow(
            __import__("pyarrow").table(
                {"doc_id": [1, 2], "text": [None, "p q r s"]}
            )
        )
        test = self._ds([{"doc_id": 9, "text": "p q r s"}])
        out = decontaminate(corpus, test, n=3).to_pandas()
        assert list(out["doc_id"]) == [1]


@pytest.mark.usefixtures("ray_session")
class TestRedact:
    def test_rules_in_order(self):
        ds = ray.data.from_items(
            [
                {
                    "doc_id": 1,
                    "text": "mail bob.smith+x@corp.example.org or 415-555-0100 ref 12345",
                }
            ]
        )
        out = redact(ds).to_pandas()
        assert out["text"][0] == "mail <EMAIL> or <PHONE> ref <NUM>"

    def test_out_column_and_custom_rules(self):
        ds = ray.data.from_items([{"t": "abc 99"}])
        out = redact(
            ds, rules=[(r"\d+", "#")], text_column="t", out_column="clean"
        ).to_pandas()
        assert out["t"][0] == "abc 99" and out["clean"][0] == "abc #"


class TestRepetition:
    def _metrics(self, text):
        t = repetition_batch(pa.table({"text": [text]}))
        return {c: t[c][0].as_py() for c in ("top_word_pct", "top_bigram_pct", "dup_word_pct")}

    def test_degenerate_loop_is_flagged(self):
        m = self._metrics("spam spam spam spam")
        assert m == {"top_word_pct": 100, "top_bigram_pct": 100, "dup_word_pct": 75}

    def test_clean_text_scores_low(self):
        m = self._metrics("every word here is completely different")
        assert m == {"top_word_pct": 100 // 6, "top_bigram_pct": 20, "dup_word_pct": 0}

    def test_empty_and_single_word(self):
        assert self._metrics("") == {
            "top_word_pct": 0, "top_bigram_pct": 0, "dup_word_pct": 0,
        }
        assert self._metrics("solo") == {
            "top_word_pct": 100, "top_bigram_pct": 0, "dup_word_pct": 0,
        }

    def test_null_text(self):
        t = repetition_batch(pa.table({"text": pa.array([None], type=pa.string())}))
        assert t["top_word_pct"][0].as_py() == 0


@pytest.mark.usefixtures("ray_session")
def test_group_sample_partition_invariant():
    from raykg.ops.sample import group_sample

    rows = [{"g": "a" if i % 2 else "b", "id": i} for i in range(40)]
    one = group_sample(ray.data.from_items(rows), "g", "id", k=3).to_pandas()
    many = group_sample(
        ray.data.from_items(rows).repartition(7), "g", "id", k=3
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["g", "id", "rank"]].to_numpy()))
    assert key(one) == key(many)
    assert len(one) == 6 and set(one["rank"]) == {1, 2, 3}


@pytest.mark.usefixtures("ray_session")
class TestSemiAntiJoin:
    def _sides(self):
        left = ray.data.from_items(
            [{"k": i, "v": i * 10} for i in range(6)]
        )
        right = ray.data.from_items(
            [{"rk": 1, "x": "a"}, {"rk": 3, "x": "b"}, {"rk": 3, "x": "c"}]
        )
        return left, right

    def test_semi_keeps_members_once(self):
        left, right = self._sides()
        out = semi_join(left, right, on="k", right_on="rk").to_pandas()
        # duplicate right keys must NOT duplicate left rows
        assert sorted(out["k"]) == [1, 3]
        assert set(out.columns) == {"k", "v"}

    def test_anti_drops_members(self):
        left, right = self._sides()
        out = semi_join(left, right, on="k", right_on="rk", anti=True).to_pandas()
        assert sorted(out["k"]) == [0, 2, 4, 5]

    def test_empty_right(self):
        left, right = self._sides()
        empty = right.filter(lambda r: False)
        assert semi_join(left, empty, on="k", right_on="rk").count() == 0
        assert (
            semi_join(left, empty, on="k", right_on="rk", anti=True).count()
            == left.count()
        )

    def test_string_keys(self):
        left = ray.data.from_items([{"k": s} for s in ["a", "b", "c"]])
        right = ray.data.from_items([{"k": "b"}])
        assert semi_join(left, right, on="k").to_pandas()["k"].tolist() == ["b"]
