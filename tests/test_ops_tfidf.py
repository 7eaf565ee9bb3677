"""TF-IDF composition: tf explode, sharded df reduce, join, top-k rank."""

import pytest

import ray
import ray.data

from raykg.ops.tfidf import term_frequencies, tfidf_topk


@pytest.mark.usefixtures("ray_session")
class TestTfidf:
    def _docs(self):
        return ray.data.from_items(
            [
                {"doc_id": 1, "text": "apple banana apple"},
                {"doc_id": 2, "text": "banana cherry"},
                {"doc_id": 3, "text": "cherry cherry durian"},
            ]
        )

    def test_term_frequencies_distinct_rows(self):
        tf = term_frequencies(self._docs()).to_pandas()
        got = {(r.doc_id, r.term): r.tf for r in tf.itertuples()}
        assert got[(1, "apple")] == 2 and got[(3, "cherry")] == 2
        assert len(tf) == 6  # distinct (doc, term) pairs only

    def test_topk_ranks_rare_terms_first(self):
        out = tfidf_topk(self._docs(), k=1).to_pandas().set_index("doc_id")
        # doc 1: apple tf=2 df=1 -> 2.0 beats banana 1/2
        assert out.loc[1, "term"] == "apple"
        # doc 3: cherry 2/2=1.0 beats durian 1/1=1.0? equal -> tie-break
        # 'cherry' < 'durian' alphabetically
        assert out.loc[3, "term"] == "cherry"
        assert (out["rank"] == 1).all()
