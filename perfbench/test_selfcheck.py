"""Tiny-size self-check of the benchmark's generator and oracle (no Ray).

    python3 -m pytest perfbench/test_selfcheck.py -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]

import gen  # noqa: E402
import oracle  # noqa: E402

TINY = gen.Spec("tiny", "self-check", turns=400, keywords=64, mixed_share=0.5, files=3, edit_share=0.02)


def _files(root):
    out = {}
    for d, _dirs, names in os.walk(root):
        for n in names:
            with open(os.path.join(d, n), "rb") as f:
                out[os.path.relpath(os.path.join(d, n), root)] = f.read()
    return out


def test_generator_is_byte_stable_per_seed(tmp_path):
    a = gen.generate(TINY, 7, str(tmp_path / "a"))
    b = gen.generate(TINY, 7, str(tmp_path / "b"))
    c = gen.generate(TINY, 8, str(tmp_path / "c"))
    assert a == b
    fa, fb = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert fa and fa == fb
    assert _files(tmp_path / "c") != fa
    assert a["turns_v2"] > a["turns"] and a["edited_convs"]
    assert 0.3 < a["mixed_share_measured"] < 0.7


def _engine_counts(table, ontology, ignore_case):
    """Mentions as the job's general path finds them, turn by turn."""
    from raykg.core.ontology import MatchConfig, clean_ontology, compile_matcher, process_document

    m = compile_matcher(clean_ontology(ontology, has_category=False), "en", MatchConfig(ignore_case=ignore_case), False)
    mentions, tagged, per_tag = 0, set(), {}
    for conv, turn, text in zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist(), table["text"].to_pylist()):
        for mention in process_document(m, text):
            mentions += 1
            tagged.add((conv, turn, mention.keyword))
            t = per_tag.setdefault(mention.tag, {"n": 0, "convs": set()})
            t["n"] += 1
            t["convs"].add(conv)
    return mentions, len(tagged), {k: (v["n"], len(v["convs"])) for k, v in per_tag.items()}


def test_oracle_matches_engine_on_mixed_text(tmp_path):
    import pyarrow.parquet as pq

    cache = str(tmp_path)
    desc = gen.generate(TINY, 3, cache)
    onto_path = gen.path_of(desc, cache, "ontology")
    onto = pq.read_table(onto_path)
    ontology = list(zip(onto["tag"].to_pylist(), onto["keyword"].to_pylist()))
    for name in ("transcripts", "transcripts_v2"):
        path = gen.path_of(desc, cache, name)
        exp = oracle.expected(path, onto_path, ignore_case=True)
        mentions, tagged, per_tag = _engine_counts(pq.read_table(path), ontology, ignore_case=True)
        assert mentions > 50
        assert exp["mentions"] == mentions
        assert {t: (v["n_mentions"], v["n_convs"]) for t, v in exp["per_tag"].items()} == per_tag
        assert sum(v["n_tagged"] for v in exp["per_tag"].values()) == tagged


def test_oracle_matches_vectorized_kernel_on_simple_text(tmp_path):
    import pyarrow.parquet as pq

    from raykg.core.ontology import MatchConfig, clean_ontology, compile_matcher
    from raykg.core.vector_match import VectorizedExactMatcher

    spec = gen.Spec("tiny-simple", "self-check", turns=400, keywords=256, mixed_share=0.0, files=2)
    cache = str(tmp_path)
    desc = gen.generate(spec, 5, cache)
    path, onto_path = gen.path_of(desc, cache, "transcripts"), gen.path_of(desc, cache, "ontology")
    onto = pq.read_table(onto_path)
    rows = clean_ontology(list(zip(onto["tag"].to_pylist(), onto["keyword"].to_pylist())), has_category=False)
    vm = VectorizedExactMatcher(compile_matcher(rows, "en", MatchConfig(), False))
    text = pq.read_table(path)["text"].combine_chunks()
    assert VectorizedExactMatcher.eligible_rows(text).all()
    _rows, _pids, counts = vm.batch_hits(text)
    exp = oracle.expected(path, onto_path, ignore_case=False)
    assert exp["mentions"] == int(counts.sum()) > 50
    assert sum(v["n_tagged"] for v in exp["per_tag"].values()) == len(counts)
