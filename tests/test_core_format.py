"""Formatter conformance: the three output shapes (instanciator.py:20-33)."""

import json

from raykg.core.ontology import MatchConfig, clean_ontology, compile_matcher, match_sentences
from raykg.core.format import (
    category_column_name,
    format_doc,
    format_doc_json,
    format_match_rows,
    generate_unique,
    unique_list,
)


def mentions_for(rows, sents, has_category=False, **cfg):
    onto = clean_ontology(rows, has_category=has_category)
    m = compile_matcher(onto, "en", MatchConfig(**cfg), has_category)
    return match_sentences(m, sents)


SENTS = [
    "I have my keyword in this sentence.",
    "I have an oTHer keyWord in the second sentence.",
]
ONTO = [("tag1", "My KeYword"), ("tag2", "other keyword")]


def test_match_rows_no_category():
    rows = format_match_rows(mentions_for(ONTO, SENTS, ignore_case=True), False)
    assert rows == [
        ("tag1", "my keyword", SENTS[0]),
        ("tag2", "other keyword", SENTS[1]),
    ]


def test_match_rows_dedup_within_doc():
    # same keyword twice in one sentence -> identical rows -> collapsed
    # (reference global drop_duplicates, base.py:107)
    rows = format_match_rows(
        mentions_for([("t", "kw")], ["kw and kw again"]), False
    )
    assert rows == [("t", "kw", "kw and kw again")]


def test_match_rows_category():
    ms = mentions_for(
        [("tag1", "my keyword", "catA")], SENTS, has_category=True, ignore_case=True
    )
    rows = format_match_rows(ms, True)
    assert rows == [("catA", "tag1", "my keyword", SENTS[0])]


def test_doc_no_category():
    out = format_doc(mentions_for(ONTO, SENTS, ignore_case=True), False)
    assert json.loads(out["tag_list"]) == ["tag1", "tag2"]
    assert json.loads(out["tag_keywords"]) == ["my keyword", "other keyword"]
    assert out["tag_sentences"] == SENTS[0] + "\n" + SENTS[1] + "\n"


def test_doc_no_category_empty():
    out = format_doc([], False)
    assert out == {"tag_list": None, "tag_keywords": None, "tag_sentences": None}


def test_doc_category():
    ms = mentions_for(
        [("tag1", "my keyword", "catA"), ("tag2", "other keyword", "catB")],
        SENTS,
        has_category=True,
        ignore_case=True,
    )
    out = format_doc(ms, True, all_categories=["catA", "catB"])
    assert json.loads(out[category_column_name("catA")]) == ["tag1"]
    assert json.loads(out[category_column_name("catB")]) == ["tag2"]
    assert json.loads(out["tag_keywords"]) == ["my keyword", "other keyword"]
    # category path joins matched sentences with " " (Appendix B quirk)
    assert out["tag_sentences"] == SENTS[0] + "\n " + SENTS[1] + "\n"


def test_doc_category_no_match_empty_string_sentences():
    # reference appends "" (not NaN) for tag_sentences in category mode
    out = format_doc([], True, all_categories=["catA"])
    assert out[category_column_name("catA")] is None
    assert out["tag_keywords"] is None
    assert out["tag_sentences"] == ""


def test_doc_json_no_category():
    ms = mentions_for([("t1", "kw")], ["kw here and kw there", "also kw"])
    out = format_doc_json(ms, False)
    val = json.loads(out["tag_json_full"])
    assert val == {
        "t1": {
            "count": 3,
            "sentences": ["kw here and kw there", "also kw"],
            "keywords": ["kw"],
        }
    }


def test_doc_json_empty_is_null():
    assert format_doc_json([], False) == {"tag_json_full": None}
    out = format_doc_json([], True)
    assert out["tag_json_categories"] is None and out["tag_json_full"] is None


def test_doc_json_category():
    ms = mentions_for(
        [("t1", "kw", "catA")], ["kw twice kw", "kw again"], has_category=True
    )
    out = format_doc_json(ms, True)
    cats = json.loads(out["tag_json_categories"])
    full = json.loads(out["tag_json_full"])
    assert cats == {"catA": ["t1"]}
    assert full["catA"]["t1"]["count"] == 3
    assert full["catA"]["t1"]["sentences"] == ["kw twice kw", "kw again"]


def test_unique_helpers():
    assert unique_list(["b", "a", "b", "c"]) == ["b", "a", "c"]
    assert generate_unique("tag", ["tag", "tag_1"]) == "tag_2"
    assert generate_unique("tag", ["x"]) == "tag"


def test_truncate_text_list():
    """Reference cleaning_utils.py:24-40 semantics: strings over the limit
    get cut and marked with ' (...)'; shorter ones pass through."""
    from raykg.core.format import truncate_text_list

    long = "x" * 200
    out = truncate_text_list(["short", long], num_characters=140)
    assert out[0] == "short"
    assert out[1] == "x" * 140 + " (...)"
    assert truncate_text_list([]) == []


def test_oversize_document_error_quotes_truncated_text():
    """The per-document tokenization error must quote the doc TRUNCATED
    (reference spacy_tokenizer.py:428), never the full 10^7-char body."""
    import pyarrow as pa
    import pytest

    from raykg.core.ontology import OntologyRow
    from raykg.pipeline.config import PipelineConfig
    from raykg.pipeline.tag import TagActor

    actor = TagActor(
        [OntologyRow("T", "word")],
        PipelineConfig(language="en", category_column=None),
    )
    actor._get_matcher("en").tokenizer.max_num_characters = 50
    with pytest.raises(ValueError) as ei:
        actor._mentions(pa.table({"text": ["word", "word " * 100]}))
    msg = str(ei.value)
    assert "Tokenization error" in msg and "(...)" in msg
    # the quoted doc is cut at 140 chars, not the full body
    assert len(msg) < 400
