"""The tokenize stage (reference spacy_tokenizer.py ``tokenize_list``)."""

import pandas as pd
import pytest

import ray.data

from raykg.ops.text import add_tokens


@pytest.mark.usefixtures("ray_session")
def test_tokenize_and_filter_stages():
    rows = [
        {"doc_id": 0, "text": "I hope nothing. 💩 #OMG 5km", "lang": "en"},
        {"doc_id": 1, "text": "les violons d'automne", "lang": "fr"},
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    toks = add_tokens(ds, language_column="lang", concurrency=1)
    out = toks.to_pandas()
    assert list(out["tokens"][0]) == ["I", "hope", "nothing", ".", "💩", "#OMG", "5km"]
    assert list(out["tokens"][1]) == ["les", "violons", "d'", "automne"]
