"""Distinct row set operation."""

import pytest

import ray
import ray.data

from raykg.ops.setops import distinct_rows


@pytest.mark.usefixtures("ray_session")
class TestSetOps:
    def test_distinct_multi_column(self):
        ds = ray.data.from_items(
            [{"a": 1, "b": "x"}, {"a": 1, "b": "x"}, {"a": 1, "b": "y"}]
        ).repartition(3)
        out = distinct_rows(ds, ["a", "b"]).to_pandas()
        assert len(out) == 2 and set(out.columns) == {"a", "b"}
