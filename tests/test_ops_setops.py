"""Distinct / except row set operations."""

import pytest

import ray
import ray.data

from raykg.ops.setops import distinct_rows, except_rows


@pytest.mark.usefixtures("ray_session")
class TestSetOps:
    def test_distinct_multi_column(self):
        ds = ray.data.from_items(
            [{"a": 1, "b": "x"}, {"a": 1, "b": "x"}, {"a": 1, "b": "y"}]
        ).repartition(3)
        out = distinct_rows(ds, ["a", "b"]).to_pandas()
        assert len(out) == 2 and set(out.columns) == {"a", "b"}

    def test_except_positional_column_match(self):
        l = ray.data.from_items([{"c_id": v} for v in [1, 2, 2, 3]])
        r = ray.data.from_items([{"o_id": v} for v in [2]])
        out = except_rows(l, r, ["c_id"]).to_pandas()
        assert sorted(out["c_id"]) == [1, 3]
        assert list(out.columns) == ["c_id"]

    def test_null_rows_participate(self):
        import pyarrow as pa

        l = ray.data.from_arrow(pa.table({"k": [1, None, 2]}))
        r = ray.data.from_arrow(pa.table({"k": pa.array([None], type=pa.int64())}))
        out = except_rows(l, r, ["k"]).to_pandas()
        # SQL EXCEPT treats NULL as equal to NULL
        assert sorted(out["k"]) == [1, 2]

    def test_multi_column_separator_safety(self):
        # ("a|b", "c") must not collide with ("a", "b|c")
        l = ray.data.from_items([{"x": "a\x1fb", "y": "c"}])
        r = ray.data.from_items([{"x": "a", "y": "b\x1fc"}])
        assert except_rows(l, r, ["x", "y"]).count() == 1
