"""Unit tests: the radix hierarchy rollup and zip_with_index."""

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from raykg.ops.rollup import hierarchy_rollup


@pytest.mark.usefixtures("ray_session")
def test_hierarchy_rollup_hand_checked():
    # ids 0, 7, 23, 234: ancestor chains 0; 7,0; 23,2,0; 234,23,2,0
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 7, 23, 234], type=pa.int64()),
                "val": pa.array([1, 10, 100, 1000], type=pa.int64()),
            }
        )
    )
    out = (
        hierarchy_rollup(ds, "doc_id", "val", base=10, num_shards=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "node": [0, 2, 7, 23, 234],
            "n_leaves": [4, 2, 1, 2, 1],
            "total": [1111, 1100, 10, 1100, 1000],
        }
    )
    pd.testing.assert_frame_equal(out, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_hierarchy_rollup_matches_duckdb_recursive():
    import duckdb
    import numpy as np

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {"doc_id": rng.randint(0, 100000, 300), "val": rng.randint(1, 50, 300)}
    )
    got = (
        hierarchy_rollup(ray.data.from_pandas(df), "doc_id", "val", num_shards=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """
        WITH RECURSIVE anc AS (
            SELECT doc_id AS node, val FROM t
            UNION ALL
            SELECT node // 10, val FROM anc WHERE node > 0)
        SELECT node, CAST(COUNT(*) AS BIGINT) AS n_leaves,
               CAST(SUM(val) AS BIGINT) AS total
        FROM anc GROUP BY node ORDER BY node
        """
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_zip_with_index_matches_row_number():
    import numpy as np

    from raykg.ops.index import zip_with_index

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {"k": ["n%05d" % v for v in rng.permutation(2000)], "x": rng.randint(0, 9, 2000)}
    )
    ds = ray.data.from_pandas([df.iloc[i : i + 100] for i in range(0, 2000, 100)])
    out = zip_with_index(ds, sort_key="k").to_pandas().sort_values("rank")
    assert out["rank"].tolist() == list(range(2000))
    assert out.k.tolist() == sorted(df.k.tolist())  # == row_number ORDER BY k
    # payload column rides along untouched
    orig = df.set_index("k")["x"]
    assert (out.set_index("k")["x"] == orig.loc[out.k].values).all()


@pytest.mark.usefixtures("ray_session")
def test_zip_with_index_null_sort_key_raises():
    """A null sort key has no row_number position; it must fail loudly,
    not silently drop the block holding it (non-null rows included)."""
    from raykg.ops.index import zip_with_index

    df = pd.DataFrame({"k": [None, "a", "b", "c"], "x": [1, 2, 3, 4]})
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])
    with pytest.raises(ValueError, match="null"):
        zip_with_index(ds, sort_key="k").materialize()


@pytest.mark.usefixtures("ray_session")
def test_zip_with_index_keeps_rows_of_partly_empty_block_layout():
    """Empty blocks are droppable; non-empty ones must all be numbered."""
    from raykg.ops.index import zip_with_index

    df = pd.DataFrame({"k": ["b", "a", "d", "c"], "x": [1, 2, 3, 4]})
    ds = ray.data.from_pandas(
        [df.iloc[:2], df.iloc[:0], df.iloc[2:]]  # middle block empty
    )
    out = zip_with_index(ds, sort_key="k").to_pandas().sort_values("rank")
    assert out["k"].tolist() == ["a", "b", "c", "d"]
    assert out["rank"].tolist() == [0, 1, 2, 3]
