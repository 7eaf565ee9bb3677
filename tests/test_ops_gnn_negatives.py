"""Unit test: the per-group quantile gate."""

import pandas as pd
import pytest

import ray.data

from raykg.ops.sample import group_quantile_filter


@pytest.mark.usefixtures("ray_session")
def test_group_quantile_filter_matches_duckdb_quantile_disc():
    import duckdb

    df = pd.DataFrame(
        {
            "g": ["a"] * 5 + ["b"] * 4 + ["c"],
            "val": [3, 1, 4, 1, 5, 9, 2, 6, 5, 7],
            "id": range(10),
        }
    )
    ds = ray.data.from_pandas(df)
    got = (
        group_quantile_filter(ds, "g", "val", 0.5, num_shards=4)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        """
        WITH thr AS (SELECT g, quantile_disc(val, 0.5) AS q FROM t GROUP BY g)
        SELECT t.g, t.val, t.id FROM t JOIN thr USING (g) WHERE t.val >= thr.q
        ORDER BY id
        """
    ).df()
    assert got.id.tolist() == want.id.tolist()
