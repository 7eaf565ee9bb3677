"""KMV distinct-count sketch: exactness below k, accuracy above, and the
DuckDB mirror computing the identical estimate."""

import duckdb
import pandas as pd
import pytest

import ray
import ray.data

from raykg.ops.sketch import kmv_distinct, kmv_oracle_sql


@pytest.mark.usefixtures("ray_session")
class TestKmv:
    def test_exact_when_below_k(self):
        ds = ray.data.from_items([{"v": i % 37} for i in range(500)])
        out = kmv_distinct(ds, "v", k=256)
        assert out["n_distinct_est"][0] == 37

    def test_estimate_within_10pct(self):
        n = 10_000
        ds = ray.data.from_items([{"v": i} for i in range(n)]).repartition(8)
        est = kmv_distinct(ds, "v", k=256)["n_distinct_est"][0]
        assert abs(est - n) / n < 0.10, est

    def test_nulls_ignored(self):
        ds = ray.data.from_arrow(
            __import__("pyarrow").table({"v": [1, None, 2, None, 1]})
        )
        assert kmv_distinct(ds, "v", k=16)["n_distinct_est"][0] == 2

    def test_sql_mirror_identical(self):
        df = pd.DataFrame({"v": [i % 997 for i in range(5000)]})
        ds = ray.data.from_pandas(df).repartition(4)
        mine = kmv_distinct(ds, "v", k=128)["n_distinct_est"][0]
        con = duckdb.connect()
        con.register("t", df)
        theirs = con.execute(kmv_oracle_sql("t", "v", k=128)).fetchone()[0]
        assert mine == theirs


@pytest.mark.usefixtures("ray_session")
class TestCountMin:
    def test_upper_bound_and_exact_when_sparse(self):
        from raykg.ops.sketch import countmin_counts

        df = pd.DataFrame({"v": ["a"] * 50 + ["b"] * 30 + ["c"] * 5})
        out = countmin_counts(
            ray.data.from_pandas(df).repartition(4), "v", probes=["a", "b", "c", "zz"]
        )
        got = dict(zip(out["key"], out["est"]))
        # estimates never undercount; with 3 distinct values in 4x512 cells
        # there are no collisions, so they are exact — and absent keys are 0
        assert got == {"a": 50, "b": 30, "c": 5, "zz": 0}

    def test_partition_invariance(self):
        from raykg.ops.sketch import countmin_counts

        df = pd.DataFrame({"v": [str(i % 17) for i in range(300)]})
        a = countmin_counts(ray.data.from_pandas(df).repartition(1), "v", probes=["3"])
        b = countmin_counts(ray.data.from_pandas(df).repartition(9), "v", probes=["3"])
        assert a["est"].tolist() == b["est"].tolist()

    def test_sql_mirror_identical(self):
        from raykg.ops.sketch import countmin_counts, countmin_oracle_sql

        df = pd.DataFrame({"v": [f"k{i % 11}" for i in range(200)] + [None] * 5})
        got = countmin_counts(
            ray.data.from_pandas(df).repartition(3), "v", probes=["k0", "k7", "nope"]
        )
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql(
            countmin_oracle_sql("t", "v", probes=["k0", "k7", "nope"])
        ).df()
        assert got["key"].tolist() == want["key"].tolist()
        assert got["est"].tolist() == want["est"].tolist()


class TestHll:
    def test_registers_partition_invariant(self):
        from raykg.ops.sketch import hll_registers

        df = pd.DataFrame({"v": [f"u{i % 400}" for i in range(1000)]})
        a = hll_registers(ray.data.from_pandas(df).repartition(1), "v")
        b = hll_registers(ray.data.from_pandas(df).repartition(9), "v")
        pd.testing.assert_frame_equal(
            a.sort_values("idx").reset_index(drop=True),
            b.sort_values("idx").reset_index(drop=True),
        )

    def test_sql_mirror_identical(self):
        from raykg.ops.sketch import hll_oracle_sql, hll_registers

        df = pd.DataFrame(
            {"v": [f"x{i % 333}" for i in range(900)] + [None] * 4}
        )
        got = hll_registers(ray.data.from_pandas(df).repartition(5), "v")
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql(hll_oracle_sql("t", "v")).df()
        g = got.sort_values("idx").reset_index(drop=True)
        w = want.sort_values("idx").reset_index(drop=True).astype("int64")
        pd.testing.assert_frame_equal(g, w)


def test_heavy_hitters_exact_even_with_collisions(ray_session):
    import pandas as pd
    import numpy as np
    import ray.data
    from raykg.ops.sketch import heavy_hitters

    rng = np.random.default_rng(5)
    # zipf-ish: a few heavy keys, long light tail
    vals = (
        ["hot_a"] * 120 + ["hot_b"] * 80 + ["warm"] * 19
        + [f"tail{i}" for i in rng.integers(0, 400, 600)]
    )
    df = pd.DataFrame({"k": vals})
    want = df["k"].value_counts()
    want = want[want >= 20].to_dict()
    for width in (8, 512):  # width=8 forces massive CM collisions
        out = heavy_hitters(
            ray.data.from_pandas(df).repartition(5), "k",
            min_count=20, width=width, num_shards=4,
        ).to_pandas()
        assert dict(zip(out["key"], out["n"])) == want, width
