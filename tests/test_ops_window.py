"""Per-key window functions: lag/lead/row_number/running aggregates."""

import pandas as pd
import pytest

import ray
import ray.data

from raykg.ops.window import window_over


@pytest.mark.usefixtures("ray_session")
class TestWindowOver:
    def _ds(self):
        rows = [
            {"k": "a", "t": 3, "v": 30},
            {"k": "a", "t": 1, "v": 10},
            {"k": "a", "t": 2, "v": 20},
            {"k": "b", "t": 1, "v": 5},
            {"k": "b", "t": 2, "v": 7},
        ]
        return ray.data.from_items(rows)

    def _run(self, specs) -> pd.DataFrame:
        return (
            window_over(self._ds(), keys=["k"], order_by=["t"], specs=specs)
            .to_pandas()
            .sort_values(["k", "t"])
            .reset_index(drop=True)
        )

    def test_row_number_follows_order_by_not_input_order(self):
        out = self._run([("row_number", None, "rn", None)])
        assert out["rn"].tolist() == [1, 2, 3, 1, 2]

    def test_lag_lead_with_fill(self):
        out = self._run(
            [("lag", "v", "prev", (1, -1)), ("lead", "v", "nxt", (1, -1))]
        )
        assert out["prev"].tolist() == [-1, 10, 20, -1, 5]
        assert out["nxt"].tolist() == [20, 30, -1, 7, -1]

    def test_lag_default_null(self):
        out = self._run([("lag", "v", "prev", None)])
        assert pd.isna(out["prev"][0]) and out["prev"][1] == 10

    def test_running_aggregates(self):
        out = self._run(
            [
                ("cumsum", "v", "s", None),
                ("cummax", "v", "mx", None),
                ("delta", "v", "d", 0),
            ]
        )
        assert out["s"].tolist() == [10, 30, 60, 5, 12]
        assert out["mx"].tolist() == [10, 20, 30, 5, 7]
        assert out["d"].tolist() == [0, 10, 10, 0, 2]

    def test_rolling_sum_trailing_window(self):
        out = self._run([("rolling_sum", "v", "r2", 2)])
        assert out["r2"].tolist() == [10, 30, 50, 5, 12]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown window kind"):
            window_over(self._ds(), ["k"], ["t"], [("median", "v", "x", None)])

    def test_multi_key_partitioning(self):
        ds = ray.data.from_items(
            [{"k1": 1, "k2": "x", "t": i, "v": i} for i in range(3)]
            + [{"k1": 1, "k2": "y", "t": i, "v": i} for i in range(2)]
        )
        out = (
            window_over(ds, ["k1", "k2"], ["t"], [("row_number", None, "rn", None)])
            .to_pandas()
            .sort_values(["k2", "t"])
        )
        assert out["rn"].tolist() == [1, 2, 3, 1, 2]


class TestRankWindows:
    def test_percent_rank_and_ntile_match_duckdb(self, ray_session):
        import duckdb
        import numpy as np
        import pandas as pd

        from raykg.ops.window import window_over

        rng = np.random.default_rng(67)
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c"], 100),
                "i": np.arange(100),
            }
        )
        got = (
            window_over(
                ray.data.from_pandas(df).repartition(5),
                keys=["k"], order_by=["i"],
                specs=[("percent_rank", None, "pr", None),
                       ("ntile", None, "t4", 4),
                       ("ntile", None, "t7", 7)],
                num_shards=4,
            )
            .to_pandas()
            .sort_values(["k", "i"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql("""
            SELECT k, i,
                   PERCENT_RANK() OVER (PARTITION BY k ORDER BY i) AS pr,
                   NTILE(4) OVER (PARTITION BY k ORDER BY i) AS t4,
                   NTILE(7) OVER (PARTITION BY k ORDER BY i) AS t7
            FROM t ORDER BY k, i
        """).df().reset_index(drop=True)
        assert got["pr"].tolist() == want["pr"].tolist()
        assert got["t4"].tolist() == want["t4"].tolist()
        assert got["t7"].tolist() == want["t7"].tolist()
