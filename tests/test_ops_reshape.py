"""Pivot (long -> wide, pinned schema) and ordered string assembly."""

import pytest

import ray
import ray.data

from raykg.ops.reshape import pivot


@pytest.mark.usefixtures("ray_session")
class TestPivot:
    def _events(self):
        rows = (
            [{"u": 1, "t": "click", "v": 2.0}] * 3
            + [{"u": 1, "t": "view", "v": 1.0}]
            + [{"u": 2, "t": "view", "v": 5.0}] * 2
        )
        return ray.data.from_items(rows)

    def test_count_pivot_fills_zero(self):
        out = (
            pivot(self._events(), "u", "t", categories=["click", "view", "buy"])
            .to_pandas()
            .set_index("u")
            .sort_index()
        )
        assert out.loc[1].tolist() == [3, 1, 0]
        assert out.loc[2].tolist() == [0, 2, 0]

    def test_sum_pivot(self):
        out = (
            pivot(self._events(), "u", "t", categories=["click", "view"],
                  values_from="v", agg="sum")
            .to_pandas()
            .set_index("u")
            .sort_index()
        )
        assert out.loc[1].tolist() == [6.0, 1.0]
        assert out.loc[2].tolist() == [0.0, 10.0]

    def test_unknown_category_dropped(self):
        out = pivot(self._events(), "u", "t", categories=["click"]).to_pandas()
        assert set(out.columns) == {"u", "click"}

    def test_non_decomposable_agg_rejected(self):
        with pytest.raises(ValueError, match="sum/count/min/max"):
            pivot(self._events(), "u", "t", categories=["click"], agg="mean")


class TestCollectStrings:
    def test_ordered_assembly_with_prefix(self, ray_session):
        import pandas as pd

        from raykg.ops.reshape import collect_strings

        df = pd.DataFrame(
            {
                "conv": ["a", "a", "b", "a"],
                "i": [2, 0, 0, 1],
                "role": ["assistant", "user", "user", "assistant"],
                "text": ["fine", "hi", "solo", None],
            }
        )
        out = collect_strings(
            ray.data.from_pandas(df), "conv", "text", ["i"],
            prefix_col="role", num_shards=4,
        ).to_pandas().sort_values("conv").reset_index(drop=True)
        # null text at (a, 1) skipped and not counted
        assert out["conv"].tolist() == ["a", "b"]
        assert out["n_items"].tolist() == [2, 1]
        assert out["full_text"].tolist() == [
            "user: hi\nassistant: fine", "user: solo",
        ]

    def test_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd

        from raykg.ops.reshape import collect_strings

        rng = np.random.default_rng(29)
        df = pd.DataFrame(
            {
                "conv": rng.integers(0, 20, 300).astype(str),
                "i": np.arange(300),
                "text": [f"t{i}" for i in range(300)],
            }
        )
        outs = [
            collect_strings(
                ray.data.from_pandas(df).repartition(p), "conv", "text",
                ["i"], num_shards=s,
            ).to_pandas().sort_values("conv").reset_index(drop=True)
            for p, s in [(1, 2), (11, 8)]
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
