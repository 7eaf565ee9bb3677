"""Column profiling: pandas-reference parity, nulls, partition invariance."""
import numpy as np
import pandas as pd
import ray.data

from raykg.ops.profile import profile_columns

DF = pd.DataFrame(
    {
        "a": [3, 1, 2, 1, None, 3],
        "b": ["x", "y", None, None, "x", "z"],
        "c": [None] * 6,
    }
)


def expected(df, cols):
    rows = {}
    for c in cols:
        vals = df[c].dropna()
        svals = sorted(str(v) for v in vals)
        rows[c] = {
            "n_rows": len(df),
            "n_null": int(df[c].isna().sum()),
            "n_distinct": vals.nunique(),
            "min_str": svals[0] if svals else None,
            "max_str": svals[-1] if svals else None,
        }
    return rows


def check(df, cols, nparts):
    ds = ray.data.from_pandas(df).repartition(nparts)
    out = profile_columns(ds, cols, num_shards=4).to_pandas()
    got = out.set_index("column").to_dict("index")
    want = expected(df, cols)
    assert set(got) == set(want)
    for c in want:
        for k, v in want[c].items():
            g = got[c][k]
            if v is None:
                assert g is None or (isinstance(g, float) and np.isnan(g)), (c, k, g)
            else:
                assert g == v, (c, k, g, v)


def test_profile_basic(ray_session):
    # ints stringify identically in python and SQL VARCHAR casts, but the
    # frame uses float-typed 'a' due to the None — profile on b/c only here
    check(DF, ["b", "c"], 3)


def test_profile_int_column(ray_session):
    df = pd.DataFrame({"a": [30, 1, 200, 1, 30]})
    check(df, ["a"], 2)  # lexicographic: min "1", max "30" (not 200)


def test_profile_partition_invariance(ray_session):
    df = pd.DataFrame({"b": [str(i % 7) for i in range(100)]})
    ds1 = profile_columns(ray.data.from_pandas(df).repartition(1), ["b"], num_shards=4).to_pandas()
    ds9 = profile_columns(ray.data.from_pandas(df).repartition(9), ["b"], num_shards=4).to_pandas()
    pd.testing.assert_frame_equal(
        ds1.sort_values("column").reset_index(drop=True),
        ds9.sort_values("column").reset_index(drop=True),
    )
