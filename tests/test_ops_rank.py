"""Global dense rank: pandas parity, ties, both directions."""

import numpy as np
import pandas as pd

import ray.data

from raykg.ops.topk import dense_rank_global


def test_matches_pandas_dense_rank(ray_session):
    rng = np.random.default_rng(19)
    df = pd.DataFrame({"k": range(300), "v": rng.integers(0, 40, 300)})
    for ascending in (True, False):
        got = (
            dense_rank_global(
                ray.data.from_pandas(df).repartition(7), "v",
                ascending=ascending,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = df["v"].rank(method="dense", ascending=ascending).astype(int)
        assert got["rank"].tolist() == want.tolist()


def test_ties_share_rank_no_gaps(ray_session):
    df = pd.DataFrame({"k": [1, 2, 3, 4], "v": [10.0, 10.0, 5.0, 20.0]})
    got = dense_rank_global(ray.data.from_pandas(df), "v").to_pandas()
    r = dict(zip(got["k"], got["rank"]))
    assert r == {4: 1, 1: 2, 2: 2, 3: 3}


def test_with_keyed_ranks_matches_pandas(ray_session):
    """percent_rank / ntile / row_number per key vs a pandas reference,
    across partition counts (keys span many blocks)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    rng = np.random.default_rng(41)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b", "c"], 900),
            "o": rng.permutation(900),
            "x": rng.integers(0, 5, 900),
        }
    )
    want = df.sort_values(["k", "o"]).reset_index(drop=True)
    g = want.groupby("k", sort=False)
    rn = g.cumcount() + 1
    n = g["o"].transform("size")
    want["rn"] = rn
    want["pr"] = np.where(n > 1, (rn - 1) / (n - 1).clip(lower=1), 0.0)
    k = 4
    q, r = n // k, n % k
    big = (q + 1) * r
    want["t4"] = np.where(
        rn <= big,
        (rn + q) // (q + 1),
        np.where(q > 0, r + (rn - big + q - 1) // np.maximum(q, 1), r),
    ).astype("int64")

    for parts in (1, 7, 40):
        got = (
            with_keyed_ranks(
                ray.data.from_pandas(df).repartition(parts),
                keys=["k"],
                order_by=["o"],
                specs=[
                    ("row_number", "rn", None),
                    ("percent_rank", "pr", None),
                    ("ntile", "t4", 4),
                ],
            )
            .to_pandas()
            .sort_values(["k", "o"])
            .reset_index(drop=True)
        )
        for col in ("rn", "pr", "t4"):
            assert (got[col].to_numpy() == want[col].to_numpy()).all(), (
                parts,
                col,
            )


def test_with_keyed_ranks_single_giant_key(ray_session):
    """One key spanning every block — the exact case the sharded plan
    cannot survive at scale."""
    import numpy as np
    import pandas as pd
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    df = pd.DataFrame({"k": ["only"] * 500, "o": np.arange(500)})
    got = (
        with_keyed_ranks(
            ray.data.from_pandas(df).repartition(23),
            keys=["k"],
            order_by=["o"],
            specs=[("row_number", "rn", None), ("ntile", "t3", 3)],
        )
        .to_pandas()
        .sort_values("o")
    )
    assert got["rn"].tolist() == list(range(1, 501))
    # NTILE(3) over 500: buckets of 167/167/166
    assert got["t3"].value_counts().sort_index().tolist() == [167, 167, 166]


def test_window_over_routes_rank_kinds_to_sort_path(ray_session):
    """Rank-only window_over calls match the sharded plan bit-for-bit."""
    import numpy as np
    import pandas as pd
    import ray.data

    from raykg.ops import window as w

    rng = np.random.default_rng(43)
    df = pd.DataFrame(
        {
            "k": rng.choice(["x", "y"], 400),
            "o": rng.permutation(400),
        }
    )
    routed = (
        w.window_over(
            ray.data.from_pandas(df).repartition(9),
            keys=["k"],
            order_by=["o"],
            specs=[("percent_rank", None, "pr", None), ("ntile", None, "t5", 5)],
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    # force the legacy sharded plan by including a value kind, then drop it
    sharded = (
        w.window_over(
            ray.data.from_pandas(df).repartition(9),
            keys=["k"],
            order_by=["o"],
            specs=[
                ("percent_rank", None, "pr", None),
                ("ntile", None, "t5", 5),
                ("cumsum", "o", "cs", None),
            ],
        )
        .to_pandas()
        .sort_values(["k", "o"])
        .reset_index(drop=True)
    )
    assert (routed["pr"].to_numpy() == sharded["pr"].to_numpy()).all()
    assert (routed["t5"].to_numpy() == sharded["t5"].to_numpy()).all()


def test_with_keyed_ranks_tie_aware_rank_dense(ray_session):
    """rank / dense_rank / percent_rank with REAL ties, exact SQL
    semantics, across partition counts (tie runs crossing blocks)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    rng = np.random.default_rng(67)
    df = pd.DataFrame(
        {
            "k": rng.choice(["a", "b"], 800),
            "o": rng.integers(0, 12, 800),   # heavy ties
            "id": np.arange(800),
        }
    )
    want = df.sort_values(["k", "o", "id"]).reset_index(drop=True)
    g = want.groupby("k", sort=False)
    want["rk"] = g["o"].rank(method="min").astype("int64")
    want["dr"] = g["o"].rank(method="dense").astype("int64")
    n = g["o"].transform("size")
    want["pr"] = np.where(n > 1, (want["rk"] - 1) / (n - 1).clip(lower=1), 0.0)

    for parts in (1, 9, 60):
        got = (
            with_keyed_ranks(
                ray.data.from_pandas(df).repartition(parts),
                keys=["k"],
                order_by=["o"],   # ties! id deliberately NOT a sort key
                specs=[
                    ("rank", "rk", None),
                    ("dense_rank", "dr", None),
                    ("percent_rank", "pr", None),
                ],
            )
            .to_pandas()
            .sort_values(["k", "o", "id"])
            .reset_index(drop=True)
        )
        for col in ("rk", "dr", "pr"):
            assert (got[col].to_numpy() == want[col].to_numpy()).all(), (
                parts, col,
            )


def test_with_keyed_ranks_single_key_all_one_tie(ray_session):
    """Degenerate: one key, one giant tie run spanning every block."""
    import pandas as pd
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    df = pd.DataFrame({"k": ["x"] * 300, "o": [7] * 300})
    got = with_keyed_ranks(
        ray.data.from_pandas(df).repartition(11),
        keys=["k"], order_by=["o"],
        specs=[("rank", "rk", None), ("dense_rank", "dr", None)],
    ).to_pandas()
    assert (got["rk"] == 1).all() and (got["dr"] == 1).all()


def test_window_over_rejects_mixed_rank_value_kinds(ray_session):
    import pandas as pd
    import pytest
    import ray.data

    from raykg.ops.window import window_over

    ds = ray.data.from_pandas(pd.DataFrame({"k": ["a"], "o": [1], "v": [2]}))
    with pytest.raises(ValueError, match="split the call"):
        window_over(
            ds, keys=["k"], order_by=["o"],
            specs=[("rank", None, "r", None), ("cumsum", "v", "c", None)],
        )


def test_with_keyed_ranks_randomized_configs(ray_session):
    """Randomized stress: every rank kind vs DuckDB window functions
    across key cardinality x tie density x dtype x block count.

    Configs with duplicate (key, order) tuples only check the tie-aware
    kinds (rank / dense_rank / percent_rank) — row_number / ntile are
    nondeterministic there, exactly as in SQL.
    """
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    rng = np.random.default_rng(977)
    configs = [
        # (n_rows, n_keys, order_distinct, key_dtype, parts)
        (400, 1, 400, "str", 11),      # one giant key, total order
        (600, 2, 9, "str", 13),        # heavy ties crossing blocks
        (800, 37, 800, "int", 5),      # many keys, total order
        (500, 5, 3, "int", 17),        # extreme tie density
        (300, 60, 300, "str", 1),      # more keys than rows/block, 1 block
        (700, 4, 50, "int", 29),       # moderate ties, many blocks
    ]
    for n, nk, od, kdt, parts in configs:
        keyvals = (
            np.array([f"key_{i:03d}" for i in range(nk)])
            if kdt == "str"
            else np.arange(100, 100 + nk, dtype=np.int64)
        )
        df = pd.DataFrame(
            {
                "k": keyvals[rng.integers(0, nk, n)],
                "o": rng.integers(0, od, n).astype(np.int64),
                "rid": np.arange(n, dtype=np.int64),
            }
        )
        total_order = not df.duplicated(["k", "o"]).any()
        specs = [
            ("rank", "r_rank", None),
            ("dense_rank", "r_dense", None),
            ("percent_rank", "r_pct", None),
        ]
        if total_order:
            specs += [("row_number", "r_rn", None), ("ntile", "r_nt", 7)]
        got = (
            with_keyed_ranks(
                ray.data.from_pandas(df).repartition(parts),
                keys=["k"],
                order_by=["o"],
                specs=specs,
            )
            .to_pandas()
            .sort_values("rid")
            .reset_index(drop=True)
        )
        sel = [
            "RANK() OVER w AS r_rank",
            "DENSE_RANK() OVER w AS r_dense",
            "PERCENT_RANK() OVER w AS r_pct",
        ]
        if total_order:
            sel += ["ROW_NUMBER() OVER w AS r_rn", "NTILE(7) OVER w AS r_nt"]
        want = duckdb.sql(
            "SELECT rid, " + ", ".join(sel) +
            " FROM df WINDOW w AS (PARTITION BY k ORDER BY o)"
            " ORDER BY rid"
        ).df()
        cols = ["r_rank", "r_dense", "r_pct"] + (
            ["r_rn", "r_nt"] if total_order else []
        )
        for c in cols:
            np.testing.assert_allclose(
                got[c].to_numpy(dtype=np.float64),
                want[c].to_numpy(dtype=np.float64),
                rtol=0, atol=1e-12,
                err_msg=f"config={(n, nk, od, kdt, parts)} col={c}",
            )


def test_with_keyed_ranks_rejects_nan_sort_keys(ray_session):
    """A NaN sort key has no rank: it fails like a null instead of
    yielding arbitrary ranks."""
    import pyarrow as pa
    import pytest
    import ray.data

    from raykg.ops.rank import with_keyed_ranks

    t = pa.table({"k": ["a", "a", "b", "b"],
                  "o": pa.array([1.0, float("nan"), 2.0, 0.5])})
    assert t["o"].null_count == 0
    with pytest.raises(ValueError, match="NaN"):
        with_keyed_ranks(
            ray.data.from_arrow(t), keys=["k"], order_by=["o"],
            specs=[("rank", "rk", None)],
        )
