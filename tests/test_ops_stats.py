"""Tie-averaged ranks, the Zipf fit built on them and the SQL NTILE
bucketing vs brute force."""
import numpy as np
import pyarrow as pa
import ray.data


def avg_ranks(x):
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    pos = np.arange(1, len(x) + 1, dtype=np.float64)
    xs = x[order]
    i = 0
    while i < len(xs):
        j = i
        while j < len(xs) and xs[j] == xs[i]:
            j += 1
        ranks[order[i:j]] = pos[i:j].mean()
        i = j
    return ranks


def test_with_avg_ranks_cross_block_ties():
    from raykg.ops.rank import with_avg_ranks

    rng = np.random.default_rng(3)
    x = rng.integers(0, 9, 500).astype(np.float64)  # runs WILL span blocks
    ds = ray.data.from_arrow(
        pa.table({"x": x, "tag": np.arange(500)})
    ).repartition(11)
    out = with_avg_ranks(ds, "x", "r").to_pandas().sort_values("tag")
    expect = avg_ranks(x)
    assert np.array_equal(out["r"].to_numpy(), expect)


def test_with_avg_ranks_single_value_and_nulls():
    from raykg.ops.rank import with_avg_ranks

    one = ray.data.from_arrow(pa.table({"x": [4.0] * 40})).repartition(4)
    got = with_avg_ranks(one, "x", "r").to_pandas()["r"]
    assert (got == 20.5).all()  # (1+40)/2 for a single 40-way tie

    withnull = ray.data.from_arrow(pa.table({"x": [1.0, None, 3.0]}))
    import pytest

    with pytest.raises(ValueError, match="null"):
        with_avg_ranks(withnull, "x", "r").materialize()


def test_zipf_fit_matches_brute_force():
    from raykg.ops.zipf import zipf_fit

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(60)]
    # zipf-ish corpus: word i appears ~ 600/(i+1) times
    words = []
    for i, w in enumerate(vocab):
        words += [w] * max(1, 600 // (i + 1))
    rng.shuffle(words)
    docs = [" ".join(words[i::7]) for i in range(7)]
    ds = ray.data.from_arrow(pa.table({"text": docs})).repartition(3)
    got = zipf_fit(ds, "text")
    # brute force with tie-averaged ranks
    from collections import Counter

    f = np.array(sorted(Counter(words).values(), reverse=True), np.float64)
    ranks = avg_ranks(-f)
    x, y = np.log(ranks), np.log(f)
    n = len(f)
    den = n * (x * x).sum() - x.sum() ** 2
    slope = (n * (x * y).sum() - x.sum() * y.sum()) / den
    intercept = (y.sum() - slope * x.sum()) / n
    assert got["n_tokens"][0].as_py() == n
    assert abs(got["slope"][0].as_py() - slope) < 1e-6
    assert abs(got["intercept"][0].as_py() - intercept) < 1e-6
    assert got["slope"][0].as_py() < -0.5  # zipf-shaped
