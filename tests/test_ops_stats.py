"""Tie-averaged ranks, the Zipf fit built on them, per-label
silhouettes and the SQL NTILE bucketing vs brute force."""
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


def test_silhouette_by_label_matches_brute_force():
    from raykg.ops.silhouette import silhouette_by_label

    rng = np.random.default_rng(43)
    k, dim, n = 4, 8, 300
    centers = rng.uniform(-0.4, 0.4, (k, dim))
    labels = rng.integers(0, k, n)
    vecs = centers[labels] + rng.normal(0, 0.05, (n, dim))
    t = pa.table(
        {
            "vec_id": np.arange(n),
            "embedding": pa.array(list(vecs), type=pa.list_(pa.float32())),
            "label": pa.array(labels, type=pa.int32()),
        }
    )
    got = (
        silhouette_by_label(ray.data.from_arrow(t).repartition(5))
        .to_pandas()
        .set_index("vec_id")
        .sort_index()
    )
    # brute force on the same fixed-point grid (incl. negative floors)
    q = np.floor(vecs.astype(np.float64) * 1024).astype(np.int64)
    cent = np.zeros((k, dim), dtype=np.int64)
    for lab in range(k):
        s = q[labels == lab].sum(axis=0)
        nn = (labels == lab).sum()
        cent[lab] = (1024 * (s + 1024 * nn)) // nn - 1024 * 1024
    X = q * 1024
    d2 = ((X[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
    rows = np.arange(n)
    a = d2[rows, labels]
    m = d2.copy()
    m[rows, labels] = np.iinfo(np.int64).max
    b = m.min(axis=1)
    sil = np.round((b - a) / np.maximum(a, b), 6)
    assert np.array_equal(got["a_d2"].to_numpy(), a)
    assert np.array_equal(got["b_d2"].to_numpy(), b)
    assert np.array_equal(got["silhouette"].to_numpy(), sil)
    # well-separated planted clusters score positive on average
    assert got["silhouette"].mean() > 0.3


def test_ntile_bucket_matches_sql_ntile():
    import duckdb
    from raykg.pipeline.queries.relational.tpch import _ntile_bucket

    for n in (4, 5, 7, 23, 100):
        ranks = np.arange(n)
        got = _ntile_bucket(ranks, n, 5)
        sql = duckdb.sql(
            f"SELECT NTILE(5) OVER (ORDER BY r) FROM "
            f"(SELECT unnest(generate_series(0, {n - 1})) AS r)"
        ).fetchnumpy()
        expect = list(sql.values())[0].astype(np.int64)
        assert np.array_equal(got, expect), n
