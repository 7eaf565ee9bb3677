"""Spearman (tie-averaged ranks) and per-group Gini vs brute force."""
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from raykg.ops.gini import gini_by
from raykg.ops.spearman import spearman


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


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


def test_spearman_matches_brute_force_with_ties():
    rng = np.random.default_rng(9)
    x = rng.integers(0, 12, 800).astype(np.float64)  # heavy ties
    y = x * 3 + rng.integers(0, 40, 800)  # correlated, its own ties
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y})).repartition(7)
    got = spearman(ds, "x", "y")["spearman_rho"][0].as_py()
    expect = round(pearson(avg_ranks(x), avg_ranks(y)), 6)
    assert got == expect


def test_spearman_perfect_monotone():
    x = np.arange(100, dtype=np.float64)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": np.exp(x / 30)}))
    assert spearman(ds, "x", "y")["spearman_rho"][0].as_py() == 1.0
    ds2 = ray.data.from_arrow(pa.table({"x": x, "y": -x}))
    assert spearman(ds2, "x", "y")["spearman_rho"][0].as_py() == -1.0


def brute_gini(v):
    v = np.sort(np.asarray(v, dtype=np.float64))
    n = len(v)
    i = np.arange(1, n + 1)
    return 2.0 * (i * v).sum() / (n * v.sum()) - (n + 1.0) / n


def test_gini_by_matches_brute_force():
    rng = np.random.default_rng(21)
    keys = rng.choice(["a", "b", "c"], 600)
    vals = rng.exponential(100.0, 600) + 1.0
    ds = ray.data.from_arrow(pa.table({"k": keys, "v": vals})).repartition(5)
    out = gini_by(ds, ["k"], "v").to_pandas().set_index("k")["gini"]
    for k in "abc":
        assert out[k] == round(brute_gini(vals[keys == k]), 6)


def test_gini_extremes():
    # all-equal values -> 0 inequality; one-owner -> (n-1)/n
    eq = ray.data.from_arrow(pa.table({"k": ["x"] * 50, "v": [7.0] * 50}))
    assert gini_by(eq, ["k"], "v").to_pandas()["gini"][0] == 0.0
    one = ray.data.from_arrow(
        pa.table({"k": ["x"] * 10, "v": [0.0] * 9 + [100.0]})
    )
    assert gini_by(one, ["k"], "v").to_pandas()["gini"][0] == round(9 / 10, 6)


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


def test_chi_square_brute_force():
    from raykg.ops.contingency import chi_square

    rng = np.random.default_rng(5)
    a = rng.choice(["x", "y", "z"], 700)
    b = rng.choice(["p", "q"], 700)
    ds = ray.data.from_arrow(pa.table({"a": a, "b": b})).repartition(6)
    out = chi_square(ds, "a", "b")
    ct = pd.crosstab(pd.Series(a), pd.Series(b)).to_numpy(dtype=np.float64)
    e = ct.sum(1, keepdims=True) * ct.sum(0, keepdims=True) / ct.sum()
    assert out["chi2"][0].as_py() == round(float(((ct - e) ** 2 / e).sum()), 6)
    assert out["dof"][0].as_py() == 2


def test_benford_exact_digits():
    from raykg.ops.digits import benford_digits

    # exact powers of ten are the floor(log10) trap: 10.00 -> digit 1
    vals = [10.0, 100.0, 1000.0, 0.01, 9.99, 0.004, -5.0, 2.5]
    ds = ray.data.from_arrow(pa.table({"v": vals}))
    out = benford_digits(ds, "v").to_pandas().set_index("digit")
    # cents scaling: 1000,10000,100000,1,999,0(dropped),-500(dropped),250
    assert out.loc[1, "n"] == 4  # 10.0, 100.0, 1000.0, 0.01
    assert out.loc[9, "n"] == 1  # 9.99
    assert out.loc[2, "n"] == 1  # 2.5
    assert out["n"].sum() == 6


def brute_kendall(x, y):
    n = len(x)
    C = D = nx = ny = 0
    for i in range(n):
        for j in range(i + 1, n):
            if x[i] == x[j]:
                nx += 1
            if y[i] == y[j]:
                ny += 1
            if x[i] != x[j] and y[i] != y[j]:
                if (x[i] < x[j]) == (y[i] < y[j]):
                    C += 1
                else:
                    D += 1
    n0 = n * (n - 1) / 2
    return C, D, round((C - D) / np.sqrt((n0 - nx) * (n0 - ny)), 6)


def test_kendall_matches_brute_force_with_ties():
    from raykg.ops.kendall import kendall_tau

    rng = np.random.default_rng(17)
    x = rng.integers(0, 6, 400).astype(np.int64)      # heavy x ties
    y = (x * 2 + rng.integers(0, 10, 400)).astype(np.float64)  # y ties too
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y})).repartition(9)
    out = kendall_tau(ds, "x", "y")
    C, D, tau = brute_kendall(x, y)
    assert out["concordant"][0].as_py() == C
    assert out["discordant"][0].as_py() == D
    assert out["kendall_tau"][0].as_py() == tau


def test_kendall_cross_block_y_tie_chain():
    from raykg.ops.kendall import kendall_tau

    # one giant y-tie group spanning many blocks, plus outliers
    x = np.concatenate([np.arange(5).repeat(40), [0, 4]])
    y = np.concatenate([np.full(200, 7.0), [1.0, 9.0]])
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y})).repartition(13)
    out = kendall_tau(ds, "x", "y")
    C, D, tau = brute_kendall(x, y)
    assert (out["concordant"][0].as_py(), out["discordant"][0].as_py()) == (C, D)
    assert out["kendall_tau"][0].as_py() == tau


def test_linreg_matches_polyfit():
    from raykg.ops.regress import linreg_by

    rng = np.random.default_rng(31)
    k = rng.choice(["a", "b"], 500)
    x = rng.uniform(0, 10, 500)
    y = 3.0 * x + 2.0 + rng.normal(0, 0.5, 500)
    ds = ray.data.from_arrow(pa.table({"k": k, "x": x, "y": y})).repartition(6)
    out = linreg_by(ds, ["k"], "x", "y").to_pandas().set_index("k")
    for g in "ab":
        m = k == g
        slope, intercept = np.polyfit(x[m], y[m], 1)
        assert abs(out.loc[g, "slope"] - slope) < 1e-6
        assert abs(out.loc[g, "intercept"] - intercept) < 1e-6
        r = np.corrcoef(x[m], y[m])[0, 1]
        assert abs(out.loc[g, "r2"] - r * r) < 1e-6
        assert out.loc[g, "n"] == m.sum()


def test_ewma_matches_python_recurrence():
    from raykg.ops.ewma import ewma_by

    rng = np.random.default_rng(41)
    key = rng.integers(0, 7, 600)
    ts = rng.permutation(600)
    val = rng.uniform(0, 200, 600)
    rid = np.arange(600)
    ds = ray.data.from_arrow(
        pa.table({"k": key, "t": ts, "v": val, "rid": rid})
    ).repartition(8)
    out = (
        ewma_by(ds, "k", ["t", "rid"], "v", 0.3, id_cols=["rid"])
        .to_pandas().set_index("rid")["ewma"]
    )
    for g in range(7):
        m = key == g
        order = np.argsort(ts[m], kind="stable")
        xs = val[m][order]
        ids = rid[m][order]
        y = xs[0]
        assert out[ids[0]] == round(y, 6)
        for x, i in zip(xs[1:], ids[1:]):
            y = 0.3 * x + 0.7 * y
            assert out[i] == round(y, 6)


def test_km_gap_curve_brute_force():
    from raykg.ops.survival import km_gap_curve

    rng = np.random.default_rng(77)
    users = rng.integers(0, 12, 300)
    base = np.int64(1_700_000_000_000_000)
    tss = base + rng.choice(10**9, 300, replace=False).astype(np.int64) * 3600
    ds = ray.data.from_arrow(
        pa.table({"u": users, "ts": pa.array(tss, type=pa.timestamp("us"))})
    ).repartition(7)
    out = km_gap_curve(ds, "u", "ts").to_pandas()

    # brute force
    mx = tss.max()
    durs, obs = [], []
    for u in np.unique(users):
        t = np.sort(tss[users == u])
        gaps = np.diff(t)
        durs += list(gaps // 3_600_000_000) + [(mx - t[-1]) // 3_600_000_000]
        obs += [True] * len(gaps) + [False]
    df = pd.DataFrame({"d": durs, "o": obs})
    tab = df.groupby(["d", "o"]).size().unstack(fill_value=0).reindex(
        columns=[False, True], fill_value=0).sort_index()
    total = tab.to_numpy().sum()
    exits = tab.sum(1).to_numpy()
    deaths = tab[True].to_numpy(float)
    n_risk = total - np.concatenate([[0], np.cumsum(exits[:-1])])
    s = 1.0
    expect = {}
    for dd, dth, nr in zip(tab.index, deaths, n_risk):
        if dth > 0:
            s *= 1.0 - dth / nr
            expect[dd] = (int(nr), int(dth), s)
    got = out.set_index("duration_h")
    assert set(got.index) == set(expect)
    for dd, (nr, dth, sv) in expect.items():
        assert got.loc[dd, "n_risk"] == nr and got.loc[dd, "deaths"] == dth
        assert abs(got.loc[dd, "survival"] - sv) < 2e-6
    assert (got["survival"].diff().dropna() <= 0).all()  # monotone curve


def brute_ks(xa, xb):
    """Classical two-sample D as an integer numerator over pooled
    tie-run ends (the scipy.stats.ks_2samp statistic re-derived)."""
    n_a, n_b = len(xa), len(xb)
    pooled = np.concatenate([xa, xb])
    flags = np.concatenate([np.ones(n_a, np.int64), np.zeros(n_b, np.int64)])
    order = np.argsort(pooled, kind="stable")
    v, f = pooled[order], flags[order]
    ca = np.cumsum(f)
    cb = np.cumsum(1 - f)
    ends = np.ones(len(v), dtype=bool)
    ends[:-1] = v[1:] != v[:-1]
    dev = np.abs(n_b * ca - n_a * cb)[ends]
    ev = v[ends]
    best = int(dev.max())
    return best, float(ev[dev == best].min())


def test_ks_2sample_matches_brute_force_with_ties():
    from raykg.ops.ks import ks_2sample

    rng = np.random.default_rng(4)
    xa = np.round(rng.normal(0.0, 1.0, 700), 1)   # heavy ties
    xb = np.round(rng.normal(0.4, 1.3, 500), 1)
    t = pa.table(
        {
            "v": np.concatenate([xa, xb]),
            "g": ["a"] * len(xa) + ["b"] * len(xb),
        }
    )
    ds = ray.data.from_arrow(t).repartition(9)
    got = ks_2sample(ds, "v", "g", "a", "b")
    d_num, d_loc = brute_ks(xa, xb)
    assert got["n_a"][0].as_py() == len(xa)
    assert got["n_b"][0].as_py() == len(xb)
    assert got["d_num"][0].as_py() == d_num
    assert got["d_loc"][0].as_py() == d_loc
    n = len(xa) * len(xb)
    assert got["d_ppm"][0].as_py() == (d_num * 2_000_000 + n) // (2 * n)


def test_ks_2sample_identical_and_disjoint():
    from raykg.ops.ks import ks_2sample

    x = np.arange(50, dtype=np.float64)
    t = pa.table({"v": np.concatenate([x, x]), "g": ["a"] * 50 + ["b"] * 50})
    got = ks_2sample(ray.data.from_arrow(t), "v", "g", "a", "b")
    assert got["d_num"][0].as_py() == 0  # identical samples
    t2 = pa.table({"v": np.concatenate([x, x + 100]),
                   "g": ["a"] * 50 + ["b"] * 50})
    got2 = ks_2sample(ray.data.from_arrow(t2).repartition(5), "v", "g", "a", "b")
    assert got2["d_num"][0].as_py() == 50 * 50  # fully separated: D = 1
    assert got2["d_ppm"][0].as_py() == 1_000_000


def test_cusum_by_matches_brute_force():
    from raykg.ops.cusum import cusum_by

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 40, 900)
    # planted mean shift halfway through each series
    vals = rng.integers(0, 50, 900) + np.where(
        np.arange(900) % 2 == 0, 0, 100
    )
    order = np.arange(900)
    t = pa.table({"k": keys, "o": order, "v": vals.astype(np.int64)})
    got = (
        cusum_by(ray.data.from_arrow(t).repartition(6), "k", ["o"], "v")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    expect = {}
    df = pd.DataFrame({"k": keys, "o": order, "v": vals}).sort_values(["k", "o"])
    for kk, gdf in df.groupby("k"):
        v = gdf["v"].to_numpy(np.int64)
        n = len(v)
        if n < 2:
            continue
        s = np.cumsum(v)
        ks = np.arange(1, n)
        dev = np.abs(n * s[:-1] - ks * s[-1])
        best = int(dev.max())
        expect[kk] = (n, int(ks[dev.argmax()]), best)  # argmax = first max
    assert len(got) == len(expect)
    for _, row in got.iterrows():
        n, ck, dev = expect[row["k"]]
        assert (row["n"], row["change_k"], row["dev"]) == (n, ck, dev)


def test_cusum_by_drops_singletons():
    from raykg.ops.cusum import cusum_by

    t = pa.table({"k": [1, 2, 2], "o": [0, 0, 1], "v": [5, 1, 9]})
    got = cusum_by(ray.data.from_arrow(t), "k", ["o"], "v").to_pandas()
    assert got["k"].tolist() == [2]  # key 1 has n=1: no interior split
    # n=2, k=1: dev = |2*1 - 1*10| = 8
    assert got.iloc[0]["dev"] == 8


def test_transition_counts_matches_brute_force():
    from raykg.ops.markov import transition_counts

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 30, 500)
    states = rng.choice(["a", "b", "c"], 500)
    order = np.arange(500)
    t = pa.table({"k": keys, "o": order, "s": states})
    got = transition_counts(
        ray.data.from_arrow(t).repartition(5), "k", ["o"], "s"
    ).to_pandas()
    df = pd.DataFrame({"k": keys, "o": order, "s": states}).sort_values(
        ["k", "o"]
    )
    expect = {}
    for _, gdf in df.groupby("k"):
        s = gdf["s"].tolist()
        for a, b in zip(s, s[1:]):
            expect[(a, b)] = expect.get((a, b), 0) + 1
    assert len(got) == len(expect)
    totals = {}
    for (a, _b), c in expect.items():
        totals[a] = totals.get(a, 0) + c
    for _, row in got.iterrows():
        c = expect[(row["prev_state"], row["next_state"])]
        tot = totals[row["prev_state"]]
        assert row["c"] == c and row["total"] == tot
        assert row["p_ppm"] == (c * 2_000_000 + tot) // (2 * tot)


def test_mutual_info_matches_brute_force():
    from raykg.ops.contingency import mutual_info

    rng = np.random.default_rng(3)
    a = rng.choice(["x", "y", "z"], 800)
    # dependent: b leans toward a's value
    b = np.where(rng.random(800) < 0.6, a, rng.choice(["x", "y", "z"], 800))
    got = mutual_info(
        ray.data.from_arrow(pa.table({"a": a, "b": b})).repartition(4),
        "a", "b",
    )
    cells = pd.DataFrame({"a": a, "b": b}).groupby(["a", "b"]).size()
    n = float(cells.sum())
    ra = cells.groupby("a").sum()
    cb = cells.groupby("b").sum()
    mi = chi2 = 0.0
    for (ai, bi), o in cells.items():
        mi += (o / n) * np.log(o * n / (ra[ai] * cb[bi]))
        chi2 += o * o * n / (ra[ai] * cb[bi])
    chi2 -= n
    v = np.sqrt(chi2 / (n * (min(len(ra), len(cb)) - 1)))
    assert got["mi_nats"][0].as_py() == round(float(mi), 6)
    assert got["cramers_v"][0].as_py() == round(float(v), 6)
    assert got["n"][0].as_py() == 800
    assert (got["r"][0].as_py(), got["s"][0].as_py()) == (3, 3)


def test_mutual_info_independent_is_zero():
    from raykg.ops.contingency import mutual_info

    # perfectly balanced grid -> MI exactly 0
    a = np.repeat(["x", "y"], 50)
    b = np.tile(["p", "q"], 50)
    got = mutual_info(ray.data.from_arrow(pa.table({"a": a, "b": b})), "a", "b")
    assert got["mi_nats"][0].as_py() == 0.0
    assert got["cramers_v"][0].as_py() == 0.0


def test_anova_f_matches_brute_force():
    from raykg.ops.anova import anova_f

    rng = np.random.default_rng(5)
    g = rng.choice(["a", "b", "c", "d"], 1000)
    shift = {"a": 0, "b": 30, "c": 0, "d": 60}
    v = rng.integers(0, 100, 1000) + np.vectorize(shift.get)(g)
    ds = ray.data.from_arrow(
        pa.table({"g": g, "v": v.astype(np.int64)})
    ).repartition(6)
    got = anova_f(ds, "g", "v")
    df = pd.DataFrame({"g": g, "v": v.astype(np.float64)})
    n, k = len(df), df["g"].nunique()
    grand = df["v"].sum()
    sg = sum(s * s / len(x) for s, x in
             ((x["v"].sum(), x) for _, x in df.groupby("g")))
    ssb = sg - grand * grand / n
    ssw = (df["v"] ** 2).sum() - sg
    f = (ssb / (k - 1)) / (ssw / (n - k))
    assert got["k"][0].as_py() == k and got["n"][0].as_py() == n
    assert abs(got["f_stat"][0].as_py() - f) < 1e-5
    assert abs(got["eta_sq"][0].as_py() - ssb / (ssb + ssw)) < 5e-7


def test_anova_f_equal_groups_near_zero():
    from raykg.ops.anova import anova_f

    v = np.tile(np.arange(100, dtype=np.int64), 2)
    g = np.repeat(["a", "b"], 100)
    got = anova_f(ray.data.from_arrow(pa.table({"g": g, "v": v})), "g", "v")
    assert got["f_stat"][0].as_py() == 0.0  # identical groups: SSB = 0


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


def test_lag_corr_matches_brute_force():
    from raykg.ops.autocorr import lag_corr

    rng = np.random.default_rng(23)
    keys = rng.integers(0, 20, 800)
    order = np.arange(800)
    vals = rng.integers(0, 1000, 800).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": keys, "o": order, "v": vals})
    ).repartition(7)
    got = lag_corr(ds, "k", ["o"], "v", lag=1)
    df = pd.DataFrame({"k": keys, "o": order, "v": vals}).sort_values(
        ["k", "o"]
    )
    xs, ys = [], []
    for _, g in df.groupby("k"):
        v = g["v"].to_numpy(np.float64)
        xs.append(v[:-1])
        ys.append(v[1:])
    x, y = np.concatenate(xs), np.concatenate(ys)
    assert got["n_pairs"][0].as_py() == len(x)
    assert abs(got["autocorr"][0].as_py() - pearson(x, y)) < 1e-6


def test_lag_corr_perfect_on_linear_series():
    from raykg.ops.autocorr import lag_corr

    v = np.arange(100, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": np.zeros(100, np.int64), "o": np.arange(100), "v": v})
    )
    got = lag_corr(ds, "k", ["o"], "v")
    assert got["autocorr"][0].as_py() == 1.0


def test_psi_time_split_matches_brute_force():
    from raykg.ops.psi import psi_time_split

    rng = np.random.default_rng(29)
    n = 1000
    ts = np.sort(rng.integers(0, 10**9, n)) * 1000  # us
    # drift: later half shifted upward
    v = np.where(np.arange(n) < n // 2,
                 rng.uniform(0, 300, n), rng.uniform(100, 500, n))
    t = pa.table(
        {"ts": pa.array(ts, type=pa.timestamp("us")), "v": v}
    )
    got = psi_time_split(ray.data.from_arrow(t).repartition(5),
                         "ts", "v", width=50.0, nbuckets=10)
    mid = (int(ts.min()) + int(ts.max())) // 2
    half = (ts > mid).astype(int)
    b = np.minimum((v / 50.0).astype(np.int64), 9)
    na = np.bincount(b[half == 0], minlength=10).astype(float)
    nb = np.bincount(b[half == 1], minlength=10).astype(float)
    keep = (na > 0) & (nb > 0)
    p, q = na[keep] / na.sum(), nb[keep] / nb.sum()
    psi = float(((p - q) * np.log(p / q)).sum())
    assert got["n_a"][0].as_py() == int(na.sum())
    assert got["n_b"][0].as_py() == int(nb.sum())
    assert got["psi"][0].as_py() == round(psi, 6)
    assert got["psi"][0].as_py() > 0.05  # planted drift is visible


def test_user_burstiness_query_brute_force(tmp_path):
    import pyarrow.parquet as pq
    from raykg.pipeline.queries import QUERIES

    rng = np.random.default_rng(37)
    n = 400
    users = rng.integers(0, 25, n)
    ts = rng.integers(0, 10**7, n).astype("datetime64[s]").astype(
        "datetime64[us]"
    )
    eid = np.arange(n)
    tbl = pa.table(
        {
            "event_id": eid,
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": users,
            "event_type": rng.choice(["a", "b"], n),
            "value": rng.uniform(0, 10, n),
            "props": ["{}"] * n,
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = (
        QUERIES["user_burstiness"](str(tmp_path))
        .to_pandas()
        .set_index("user_id")
        .sort_index()
    )
    df = pd.DataFrame({"u": users, "t": ts.astype("int64") // 1_000_000})
    for u, g in df.groupby("u"):
        gaps = np.diff(np.sort(g["t"].to_numpy())).astype(np.float64)
        if len(gaps) < 2:
            assert u not in got.index
            continue
        mean = gaps.sum() / len(gaps)
        var = (gaps**2).sum() / len(gaps) - mean * mean
        assert got.loc[u, "n_gaps"] == len(gaps)
        assert got.loc[u, "fano"] == round(var / mean, 6)


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


def test_grouped_theil_sen_robust_to_outlier(ray_session):
    """Theil–Sen ignores a single wild outlier day that would wreck OLS,
    and matches the direct median-of-pairwise-slopes definition."""
    import numpy as np
    import pandas as pd
    import ray.data
    from raykg.ops.trend import grouped_theil_sen

    days = pd.date_range("2024-01-01", periods=11, freq="D")
    # clean linear series y = 2x + 3 rendered as per-day row counts,
    # with day 5 an extreme outlier (count 500)
    counts = [3 + 2 * i for i in range(11)]
    counts[5] = 500
    rows = []
    for d, n in zip(days, counts):
        rows += [{"event_type": "a", "ts": d}] * n
    # a second group with a single day: omitted from the output
    rows.append({"event_type": "b", "ts": days[0]})
    df = pd.DataFrame(rows)
    got = grouped_theil_sen(
        ray.data.from_pandas(df).repartition(5), "event_type", "ts"
    ).to_pandas()
    assert got["event_type"].tolist() == ["a"]
    x = np.array([(d - pd.Timestamp("1970-01-01")).days for d in days],
                 dtype=np.int64)
    y = np.array(counts, dtype=np.int64)
    iu, ju = np.triu_indices(len(x), 1)
    want_slope = float(np.median((y[ju] - y[iu]) / (x[ju] - x[iu])))
    assert got["slope"].iloc[0] == round(want_slope, 6)
    # the outlier cannot move the slope far from the clean trend of 2
    assert abs(got["slope"].iloc[0] - 2.0) < 0.6
    assert got["n_buckets"].iloc[0] == 11
