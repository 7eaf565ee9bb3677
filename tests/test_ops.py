"""Training-data operator tests: dedup, text stats."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data

from raykg.ops.dedup import (
    exact_dedup,
    exact_dedup_groups,
    jaccard_verify,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_near_pairs,
)
from raykg.ops.text import add_fingerprints, add_lang_id, add_quality, add_token_counts


def docs_ds(rows):
    return ray.data.from_pandas(pd.DataFrame(rows))


DUP_ROWS = [
    {"doc_id": 0, "text": "the quick brown fox jumps over the lazy dog"},
    {"doc_id": 1, "text": "the quick brown fox jumps over the lazy dog"},
    {"doc_id": 2, "text": "completely different content here about databases"},
    {"doc_id": 3, "text": "the quick brown fox jumps over the lazy cat"},
    {"doc_id": 4, "text": "unrelated words entirely separate payload tokens"},
]


@pytest.mark.usefixtures("ray_session")
class TestDedup:
    def test_exact_dedup_groups(self):
        out = exact_dedup_groups(docs_ds(DUP_ROWS)).to_pandas()
        assert len(out) == 4  # 5 rows, one exact duplicate pair
        assert out.set_index("doc_id").loc[0, "n_dups"] == 2

    def test_exact_dedup_keeps_first(self):
        out = exact_dedup(docs_ds(DUP_ROWS)).to_pandas()
        assert sorted(out["doc_id"]) == [0, 2, 3, 4]

    def test_minhash_lsh_finds_near_dups(self):
        out = minhash_lsh_pairs(
            docs_ds(DUP_ROWS), threshold=0.5, concurrency=1
        ).to_pandas()
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 1) in pairs  # exact dup pair must surface
        assert (0, 3) in pairs or (1, 3) in pairs  # near dup (1 word changed)
        assert not any(4 in p for p in pairs)

    def test_jaccard_verify(self):
        cands = docs_ds(pd.DataFrame({"id_a": [0, 0], "id_b": [1, 4]}))
        out = jaccard_verify(docs_ds(DUP_ROWS), cands).to_pandas()
        j = out.set_index(["id_a", "id_b"])["jaccard"]
        assert j[(0, 1)] == 1.0
        assert j[(0, 4)] == 0.0


    def test_candidate_ids_gate_paths_pinned_equal(self, monkeypatch):
        """Above _BROADCAST_MAX_DOCS candidates the verify path must skip
        the driver-side id array entirely (ids=None, bucketed joins) and
        still produce the identical pair set."""
        import raykg.ops.dedup as dd

        kwargs = dict(threshold=0.5, concurrency=1)
        want = (
            minhash_lsh_pairs(docs_ds(DUP_ROWS), **kwargs)
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )
        n, ids = dd._candidate_ids(
            docs_ds(pd.DataFrame({"id_a": [0, 0], "id_b": [1, 3]}))
        )
        assert n == 3 and list(ids) == [0, 1, 3]
        monkeypatch.setattr(dd, "_BROADCAST_MAX_DOCS", 1)
        n2, ids2 = dd._candidate_ids(
            docs_ds(pd.DataFrame({"id_a": [0, 0], "id_b": [1, 3]}))
        )
        assert n2 == 3 and ids2 is None  # distributed-only path engaged
        got = (
            minhash_lsh_pairs(docs_ds(DUP_ROWS), **kwargs)
            .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)

    def test_ngram_jaccard_pairs_exact_recall(self):
        # inverted index: every pair with jaccard >= t surfaces, none below
        out = ngram_jaccard_pairs(docs_ds(DUP_ROWS), threshold=0.2).to_pandas()
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 1) in pairs  # exact dup
        assert (0, 3) in pairs and (1, 3) in pairs  # near dups share shingles
        assert not any(4 in p for p in pairs)  # disjoint text
        assert (out["jaccard"] >= 0.2).all()
        # each pair exactly once (candidates deduped before verify)
        assert len(out) == len(pairs)

    def test_sharded_agg_parity(self):
        # sharded_groupby_apply == a plain pandas groupby, for random data
        # across int and string keys (exactness does not depend on sharding)
        import numpy as np

        from raykg.ops.agg import sharded_groupby_apply

        rng = np.random.RandomState(7)
        df = pd.DataFrame(
            {
                "k1": rng.randint(0, 200, size=2000),
                "k2": rng.choice(list("abcdefg"), size=2000),
                "v": rng.randint(-50, 50, size=2000),
            }
        )
        want = (
            df.groupby(["k1", "k2"], sort=False)["v"]
            .agg(["sum", "min", "count"])
            .reset_index()
            .rename(columns={"sum": "s", "min": "m", "count": "c"})
        )
        want["c"] = want["c"].astype("int64")

        def combine(g):
            out = (
                g.groupby(["k1", "k2"], sort=False)["v"]
                .agg(["sum", "min", "count"])
                .reset_index()
                .rename(columns={"sum": "s", "min": "m", "count": "c"})
            )
            out["c"] = out["c"].astype("int64")
            return out

        got = sharded_groupby_apply(docs_ds(df), ["k1", "k2"], combine, num_shards=7)
        got = got.to_pandas()
        key = ["k1", "k2"]
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )

    def test_group_topk(self):
        from raykg.ops.topk import group_topk

        rows = pd.DataFrame(
            {
                "k": ["a", "a", "a", "b", "b"],
                "v": [3, 1, 3, 2, 5],
                "t": ["z", "x", "y", "x", "y"],
            }
        )
        out = (
            group_topk(docs_ds(rows), ["k"], "v", k=2, tiebreak=["t"])
            .to_pandas()
            .sort_values(["k", "rank"])
            .reset_index(drop=True)
        )
        # a: ties at v=3 broken by t asc -> (3,'y') rank1, (3,'z') rank2
        assert list(out["k"]) == ["a", "a", "b", "b"]
        assert list(out["v"]) == [3, 3, 5, 2]
        assert list(out["t"]) == ["y", "z", "y", "x"]
        assert list(out["rank"]) == [1, 2, 1, 2]

    def test_connected_components_chain_and_clique(self):
        from raykg.ops.components import connected_components, dedup_survivors

        # chain 1-2-3-4 (diameter forces multiple propagation rounds),
        # clique {10,11,12}, isolated pair {20,21}
        pairs = docs_ds(
            pd.DataFrame(
                {
                    "id_a": [1, 2, 3, 10, 10, 11, 20],
                    "id_b": [2, 3, 4, 11, 12, 12, 21],
                }
            )
        )
        out = connected_components(pairs).to_pandas()
        lab = dict(zip(out["doc_id"], out["cluster_id"]))
        assert lab == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 12: 10, 20: 20, 21: 20}
        corpus = docs_ds(
            pd.DataFrame({"doc_id": [1, 2, 3, 4, 10, 11, 12, 20, 21, 99]})
        )
        kept = dedup_survivors(corpus, connected_components(pairs)).to_pandas()
        assert sorted(kept["doc_id"]) == [1, 10, 20, 99]

    def test_connected_components_bsp_matches_fast_path(self):
        # small_graph_max_edges=0 forces the BSP min-label loop; both
        # engines must emit the identical (doc_id, min-id cluster) table —
        # seeded random graph with chains, cliques, and self-loops
        from raykg.ops.components import connected_components

        rng = np.random.RandomState(17)
        a = rng.randint(0, 60, 120)
        b = rng.randint(0, 60, 120)
        pairs = docs_ds(pd.DataFrame({"id_a": a, "id_b": b}))
        fast = (
            connected_components(pairs)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        bsp = (
            connected_components(pairs, small_graph_max_edges=0)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(fast, bsp)

    def test_simhash_near_pairs(self):
        out = simhash_near_pairs(docs_ds(DUP_ROWS), max_hamming=3).to_pandas()
        pairs = set(zip(out["id_a"], out["id_b"]))
        assert (0, 1) in pairs
        assert all(h <= 3 for h in out["hamming"])

@pytest.mark.usefixtures("ray_session")
class TestEntityResolve:
    def test_bounded_levenshtein(self):
        import itertools

        from raykg.ops.entity import bounded_levenshtein

        # pin against a plain full DP over a brute-force corpus
        def full(a, b):
            la, lb = len(a), len(b)
            d = [[0] * (lb + 1) for _ in range(la + 1)]
            for i in range(la + 1):
                d[i][0] = i
            for j in range(lb + 1):
                d[0][j] = j
            for i in range(1, la + 1):
                for j in range(1, lb + 1):
                    d[i][j] = min(
                        d[i - 1][j] + 1,
                        d[i][j - 1] + 1,
                        d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                    )
            return d[la][lb]

        words = ["", "a", "ab", "abc", "acb", "abcd", "xabc", "kitten", "sitting"]
        for a, b in itertools.product(words, words):
            t = full(a, b)
            for k in range(4):
                got = bounded_levenshtein(a, b, k)
                assert got == t if t <= k else got == k + 1

    def test_resolve_entities_matches_bruteforce(self):
        from raykg.ops.entity import bounded_levenshtein, resolve_entities

        rows = [
            {"ent_id": 0, "label": "Acme Corp"},
            {"ent_id": 1, "label": "acme corp"},   # case variant of 0
            {"ent_id": 2, "label": "acme  corp"},  # 1 edit from 0
            {"ent_id": 3, "label": "Acme Group"},  # 4 edits: separate
            {"ent_id": 4, "label": "Bolt Inc"},
            {"ent_id": 5, "label": "bolt inc."},   # 1 edit from 4
            {"ent_id": 6, "label": "Bolt Inc"},    # exact dup of 4
            {"ent_id": 7, "label": "zeta"},        # singleton
            {"ent_id": 8, "label": "zeta"},        # exact dup of 7
        ]
        out = (
            resolve_entities(docs_ds(rows), num_shards=3)
            .to_pandas()
            .sort_values("ent_id")
            .reset_index(drop=True)
        )
        # brute force of the documented semantics
        import itertools

        nms = {r["ent_id"]: r["label"].lower() for r in rows}
        reps: dict = {}
        for i, nm in sorted(nms.items()):
            reps.setdefault(nm, i)
        parent = {r: r for r in reps.values()}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for (na, ra), (nb, rb) in itertools.combinations(sorted(reps.items()), 2):
            if na[:4] == nb[:4] and bounded_levenshtein(na, nb, 2) <= 2:
                x, y = find(ra), find(rb)
                if x != y:
                    parent[max(x, y)] = min(x, y)
        expected = [(i, find(reps[nm])) for i, nm in sorted(nms.items())]
        assert list(zip(out["ent_id"], out["canonical_id"])) == expected
        # the clusters the fixture was built to produce
        canon = dict(zip(out["ent_id"], out["canonical_id"]))
        assert canon[0] == canon[1] == canon[2] == 0
        assert canon[3] == 3
        assert canon[4] == canon[5] == canon[6] == 4
        assert canon[7] == canon[8] == 7

    def test_bounded_levenshtein_fuzz(self):
        from raykg.ops.entity import bounded_levenshtein

        def full(a, b):
            la, lb = len(a), len(b)
            d = list(range(lb + 1))
            for i in range(1, la + 1):
                prev, d[0] = d[0], i
                for j in range(1, lb + 1):
                    prev, d[j] = d[j], min(
                        d[j] + 1, d[j - 1] + 1, prev + (a[i - 1] != b[j - 1])
                    )
            return d[lb]

        rng = np.random.RandomState(13)
        alphabet = "abc"  # tiny alphabet -> near matches are common
        for _ in range(300):
            a = "".join(rng.choice(list(alphabet), rng.randint(0, 9)))
            b = "".join(rng.choice(list(alphabet), rng.randint(0, 9)))
            t = full(a, b)
            for k in (0, 1, 2, 3):
                got = bounded_levenshtein(a, b, k)
                assert got == (t if t <= k else k + 1), (a, b, k)

    def test_resolve_entities_fuzz_vs_union_find(self):
        from raykg.ops.entity import bounded_levenshtein, resolve_entities

        rng = np.random.RandomState(5)
        alphabet = list("abXY")
        rows = [
            {
                "ent_id": i,
                "label": "".join(rng.choice(alphabet, rng.randint(4, 8))),
            }
            for i in range(80)
        ]
        out = (
            resolve_entities(docs_ds(rows), num_shards=4, block_prefix=2, max_dist=1)
            .to_pandas()
            .sort_values("ent_id")
        )
        nms = {r["ent_id"]: r["label"].lower() for r in rows}
        reps: dict = {}
        for i, nm in sorted(nms.items()):
            reps.setdefault(nm, i)
        parent = {r: r for r in reps.values()}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        import itertools

        for (na, ra), (nb, rb) in itertools.combinations(sorted(reps.items()), 2):
            if na[:2] == nb[:2] and bounded_levenshtein(na, nb, 1) <= 1:
                x, y = find(ra), find(rb)
                if x != y:
                    parent[max(x, y)] = min(x, y)
        expected = [(i, find(reps[nm])) for i, nm in sorted(nms.items())]
        assert list(zip(out["ent_id"], out["canonical_id"])) == expected
        # sanity: the tiny alphabet actually produced non-singleton clusters
        assert len(set(dict(expected).values())) < len(rows)

    def test_resolve_entities_no_pairs(self):
        from raykg.ops.entity import resolve_entities

        rows = [
            {"ent_id": 10, "label": "alpha"},
            {"ent_id": 11, "label": "bravo"},
        ]
        out = resolve_entities(docs_ds(rows), num_shards=2).to_pandas()
        assert sorted(zip(out["ent_id"], out["canonical_id"])) == [(10, 10), (11, 11)]


@pytest.mark.usefixtures("ray_session")
class TestBpe:
    def test_pair_counts_matches_bruteforce(self):
        from collections import Counter

        from raykg.ops.bpe import pair_counts
        from raykg.ops.text import WORD_RE

        rows = [
            {"text": "low lower  lowest\tlow"},
            {"text": "new newer newest 😀😀ab"},
            {"text": ""},
            {"text": "a"},
        ]
        out = pair_counts(docs_ds(rows), num_shards=3).to_pandas()
        exp: Counter = Counter()
        for r in rows:
            for w in WORD_RE.findall(r["text"]):
                for i in range(len(w) - 1):
                    exp[(w[i], w[i + 1])] += 1
        got = {(a, b): int(c) for a, b, c in zip(out["sym_a"], out["sym_b"], out["cnt"])}
        assert got == dict(exp)

    def test_pair_counts_fuzz(self):
        from collections import Counter

        from raykg.ops.bpe import pair_counts
        from raykg.ops.text import WORD_RE

        rng = np.random.RandomState(21)
        # include unicode whitespace, emoji, and CJK in the alphabet
        alphabet = list("ab1.#") + ["😀", "界", "\t", " ", "\n", " ", "　"]
        rows = [
            {"text": "".join(rng.choice(alphabet, rng.randint(0, 60)))}
            for _ in range(40)
        ]
        out = pair_counts(docs_ds(rows), num_shards=4).to_pandas()
        exp: Counter = Counter()
        for r in rows:
            for w in WORD_RE.findall(r["text"]):
                for i in range(len(w) - 1):
                    exp[(w[i], w[i + 1])] += 1
        got = {(a, b): int(c) for a, b, c in zip(out["sym_a"], out["sym_b"], out["cnt"])}
        assert got == dict(exp)

@pytest.mark.usefixtures("ray_session")
class TestTextOps:
    ROWS = [
        {"doc_id": 0, "text": "the quick fox. #tag!"},
        {"doc_id": 1, "text": ""},
        {"doc_id": 2, "text": "le la les de des et"},
    ]

    def test_token_count(self):
        out = add_token_counts(docs_ds(self.ROWS)).to_pandas()
        assert out["n_tokens"].tolist() == [7, 0, 6]

    def test_quality(self):
        out = add_quality(docs_ds(self.ROWS)).to_pandas().set_index("doc_id")
        assert out.loc[0, "n_words"] == 4
        assert out.loc[1, "quality_score"] == 0
        assert out.loc[2, "n_distinct_words"] == 6

    def test_fingerprints(self):
        out = add_fingerprints(docs_ds(self.ROWS)).to_pandas()
        import hashlib

        assert out["text_md5"][0] == hashlib.md5(self.ROWS[0]["text"].encode()).hexdigest()
        assert (out["fingerprint"] >= 0).all()

    def test_lang_id(self):
        out = add_lang_id(docs_ds(self.ROWS), concurrency=1).to_pandas()
        assert out["pred_lang"].tolist()[0] == "en"
        assert out["pred_lang"].tolist()[2] == "fr"


def test_readability_batch_counts_and_formula():
    import pyarrow as pa
    from raykg.ops.text import readability_batch

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "The cat sat. It purred!",       # 5 words, 2 sents
                "Rhythm tv",                      # vowel-less words
                "",                               # dropped (0 words)
                "No punctuation here",            # sentence floor = 1
            ],
        }
    )
    out = readability_batch(t)
    assert out["doc_id"].to_pylist() == [1, 2, 4]
    r = {d: (w, s, y) for d, w, s, y in zip(
        out["doc_id"].to_pylist(), out["n_words"].to_pylist(),
        out["n_sentences"].to_pylist(), out["n_syllables"].to_pylist())}
    # "the cat sat it purred": syllables e/a/a/i/u+e = 6 vowel groups
    assert r[1] == (5, 2, 6)
    # "rhythm tv": y counts as vowel -> rhythm has 1 group; tv floors at 1
    assert r[2] == (2, 1, 2)
    assert r[4] == (3, 1, 6)
    w, s, y = r[1]
    expect = round(206.835 - 1.015 * (w / s) - 84.6 * (y / w), 6)
    assert out["flesch"].to_pylist()[0] == expect


def test_exact_dedup_best_keeps_highest_score():
    import pyarrow as pa
    import ray.data
    from raykg.ops.dedup import exact_dedup_best

    t = pa.table(
        {
            "doc_id": [1, 2, 3, 4, 5, 6, 7],
            "text": ["aa", "aa", "aa", "bb", "bb", "cc", None],
            "score": [5, 9, 9, 3, 1, 7, 2],
        }
    )
    out = (
        exact_dedup_best(
            ray.data.from_arrow(t).repartition(4),
            text_column="text", id_column="doc_id", score_column="score",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # group "aa": score 9 tie between ids 2 and 3 -> smallest id wins
    rows = {r["doc_id"]: (r["score"], r["n_dups"]) for _, r in out.iterrows()}
    assert rows == {2: (9, 3), 4: (3, 2), 6: (7, 1), 7: (2, 1)}


def test_sharded_groupby_volume_guard(ray_session):
    """A shard over the fit-in-worker cap fails loudly, naming the hot
    key and the scale-safe alternative — never a silent OOM at 100x."""
    import pandas as pd
    import pytest
    import ray.data

    from raykg.ops.agg import sharded_groupby_apply

    df = pd.DataFrame({"k": ["hot"] * 90 + ["cold"] * 10, "v": range(100)})
    ds = ray.data.from_pandas(df).repartition(4)
    with pytest.raises(Exception, match="hot"):
        sharded_groupby_apply(
            ds, ["k"], lambda g: g.groupby("k").size().reset_index(),
            num_shards=1, row_cap=50,
        ).materialize()
    # under the cap: runs fine
    out = sharded_groupby_apply(
        ds, ["k"], lambda g: g.groupby("k", sort=False).size().rename("n").reset_index(),
        num_shards=1, row_cap=1000,
    ).to_pandas()
    assert sorted(out["n"].tolist()) == [10, 90]


def test_sharded_groupby_byte_cap_counts_string_bytes(ray_session):
    """The byte cap counts the bytes of string values, not 8-byte object
    pointers: a few rows of long strings over a small cap must raise."""
    import pandas as pd
    import pytest
    import ray.data

    from raykg.ops.agg import sharded_groupby_apply

    df = pd.DataFrame({"k": ["a", "b", "c", "d"], "text": ["x" * 100_000] * 4})
    ds = ray.data.from_pandas(df)

    def apply(g):
        return g.groupby("k").size().rename("n").reset_index()

    with pytest.raises(Exception, match="fit-in-one-worker cap"):
        sharded_groupby_apply(ds, ["k"], apply, num_shards=1, byte_cap=64 << 10).materialize()
    out = sharded_groupby_apply(ds, ["k"], apply, num_shards=1, byte_cap=8 << 20).to_pandas()
    assert sorted(out["k"]) == ["a", "b", "c", "d"]


def test_default_shards_env_knob(monkeypatch):
    from raykg.ops.agg import default_shards

    assert default_shards(16) == 16           # explicit wins
    assert default_shards(None) == 64         # fallback
    monkeypatch.setenv("RAYKG_NUM_SHARDS", "256")
    assert default_shards(None) == 256        # cluster-wide env
    assert default_shards(8) == 8
