"""Unit tests: GNN neighbor aggregation and the per-group quantile gate."""

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from raykg.ops.gnn import neighbor_feature_mean, symmetrize
from raykg.ops.sample import group_quantile_filter


def _edges(pairs):
    return ray.data.from_arrow(
        pa.table(
            {
                "u": pa.array([p[0] for p in pairs], type=pa.int64()),
                "v": pa.array([p[1] for p in pairs], type=pa.int64()),
            }
        )
    )


@pytest.mark.usefixtures("ray_session")
def test_symmetrize_emits_both_directions():
    out = symmetrize(_edges([(1, 2), (2, 3)])).to_pandas()
    got = set(zip(out.u, out.v))
    assert got == {(1, 2), (2, 1), (2, 3), (3, 2)}


@pytest.mark.usefixtures("ray_session")
def test_neighbor_feature_mean_hand_checked():
    # path graph 1-2-3 plus edge 1-3: every node neighbors the other two
    edges = _edges([(1, 2), (2, 3), (1, 3)])
    feats = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array([1, 2, 3], type=pa.int64()),
                "f": pa.array([10, 20, 31], type=pa.int64()),
            }
        )
    )
    out = (
        neighbor_feature_mean(edges, feats, feat_col="f", num_buckets=4, num_shards=4)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    # node 1: nbrs {2,3} mean floor(51/2)=25; node 2: {1,3} floor(41/2)=20;
    # node 3: {1,2} floor(30/2)=15
    assert out.node.tolist() == [1, 2, 3]
    assert out.n_nbrs.tolist() == [2, 2, 2]
    assert out.mean_feat.tolist() == [25, 20, 15]


@pytest.mark.usefixtures("ray_session")
def test_neighbor_feature_mean_directed_out_neighbors_only():
    edges = _edges([(1, 2), (1, 3), (2, 3)])
    feats = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array([1, 2, 3], type=pa.int64()),
                "f": pa.array([5, 7, 9], type=pa.int64()),
            }
        )
    )
    out = (
        neighbor_feature_mean(
            edges, feats, feat_col="f", directed=True, num_buckets=4, num_shards=4
        )
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    # out-nbrs: 1 -> {2,3} mean 8; 2 -> {3} mean 9; node 3 has none
    assert out.node.tolist() == [1, 2]
    assert out.n_nbrs.tolist() == [2, 1]
    assert out.mean_feat.tolist() == [8, 9]


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


@pytest.mark.usefixtures("ray_session")
def test_neighbor_mean_broadcast_and_join_engines_pinned_equal():
    import numpy as np

    rng = np.random.RandomState(9)
    pairs = {(int(a), int(b)) for a, b in rng.randint(0, 60, (150, 2)) if a < b}
    edges = _edges(sorted(pairs))
    feats = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array(np.arange(60, dtype=np.int64)),
                "f": pa.array(rng.randint(1, 100, 60).astype(np.int64)),
            }
        )
    )
    kw = dict(feat_col="f", num_buckets=8, num_shards=8)
    a = (
        neighbor_feature_mean(edges, feats, broadcast_max_nodes=10**6, **kw)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    b = (
        neighbor_feature_mean(edges, feats, broadcast_max_nodes=0, **kw)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_neighbor_mean_dedup_pairs_pinned_to_canonical_path():
    """dedup_pairs=True over a stream with cross-batch duplicate pairs
    must equal the canonical (pre-deduped) path, on BOTH engines."""
    import numpy as np

    rng = np.random.RandomState(11)
    pairs = sorted({(int(a), int(b)) for a, b in rng.randint(0, 40, (80, 2)) if a < b})
    # duplicate the stream 3x and shuffle so copies span blocks
    dup = pairs * 3
    rng.shuffle(dup)
    dup_edges = _edges(dup)
    feats = ray.data.from_arrow(
        pa.table(
            {
                "v": pa.array(np.arange(40, dtype=np.int64)),
                "f": pa.array(rng.randint(1, 50, 40).astype(np.int64)),
            }
        )
    )
    kw = dict(feat_col="f", num_buckets=4, num_shards=4)
    want = (
        neighbor_feature_mean(_edges(pairs), feats, **kw)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    for bmax in (10**6, 0):  # broadcast engine, then join engine
        got = (
            neighbor_feature_mean(
                dup_edges, feats, dedup_pairs=True, broadcast_max_nodes=bmax, **kw
            )
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
