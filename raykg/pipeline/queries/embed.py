"""Embedding-column ops: ANN, quantization, classification, GNN.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ...ops import dedup as dedup_ops
from ...ops import similarity as sim_ops
from ._shared import QUERIES, ORACLE_SQL


N_ANN_QUERIES = 4
ANN_K = 5


def q_ann_topk(sf_dir: str):
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qtab = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas()
    qtab = qtab[qtab["vec_id"] < N_ANN_QUERIES].sort_values("vec_id")
    q = np.array(qtab["embedding"].tolist(), dtype=np.float64)
    out = sim_ops.topk_cosine(
        emb, q, qtab["vec_id"].tolist(), k=ANN_K, concurrency=(1, 4)
    )
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_ann_ivf(sf_dir: str):
    """IVF ANN with nprobe = nlist (full probe): the partition/probe
    machinery runs end-to-end and the result is EXACT, so the brute-force
    oracle applies verbatim."""
    from ...ops.similarity import IVFIndex

    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qtab = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas()
    qtab = qtab[qtab["vec_id"] < N_ANN_QUERIES].sort_values("vec_id")
    q = np.array(qtab["embedding"].tolist(), dtype=np.float64)
    ivf = IVFIndex(nlist=16, nprobe=16).fit_distributed(emb, iters=4)
    assigned = ivf.assign(emb)
    out = ivf.search(assigned, q, qtab["vec_id"].tolist(), k=ANN_K)
    return out.select_columns(["query_id", "vec_id", "rank"])


EMB_PLANT_OFFSET = 1_000_000
EMB_PLANT_EPS = 0.05
SEMDEDUP_K = 8  # seed count for the semantic-dedup clustering


def _with_planted(batch: pa.Table) -> pa.Table:
    """Augment an embeddings batch with DETERMINISTIC planted near-dups
    (e'[i] = e[i] + 0.05*e[(i%d)+1], vec_id + 1e6) — the raw table is random
    gaussian with max pairwise cosine ~0.51, so without planting every
    near-dup query over it is vacuous.  The derivation is SQL-expressible,
    so oracles rebuild the identical augmented table; planted pairs sit at
    cosine ~0.9987, far above the 0.9 thresholds."""
    ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    e = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
    pert = e + EMB_PLANT_EPS * np.roll(e, -1, axis=1)
    out_ids = np.concatenate([ids, ids + EMB_PLANT_OFFSET])
    out_e = np.concatenate([e, pert])
    return pa.Table.from_pydict(
        {
            "vec_id": pa.array(out_ids, type=pa.int64()),
            "embedding": pa.array(out_e.tolist(), type=pa.list_(pa.float64())),
        }
    )


def q_embedding_near(sf_dir: str):
    """Embedding near-dup pairs over the planted-dup-augmented embeddings
    table (see _with_planted); the DuckDB oracle computes brute-force cosine
    over the identical augmented table, and multi-table LSH recall at the
    planted cosine ~0.9987 is 1 - 8.5e-10 per pair."""
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_with_planted, batch_format="pyarrow")
    return dedup_ops.embedding_near_pairs(emb, threshold=0.9)


def q_semdedup(sf_dir: str):
    """SemDeDup-style semantic dedup (cluster the embedding space, drop
    near-identical members within each cluster) over the same planted-dup
    augmented table as embedding_near.  Clustering is the deterministic
    spherical assignment to the first SEMDEDUP_K base vectors (row-group
    filter pushdown reads ONLY those K rows on the driver; at real scale the
    seeds would come from ops.kmeans.fit_distributed — assignment and the
    within-cluster pass are identical either way).  Each planted copy lands
    in its source's cluster at cosine ~0.9987 and is dropped as dominated;
    the oracle mirrors assignment (row_number over cosine DESC, sid) and the
    dominance rule (EXISTS earlier same-cluster row with cosine >= 0.9)
    exactly."""
    import pyarrow.parquet as pq

    seeds_tab = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", SEMDEDUP_K)],
    )
    sdf = seeds_tab.to_pandas().sort_values("vec_id")
    seeds = np.array(sdf["embedding"].tolist(), dtype=np.float64)
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).map_batches(_with_planted, batch_format="pyarrow")
    return dedup_ops.semantic_dedup(emb, seeds, threshold=0.9)


def q_embed_classify(sf_dir: str):
    """Nearest-centroid classification of the embedding table against its
    own class centroids — `ops/classify.py` (fit: one pass of per-class
    integer-sum partials; predict: stateless map against the broadcast
    centroid matrix).  Fixed-point arithmetic end-to-end, so this ML
    inference op has an EXACT SQL oracle."""
    from ...ops.classify import nearest_centroid_fit, nearest_centroid_predict

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    labels, cents = nearest_centroid_fit(emb)
    out = nearest_centroid_predict(emb, labels, cents)

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "vec_id": pc.cast(batch["vec_id"], pa.int64()),
                "label": pc.cast(batch["label"], pa.int64()),
                "pred": pc.cast(batch["pred"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")


def q_embed_quant(sf_dir: str):
    """Symmetric int8 embedding quantization in long form (id, i, code,
    absmax) — `ops/pca.quantize_embeddings` (stateless vectorized map,
    zero exchanges; floor arithmetic so the SQL mirror is bit-equal)."""
    from ...ops.pca import quantize_embeddings

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return quantize_embeddings(emb)


def q_embed_cov(sf_dir: str):
    """Exact fixed-point covariance numerator over the embedding table
    (`ops/pca.py`): per-batch (n, sum, gram) moment partials tree-combine
    to a single d x d matrix — integer arithmetic over floor(x * 2^20)
    quantization so the SQL mirror is bit-equal.  The float PCA built on
    the same pass is test-verified (planted-subspace recovery)."""
    from ...ops.pca import covariance_fixedpoint

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["embedding"]
    )
    return covariance_fixedpoint(emb, scale_bits=20)


def q_neighbor_mean(sf_dir: str):
    """One GNN message-passing layer over the co-order part graph: per
    part, the neighbor count and exact integer floor-mean of the
    neighbors' p_size — the raw `group_pairs` stream feeds
    `dedup_pairs=True`, which dedups cross-group pair copies INSIDE the
    node-sharded aggregate exchange instead of `canonical_edges`'
    dedicated pair all-to-all: one exchange saved (`ops/gnn.py`)."""
    from ...ops.gnn import neighbor_feature_mean
    from ...ops.triangles import group_pairs

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    edges = group_pairs(li, "l_orderkey", "l_partkey", num_shards=32)
    parts = ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_size"]
    )

    import pyarrow.compute as pc

    def as_feat(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": pc.cast(batch["p_partkey"], pa.int64()),
                "p_size": pc.cast(batch["p_size"], pa.int64()),
            }
        )

    out = neighbor_feature_mean(
        edges,
        parts.map_batches(as_feat, batch_format="pyarrow"),
        feat_col="p_size",
        dedup_pairs=True,
    )

    def typed(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pc.cast(batch["node"], pa.int64()),
                "n_nbrs": pc.cast(batch["n_nbrs"], pa.int64()),
                "mean_feat": pc.cast(batch["mean_feat"], pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pyarrow")
QUERIES["embed_cov"] = q_embed_cov
QUERIES["embed_quant"] = q_embed_quant
QUERIES["embed_classify"] = q_embed_classify
QUERIES["ann_topk"] = q_ann_topk
QUERIES["ann_ivf"] = q_ann_ivf
QUERIES["embedding_near"] = q_embedding_near
QUERIES["semdedup"] = q_semdedup
QUERIES["neighbor_mean"] = q_neighbor_mean
ORACLE_SQL["embedding_near"] = f"""
        WITH base AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
        pert AS (SELECT vec_id + {EMB_PLANT_OFFSET} AS vec_id,
                        list_transform(generate_series(1, len(e)),
                                       i -> e[i] + {EMB_PLANT_EPS} * e[(i % len(e)) + 1]) AS e
                 FROM base),
        all_e AS (SELECT vec_id, e FROM base UNION ALL SELECT vec_id, e FROM pert)
        SELECT a.vec_id AS id_a, b.vec_id AS id_b,
               round(list_cosine_similarity(a.e, b.e), 6) AS cosine
        FROM all_e a JOIN all_e b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.e, b.e) >= 0.9
    """
ORACLE_SQL["ann_topk"] = f"""
        WITH q AS (SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
                   FROM embeddings WHERE vec_id < {N_ANN_QUERIES}),
        s AS (SELECT q.qid AS query_id, e.vec_id,
                     round(list_cosine_similarity(q.qe, e.embedding::DOUBLE[]), 6) AS score
              FROM q, embeddings e),
        r AS (SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY score DESC, vec_id) AS rank
              FROM s)
        SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank
        FROM r WHERE rank <= {ANN_K}
    """


# ann_ivf probes every list (nprobe = nlist), so IVF output is exactly the
# brute-force top-k — same oracle
ORACLE_SQL["ann_ivf"] = ORACLE_SQL["ann_topk"]

# semdedup: same augmented table as embedding_near; cluster = nearest of the
# first K base vectors by cosine (ties -> smaller sid, mirrored by the
# row_number ORDER BY); kept = no earlier same-cluster row at cosine >= 0.9.
# Assignment argmax parity is safe: seed-cosine gaps on gaussian data are
# O(0.01+) vs ~1e-15 float-summation-order noise, and the 0.9 threshold sits
# between the planted ~0.9987 and the ~0.51 random ceiling.
ORACLE_SQL["semdedup"] = f"""
    WITH base AS (SELECT vec_id, embedding::DOUBLE[] AS e FROM embeddings),
    pert AS (SELECT vec_id + {EMB_PLANT_OFFSET} AS vec_id,
                    list_transform(generate_series(1, len(e)),
                                   i -> e[i] + {EMB_PLANT_EPS} * e[(i % len(e)) + 1]) AS e
             FROM base),
    all_e AS (SELECT vec_id, e FROM base UNION ALL SELECT vec_id, e FROM pert),
    seeds AS (SELECT vec_id AS sid, e AS se FROM base WHERE vec_id < {SEMDEDUP_K}),
    scored AS (SELECT a.vec_id, a.e, s.sid,
                      row_number() OVER (PARTITION BY a.vec_id
                          ORDER BY list_cosine_similarity(a.e, s.se) DESC, s.sid) AS rn
               FROM all_e a CROSS JOIN seeds s),
    assigned AS (SELECT vec_id, e, sid AS cluster FROM scored WHERE rn = 1),
    dropped AS (SELECT DISTINCT b.vec_id
                FROM assigned a JOIN assigned b
                  ON a.cluster = b.cluster AND a.vec_id < b.vec_id
                WHERE list_cosine_similarity(a.e, b.e) >= 0.9)
    SELECT v.vec_id, CAST(v.cluster AS BIGINT) AS cluster,
           CAST(CASE WHEN d.vec_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS kept
    FROM assigned v LEFT JOIN dropped d USING (vec_id)
"""

ORACLE_SQL["embed_classify"] = """
    WITH idx AS (SELECT unnest(generate_series(1, 64)) AS i),
    q AS (SELECT e.vec_id, e.label, idx.i,
                 CAST(floor(CAST(e.embedding[idx.i] AS DOUBLE) * 1048576.0)
                      AS BIGINT) AS qv
          FROM embeddings e, idx),
    cent AS (SELECT label, i,
                    CAST(floor(CAST(SUM(qv) AS DOUBLE) / COUNT(*))
                         AS BIGINT) AS c
             FROM q GROUP BY label, i),
    d AS (SELECT q.vec_id, cent.label AS cl,
                 CAST(SUM((q.qv - cent.c) * (q.qv - cent.c)) AS BIGINT)
                     AS d2
          FROM q JOIN cent ON cent.i = q.i
          GROUP BY q.vec_id, cent.label),
    best AS (SELECT vec_id, cl,
                    ROW_NUMBER() OVER (PARTITION BY vec_id
                                       ORDER BY d2, cl) AS rn
             FROM d)
    SELECT e.vec_id, CAST(e.label AS BIGINT) AS label,
           CAST(b.cl AS BIGINT) AS pred
    FROM embeddings e JOIN best b ON b.vec_id = e.vec_id AND b.rn = 1
"""

ORACLE_SQL["embed_quant"] = """
    WITH idx AS (SELECT unnest(generate_series(1, 64)) AS i),
    x AS (SELECT e.vec_id AS id, idx.i,
                 CAST(e.embedding[idx.i] AS DOUBLE) AS xv
          FROM embeddings e, idx),
    m AS (SELECT id, MAX(ABS(xv)) AS absmax FROM x GROUP BY id)
    SELECT x.id, x.i,
           CAST(CASE WHEN m.absmax = 0 THEN 0
                     ELSE floor(x.xv * 127.0 / m.absmax) END AS BIGINT)
               AS code,
           m.absmax
    FROM x JOIN m USING (id)
"""

ORACLE_SQL["embed_cov"] = """
    WITH idx AS (SELECT unnest(generate_series(1, 64)) AS i),
    q AS (SELECT e.vec_id, idx.i,
                 CAST(floor(CAST(e.embedding[idx.i] AS DOUBLE) * 1048576.0)
                      AS BIGINT) AS qv
          FROM embeddings e, idx),
    s AS (SELECT i, CAST(SUM(qv) AS BIGINT) AS s1 FROM q GROUP BY i),
    p AS (SELECT a.i AS i, b.i AS j,
                 CAST(SUM(a.qv * b.qv) AS BIGINT) AS s2
          FROM q a JOIN q b ON a.vec_id = b.vec_id AND a.i <= b.i
          GROUP BY a.i, b.i),
    n AS (SELECT CAST(COUNT(*) AS BIGINT) AS c FROM embeddings)
    SELECT p.i, p.j,
           CAST((SELECT c FROM n) * p.s2 - sa.s1 * sb.s1 AS BIGINT) AS num
    FROM p JOIN s sa ON sa.i = p.i JOIN s sb ON sb.i = p.j
"""

ORACLE_SQL["neighbor_mean"] = """
    WITH pairs AS (
        SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey),
    e AS (SELECT u AS s, v AS d FROM pairs
          UNION ALL SELECT v, u FROM pairs)
    SELECT e.s AS node, CAST(COUNT(*) AS BIGINT) AS n_nbrs,
           CAST(SUM(p.p_size) AS BIGINT) // CAST(COUNT(*) AS BIGINT)
               AS mean_feat
    FROM e JOIN part p ON p.p_partkey = e.d
    GROUP BY e.s
"""


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining: for each query vector, the
    HIGHEST-cosine neighbor below the near-duplicate threshold (0.9) —
    self (1.0) and planted near-dups (~0.9987) are excluded by the
    threshold, leaving the hardest true negative.  Composes the
    distributed brute top-k (batch-local partials -> tiny per-query
    fold) with a driver-side filter over the k x queries result table."""
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet")
    qtab = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).to_pandas()
    qtab = qtab[qtab["vec_id"] < N_ANN_QUERIES].sort_values("vec_id")
    q = np.array(qtab["embedding"].tolist(), dtype=np.float64)
    # depth budget: the sub-threshold row must survive the top-k cut even
    # if a query has several >=0.9 near-dups above it
    top = sim_ops.topk_cosine(
        emb, q, qtab["vec_id"].tolist(), k=ANN_K + 8, concurrency=(1, 4)
    ).to_pandas()
    neg = top[top["score"] < 0.9].sort_values(["query_id", "rank"])
    neg = neg.groupby("query_id", sort=True).head(1)
    import pyarrow as _pa

    return _pa.Table.from_pandas(
        neg[["query_id", "vec_id", "score"]].reset_index(drop=True),
        preserve_index=False,
    )


QUERIES["hard_negatives"] = q_hard_negatives
ORACLE_SQL["hard_negatives"] = f"""
    WITH q AS (SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
               FROM embeddings WHERE vec_id < {N_ANN_QUERIES}),
    s AS (SELECT q.qid AS query_id, e.vec_id,
                 round(list_cosine_similarity(q.qe, e.embedding::DOUBLE[]), 6)
                     AS score
          FROM q, embeddings e),
    r AS (SELECT query_id, vec_id, score,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY score DESC, vec_id) AS rn
          FROM s WHERE score < 0.9)
    SELECT query_id, vec_id, score FROM r WHERE rn = 1
"""


def q_embed_silhouette(sf_dir: str):
    """Per-vector centroid silhouette over the labeled embedding table
    — clustering/label quality at corpus scale.  Fixed-point grid
    (floor(x*1024), the embed_cov pattern) makes the per-label centroid
    and both squared distances EXACT int64 on this engine and the SQL
    mirror; the only float is the final (b-a)/max(a,b) ratio with one
    fixed tree (`ops/silhouette.py`).  Centroids broadcast once via
    ray.put; the vector table never shuffles."""
    from ...ops.silhouette import silhouette_by_label

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    return silhouette_by_label(emb)


QUERIES["embed_silhouette"] = q_embed_silhouette
ORACLE_SQL["embed_silhouette"] = """
    WITH idx AS (SELECT unnest(generate_series(1, 64)) AS i),
    q AS (SELECT e.vec_id, e.label, idx.i,
                 CAST(FLOOR(CAST(e.embedding[idx.i] AS DOUBLE) * 1024.0)
                      AS BIGINT) AS qv
          FROM embeddings e, idx),
    s AS (SELECT label, i, SUM(qv) AS s, COUNT(*) AS n
          FROM q GROUP BY 1, 2),
    c AS (SELECT label, i,
                 (1024 * (s + 1024 * n)) // n - 1048576 AS cv
          FROM s),
    d AS (SELECT q.vec_id, q.label AS own, c.label AS cl,
                 SUM((1024 * q.qv - c.cv) * (1024 * q.qv - c.cv)) AS d2
          FROM q JOIN c USING (i) GROUP BY 1, 2, 3),
    a AS (SELECT vec_id, own AS label, d2 AS a_d2 FROM d WHERE own = cl),
    b AS (SELECT vec_id, MIN(d2) AS b_d2 FROM d WHERE own <> cl
          GROUP BY 1)
    SELECT a.vec_id, CAST(a.label AS BIGINT) AS label,
           CAST(a.a_d2 AS BIGINT) AS a_d2,
           CAST(b.b_d2 AS BIGINT) AS b_d2,
           CASE WHEN GREATEST(a.a_d2, b.b_d2) = 0 THEN 0.0
                ELSE ROUND((b.b_d2 - a.a_d2) * 1.0
                           / GREATEST(a.a_d2, b.b_d2), 6)
           END AS silhouette
    FROM a JOIN b USING (vec_id)
"""


def q_xalign_mutual(sf_dir: str):
    """Bitext-style pair mining (Artetxe & Schwenk margin criterion, exact
    integer variant): mutual nearest neighbors between the even- and
    odd-id halves of the embedding table, on the fixed-point grid with an
    absolute d2 margin gap >= 1 required on both sides (ops/mine.py — two
    broadcast-matrix streaming passes + one bucketed mutual join, no
    float anywhere)."""
    from ...ops.mine import mutual_nn_pairs

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return mutual_nn_pairs(emb)


QUERIES["xalign_mutual"] = q_xalign_mutual
ORACLE_SQL["xalign_mutual"] = """
    WITH idx AS (SELECT unnest(generate_series(1, 64)) AS i),
    q AS (SELECT e.vec_id, idx.i,
                 CAST(FLOOR(CAST(e.embedding[idx.i] AS DOUBLE) * 1024.0)
                      AS BIGINT) AS qv
          FROM embeddings e, idx),
    d AS (SELECT a.vec_id AS a_id, b.vec_id AS b_id,
                 SUM((a.qv - b.qv) * (a.qv - b.qv)) AS d2
          FROM q a JOIN q b ON a.i = b.i
          WHERE a.vec_id % 2 = 0 AND b.vec_id % 2 = 1
          GROUP BY 1, 2),
    rb AS (SELECT *, ROW_NUMBER() OVER
               (PARTITION BY b_id ORDER BY d2, a_id) AS rn FROM d),
    bb AS (SELECT b_id,
                  MAX(CASE WHEN rn = 1 THEN a_id END) AS a_id,
                  MAX(CASE WHEN rn = 1 THEN d2 END) AS d2,
                  MAX(CASE WHEN rn = 2 THEN d2 END)
                - MAX(CASE WHEN rn = 1 THEN d2 END) AS gap_b
           FROM rb WHERE rn <= 2 GROUP BY b_id),
    ra AS (SELECT *, ROW_NUMBER() OVER
               (PARTITION BY a_id ORDER BY d2, b_id) AS rn FROM d),
    ab AS (SELECT a_id,
                  MAX(CASE WHEN rn = 1 THEN b_id END) AS b_id,
                  MAX(CASE WHEN rn = 2 THEN d2 END)
                - MAX(CASE WHEN rn = 1 THEN d2 END) AS gap_a
           FROM ra WHERE rn <= 2 GROUP BY a_id)
    SELECT bb.a_id AS id_a, bb.b_id AS id_b, CAST(bb.d2 AS BIGINT) AS d2,
           CAST(ab.gap_a AS BIGINT) AS gap_a,
           CAST(bb.gap_b AS BIGINT) AS gap_b
    FROM bb JOIN ab ON ab.a_id = bb.a_id AND ab.b_id = bb.b_id
    WHERE ab.gap_a >= 1 AND bb.gap_b >= 1
"""


# ---------------------------------------------------------------------------
# Pairwise-similarity distribution audit: exact quantized dot products of
# deterministic embedding pairs, bucketed into a histogram — the drift
# check run on an embedding column after re-encoding a corpus
# ---------------------------------------------------------------------------

PAIR_DOT_QUANT = 64      # per-element quantizer: q = round(e * 64), int64
PAIR_DOT_BUCKET = 64     # histogram bucket width over the integer dot


def q_embed_pair_dot(sf_dir: str):
    """Histogram of exact integer dot products over the deterministic
    pairing (vec_id 2i, 2i+1): each element quantizes to
    round(e * 64) and the pair's dot buckets by floor(dot / 64) — the
    similarity-distribution audit that catches encoder regressions
    without floating-point drift between engines.

    Plan, scale notes: pairs co-locate via ONE hash(vec_id >> 1)
    exchange (both members of a pair share the shard key); the in-shard
    kernel stacks the shard's vectors once and does a single batched
    row-wise multiply-sum (no per-pair Python), emitting bounded
    histogram cells.  The final groupby runs over the bucket domain."""
    from ...ops.agg import sharded_groupby_apply

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def add_pair(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "pair_id", pa.array(vid >> 1, type=pa.int64())
        )

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("vec_id", kind="stable")
        pid = df["pair_id"].to_numpy()
        # keep only complete pairs (an odd tail vec has no partner)
        first = np.unique(pid, return_index=True)[1]
        counts = np.diff(np.append(first, len(pid)))
        keep_pids = np.unique(pid)[counts == 2]
        mask = np.isin(pid, keep_pids)
        if not mask.any():
            return pd.DataFrame({"bucket": pd.Series([], dtype=np.int64),
                                 "n_pairs": pd.Series([], dtype=np.int64)})
        E = np.rint(
            np.stack(df.loc[mask, "embedding"].to_numpy()) * PAIR_DOT_QUANT
        ).astype(np.int64)
        dots = (E[0::2] * E[1::2]).sum(axis=1)
        bucket = dots // PAIR_DOT_BUCKET
        uniq, n = np.unique(bucket, return_counts=True)
        return pd.DataFrame({"bucket": uniq, "n_pairs": n.astype(np.int64)})

    cells = sharded_groupby_apply(
        emb.map_batches(add_pair, batch_format="pyarrow"),
        ["pair_id"], in_shard,
    )
    final = (
        cells.groupby("bucket")
        .sum("n_pairs")
        .to_pandas()
        .rename(columns={"sum(n_pairs)": "n_pairs"})
        .sort_values("bucket")
    )
    return pa.table(
        {"bucket": pa.array(final["bucket"].to_numpy().astype(np.int64)),
         "n_pairs": pa.array(final["n_pairs"].to_numpy().astype(np.int64))}
    )


QUERIES["embed_pair_dot"] = q_embed_pair_dot
ORACLE_SQL["embed_pair_dot"] = f"""
    WITH p AS (SELECT a.embedding AS ea, b.embedding AS eb
               FROM embeddings a
               JOIN embeddings b
                 ON b.vec_id = a.vec_id + 1 AND a.vec_id % 2 = 0),
    d AS (SELECT CAST(list_sum(list_transform(list_zip(ea, eb),
                x -> CAST(ROUND(x[1] * {PAIR_DOT_QUANT}) AS BIGINT)
                   * CAST(ROUND(x[2] * {PAIR_DOT_QUANT}) AS BIGINT)))
                AS BIGINT) AS dot
          FROM p)
    SELECT CAST(floor(dot / {PAIR_DOT_BUCKET}.0) AS BIGINT) AS bucket,
           COUNT(*) AS n_pairs
    FROM d GROUP BY 1 ORDER BY 1
"""
