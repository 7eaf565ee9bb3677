"""Deduplication operators: exact, MinHash+LSH, SimHash and n-gram
Jaccard near-dup.

Shuffle design: every variant pre-aggregates or pre-hashes inside
``map_batches`` so the groupby exchanges move hashes and ids, never document
bodies.  The near-dup family is fully distributed end-to-end:

    shingle/plane -> bucket rows -> shard groupby -> in-shard vectorized
    pair emission -> distinct-pair groupby -> payload attach (broadcast id
    filter + bucketed hash join) -> exact verify

Nothing near-dup-sized ever materializes on the driver; the only
driver-side object is the DISTINCT candidate id array (int64s, near-dup
volume — megabytes when the corpus is terabytes), which is broadcast once
via ``ray.put`` to prune the payload pass.  Buckets are sharded
(``bucket % num_shards``) so the per-group Python call count is O(shards),
not O(buckets): inside a shard, singleton buckets are dropped by one
vectorized mask and the remaining per-hot-bucket loop is bounded by true
candidate volume.  ``max_bucket_members`` caps degenerate buckets (a
boilerplate cluster at corpus scale) with deterministic min-id truncation.
"""

from __future__ import annotations

import hashlib
import re
import zlib
from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

_WORD_RE = re.compile(r"\S+")
# Mersenne prime 2^31-1: with a, b, x all < p the universal hash
# (a*x + b) % p never exceeds 2^62, so uint64 arithmetic is exact — no
# silent wrap weakening min-wise independence.
_P31 = np.uint64((1 << 31) - 1)


def _text_hash(t: str) -> str:
    return hashlib.md5((t or "").encode("utf-8")).hexdigest()


def _pool_size(cap: int = 8) -> int:
    """Fixed actor-pool size for stateful dedup stages: 3/4 of the cluster's
    CPUs, capped.  Fixed because Ray 2.49's autoscaling pool sticks at min
    size under a busy upstream; fractional because a pool that reserves
    every CPU starves the read stage into a deadlock."""
    ncpu = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(1, min(cap, (ncpu * 3) // 4))


# --- exact -----------------------------------------------------------------

def exact_dedup_groups(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """One row per distinct text: (doc_id = min id, n_dups).

    Phase 1 pre-aggregates per batch (hash -> min id, count) with an Arrow
    ``group_by`` kernel — the exchange carries one row per distinct hash
    per block.  Phase 2 is a SHARDED combine (``ops/agg.py``): the group
    count scales with distinct texts, so a key-wise Ray aggregate would pay
    per-distinct-text Python overhead; hashing keys into ``num_shards``
    groups keeps the callback count O(shards) with one vectorized pandas
    reduce per shard.  Size num_shards so a shard's distinct hashes fit a
    worker's heap (~distinct/shard rows)."""
    from .agg import sharded_groupby_apply

    def partial(batch: pa.Table) -> pa.Table:
        hashes = pa.array(
            [_text_hash(t) for t in batch[text_column].to_pylist()], type=pa.string()
        )
        t = pa.table({"text_hash": hashes, "id": batch[id_column]})
        agg = t.group_by("text_hash").aggregate([("id", "min"), ("id", "count")])
        return agg.rename_columns(["text_hash", "min_id", "n"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby("text_hash", sort=False)
            .agg(doc_id=("min_id", "min"), n_dups=("n", "sum"))
            .reset_index(drop=True)
        )
        return out[["doc_id", "n_dups"]]

    return sharded_groupby_apply(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["text_hash"],
        combine,
        num_shards=num_shards,
    )


def exact_dedup(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Keep the first (min-id) row of every duplicate group, dropping the
    rest.

    Batch-local pre-dedup (vectorized ``drop_duplicates`` keeping the
    in-batch min id) cuts the shuffle to one row per distinct text per
    block; the exchange then groups by a SHARD of the text hash, and one
    vectorized sort+drop_duplicates per shard finishes the job — O(shards)
    Python calls instead of one ``map_groups`` call per distinct text
    (~1.5 ms/group, pathological when almost every row is unique).
    """
    helper_cols = ["__text_hash", "__shard"]

    def prededup(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        hashes: List[str] = []
        shards: List[int] = []
        for t in texts:
            d = hashlib.md5((t or "").encode("utf-8")).digest()
            hashes.append(d.hex())
            shards.append(int.from_bytes(d[:4], "big") % num_shards)
        df = batch.to_pandas()
        df["__text_hash"] = hashes
        df["__shard"] = np.asarray(shards, dtype=np.int32)
        df = df.sort_values(id_column, kind="stable").drop_duplicates("__text_hash")
        return pa.Table.from_pandas(df, preserve_index=False)

    def shard_first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_column, kind="stable").drop_duplicates("__text_hash")
        return g.drop(columns=helper_cols)

    return (
        ds.map_batches(prededup, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(shard_first, batch_format="pandas")
    )


# --- shared LSH tail: bucket rows -> distinct candidate pairs --------------

def _empty_pairs_df(payload_cols: Sequence[str], payload_dtypes) -> pd.DataFrame:
    data = {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    for c in payload_cols:
        dt = payload_dtypes.get(c, "int64")
        data[c + "_a"] = pd.Series(dtype=dt)
        data[c + "_b"] = pd.Series(dtype=dt)
    return pd.DataFrame(data)


def _shard_pair_emitter(
    id_column: str, payload_cols: Sequence[str], max_bucket_members: int
):
    """Per-shard kernel: vectorized singleton drop + per-hot-bucket pair
    emission via ``np.triu_indices``.  The Python loop runs once per HOT
    bucket only — its trip count is the candidate volume, not the corpus."""

    def pairs_in_shard(g: pd.DataFrame) -> pd.DataFrame:
        payload_dtypes = {c: g[c].dtype for c in payload_cols}
        g = g.sort_values(["bucket", id_column], kind="stable").drop_duplicates(
            ["bucket", id_column]
        )
        g = g[g.duplicated("bucket", keep=False)]
        if not len(g):
            return _empty_pairs_df(payload_cols, payload_dtypes)
        ids = g[id_column].to_numpy()
        buckets = g["bucket"].to_numpy()
        starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        ends = np.r_[starts[1:], len(buckets)]
        ia_parts: List[np.ndarray] = []
        ib_parts: List[np.ndarray] = []
        for s, e in zip(starts, ends):
            m = min(int(e - s), max_bucket_members)  # deterministic min-id cap
            iu, ju = np.triu_indices(m, k=1)
            ia_parts.append(s + iu)
            ib_parts.append(s + ju)
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        out = {"id_a": ids[ia], "id_b": ids[ib]}
        for c in payload_cols:
            v = g[c].to_numpy()
            out[c + "_a"] = v[ia]
            out[c + "_b"] = v[ib]
        return pd.DataFrame(out).drop_duplicates(["id_a", "id_b"])

    return pairs_in_shard


def _bucket_candidate_pairs(
    bands: "ray.data.Dataset",
    id_column: str = "doc_id",
    payload_cols: Sequence[str] = (),
    max_bucket_members: int = 512,
    distinct: bool = True,
) -> "ray.data.Dataset":
    """(bucket, shard, id[, payloads]) rows -> (id_a < id_b) candidate pairs.

    One shuffle groups buckets into shards; pair emission happens inside the
    shard (vectorized).  With ``distinct=True`` a second groupby dedups
    pairs that surfaced in more than one bucket/band; callers whose verify
    stage is a cheap map can instead pass ``distinct=False`` and dedup
    AFTER filtering (smaller input, one less big all-to-all).  Everything
    stays a Dataset."""
    pairs = bands.groupby("shard").map_groups(
        _shard_pair_emitter(id_column, payload_cols, max_bucket_members),
        batch_format="pandas",
    )
    if not distinct:
        return pairs
    return _distinct_pairs(pairs, [c + s for c in payload_cols for s in ("_a", "_b")])


def _distinct_pairs(
    pairs: "ray.data.Dataset", carry_cols: Sequence[str] = (), num_shards: int = 64
) -> "ray.data.Dataset":
    """Global (id_a, id_b) dedup — sharded (``ops/agg.py``): the group count
    is the near-dup pair volume, so a key-wise aggregate would pay
    per-pair Python overhead.  Carried columns are identical across
    duplicates, so first-per-pair is a pick-any."""
    from .agg import sharded_groupby_apply

    cols = ["id_a", "id_b", *carry_cols]

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id_a", "id_b"])[cols]

    return sharded_groupby_apply(pairs, ["id_a", "id_b"], combine, num_shards=num_shards)


def _candidate_ids(
    pairs: "ray.data.Dataset", max_broadcast: Optional[int] = None
) -> tuple:
    """``(n_candidates, ids-or-None)`` — distinct ids in the candidate
    pair set.

    The distinct set is computed DISTRIBUTED (per-batch unique partials,
    one id-sharded dedup); only its COUNT always reaches the driver.  The
    id array itself comes back (sorted, for the ``ray.put`` broadcast
    prune) only when the count is at most ``max_broadcast``
    (`_BROADCAST_MAX_DOCS`), so the driver-side footprint is bounded by
    the same threshold that gates the payload joins.  Above it — the
    adversarial-dup-density regime where near-dup volume approaches
    corpus volume — callers get ``None`` and must skip the prune filter
    and run the bucketed joins; nothing id-shaped ever materializes on
    the driver."""
    from .agg import sharded_groupby_apply

    if max_broadcast is None:
        max_broadcast = _BROADCAST_MAX_DOCS

    def ids_of(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [batch["id_a"].combine_chunks(), batch["id_b"].combine_chunks()]
        )
        return pa.table({"cid": pc.unique(both)})

    # callers pass a MATERIALIZED pair set, so count() is metadata-only;
    # <= 2 x pair rows bounds the distinct id count, so under the
    # broadcast bound the per-batch unique partials stream straight to
    # the driver (the sharded distinct below would be a pure-overhead
    # exchange at this volume — it cost minhash_pairs ~70% at sf0.1)
    if 2 * pairs.count() <= max_broadcast:
        id_set: set = set()
        for b in pairs.map_batches(ids_of, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        ):
            id_set.update(b["cid"].to_pylist())
        return len(id_set), np.asarray(sorted(id_set), dtype=np.int64)

    def dedup(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates("cid")

    distinct = sharded_groupby_apply(
        pairs.map_batches(ids_of, batch_format="pyarrow"),
        ["cid"],
        dedup,
        num_shards=64,
    ).materialize()
    n = distinct.count()
    if n > max_broadcast:
        return n, None
    tabs = [
        t for t in ray.get(list(distinct.to_arrow_refs())) if t.num_rows
    ]
    if not tabs:
        return 0, np.zeros(0, dtype=np.int64)
    ids = np.sort(
        np.concatenate(
            [t["cid"].to_numpy(zero_copy_only=False) for t in tabs]
        ).astype(np.int64)
    )
    return n, ids


# above this many candidate docs the payload side stops being broadcastable
# and the verify joins fall back to bucketed shuffles
_BROADCAST_MAX_DOCS = 200_000


def _attach_pair_payload(
    pairs: "ray.data.Dataset",
    payload: "ray.data.Dataset",
    id_column: str,
    payload_column: str,
    num_buckets: int = 32,
    broadcast: Optional[bool] = None,
    n_candidate_docs: Optional[int] = None,
) -> "ray.data.Dataset":
    """pairs (id_a, id_b) x payload (id, value) -> (id_a, id_b, value_a,
    value_b).

    The payload table holds CANDIDATE docs only, so it is near-dup-volume
    sized; when small enough it ships once through the object store as
    Arrow block refs and every task joins map-side (no shuffle, no driver
    copy).  Above ``_BROADCAST_MAX_DOCS`` candidates, two bucketed hash
    joins do the same with candidate-volume shuffles."""
    if broadcast is None:
        broadcast = (
            n_candidate_docs is not None and n_candidate_docs <= _BROADCAST_MAX_DOCS
        )
    if broadcast:
        refs = payload.materialize().to_arrow_refs()
        pc_a = payload_column + "_a"
        pc_b = payload_column + "_b"
        cache: dict = {}  # per-task memo; the build itself is vectorized

        def join(batch: pa.Table) -> pa.Table:
            if "lut" not in cache:
                # vectorized build: sorted key array + the payload TABLE
                # (gathered with pc.take, never expanded to Python objects)
                # — a task that re-deserializes the closure pays one
                # argsort over the candidate ids, not a dict build
                tabs = [t for t in ray.get(list(refs)) if t.num_rows]
                if tabs:
                    full = pa.concat_tables(tabs).combine_chunks()
                    keys = full[id_column].to_numpy(zero_copy_only=False)
                    order = np.argsort(keys)
                    cache["lut"] = (
                        keys[order],
                        full[payload_column].take(pa.array(order)),
                    )
                else:
                    cache["lut"] = (
                        np.zeros(0, dtype=np.int64),
                        pa.chunked_array([], type=pa.list_(pa.int64())),
                    )
            keys, vals = cache["lut"]

            def gather(ids_arr):
                ids = ids_arr.combine_chunks().to_numpy(zero_copy_only=False)
                pos = np.searchsorted(keys, ids)
                pos_c = np.minimum(pos, max(len(keys) - 1, 0))
                found = (
                    (keys[pos_c] == ids) if len(keys) else np.zeros(len(ids), bool)
                )
                return pos_c, found

            pos_a, ok_a = gather(batch["id_a"])
            pos_b, ok_b = gather(batch["id_b"])
            mask = ok_a & ok_b
            kept = batch.filter(pa.array(mask))
            return pa.Table.from_pydict(
                {
                    "id_a": kept["id_a"],
                    "id_b": kept["id_b"],
                    pc_a: vals.take(pa.array(pos_a[mask])),
                    pc_b: vals.take(pa.array(pos_b[mask])),
                }
            )

        return pairs.map_batches(join, batch_format="pyarrow")

    from .join import bucketed_hash_join

    def rename(ds, mapping):
        return ds.map_batches(
            lambda b, m=mapping: b.rename_columns([m.get(n, n) for n in b.schema.names]),
            batch_format="pyarrow",
        )

    j1 = bucketed_hash_join(
        rename(pairs, {"id_a": id_column}), payload, on=id_column, num_buckets=num_buckets
    )
    j1 = rename(j1, {id_column: "id_a", payload_column: payload_column + "_a"})
    j2 = bucketed_hash_join(
        rename(j1, {"id_b": id_column}), payload, on=id_column, num_buckets=num_buckets
    )
    return rename(j2, {id_column: "id_b", payload_column: payload_column + "_b"})


# --- MinHash + LSH ---------------------------------------------------------

def _shingle_set(words: List[str], k: int) -> set:
    """Distinct word k-grams; short docs collapse to the whole text, empty
    docs to the empty set (mirrored exactly by the DuckDB oracle)."""
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + k]) for i in range(len(words) - k + 1)}


def _hash_shingles(shingles: set) -> np.ndarray:
    """crc32 of each shingle reduced mod 2^31-1 (31-bit values keep the
    minhash universal-hash multiply exact in uint64)."""
    if not shingles:
        return np.zeros(0, dtype=np.uint64)
    return np.fromiter(
        (zlib.crc32(s.encode("utf-8")) for s in shingles),
        dtype=np.uint64,
        count=len(shingles),
    ) % _P31


def _hash_shingles64(shingles: set) -> np.ndarray:
    """63-bit md5 shingle hashes for EXACT-Jaccard verification: collision
    probability ~|s|^2/2^63 per pair, so hashed-set cardinalities equal
    string-set cardinalities for all practical purposes (the DuckDB oracle
    computes the same Jaccard over string shingles)."""
    if not shingles:
        return np.zeros(0, dtype=np.int64)
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big") >> 1
            for s in shingles
        ),
        dtype=np.int64,
        count=len(shingles),
    )


class MinHashActor:
    """Per-batch shingling + MinHash signatures + LSH bucket rows.

    Permutation parameters are derived from a fixed seed so every actor (and
    every run) agrees.  Emits (bucket, shard, doc_id) rows; signatures never
    leave the actor (shipping a 64-int signature per band row would multiply
    shuffle volume ~50x — candidates are verified with exact Jaccard in a
    second corpus pass instead)."""

    def __init__(
        self,
        text_column: str = "text",
        id_column: str = "doc_id",
        num_perm: int = 64,
        num_bands: int = 16,
        shingle_k: int = 3,
        seed: int = 42,
        num_shards: int = 64,
    ):
        self.text_column = text_column
        self.id_column = id_column
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.rows_per_band = num_perm // num_bands
        self.shingle_k = shingle_k
        self.num_shards = num_shards
        rng = np.random.RandomState(seed)
        p = int(_P31)
        self.a = rng.randint(1, p, size=num_perm).astype(np.uint64)
        self.b = rng.randint(0, p, size=num_perm).astype(np.uint64)

    def signature(self, text: str) -> np.ndarray:
        return self._signatures([text])[0]

    def _signatures(self, texts: List[str]) -> np.ndarray:
        """(n, num_perm) signatures for a whole batch in one vectorized
        pass: every doc's shingle hashes concatenate into one vector,
        (a*x + b) mod p evaluates as a single (num_perm, T) kernel (exact
        in uint64 — all operands < 2^31), and per-doc minima come from
        ``np.minimum.reduceat`` at doc offsets.  Per-DOC numpy dispatch
        (the previous shape) cost ~5 ms/doc in overhead alone; this
        amortizes it across the batch.  The (num_perm, T) temporary is
        chunked to ~32 MB so long-doc batches stay heap-bounded."""
        n = len(texts)
        hvs: List[np.ndarray] = []
        counts = np.empty(n, dtype=np.int64)
        for i, t in enumerate(texts):
            hv = _hash_shingles(
                _shingle_set(_WORD_RE.findall(t or ""), self.shingle_k)
            )
            if not len(hv):
                hv = np.zeros(1, dtype=np.uint64)
            hvs.append(hv)
            counts[i] = len(hv)
        allh = np.concatenate(hvs)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        out = np.empty((n, self.num_perm), dtype=np.uint64)
        max_t = max(1, (4 << 20) // self.num_perm)  # ~32 MB uint64 temp
        lo = 0
        while lo < n:
            hi = int(np.searchsorted(offsets, offsets[lo] + max_t, side="right")) - 1
            hi = max(hi, lo + 1)  # a single over-long doc still advances
            seg = allh[offsets[lo] : offsets[hi]]
            vals = (self.a[:, None] * seg[None, :] + self.b[:, None]) % _P31
            idx = (offsets[lo:hi] - offsets[lo]).astype(np.int64)
            out[lo:hi] = np.minimum.reduceat(vals, idx, axis=1).T
            lo = hi
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_column].to_pylist()
        texts = batch[self.text_column].to_pylist()
        n = len(ids)
        if n == 0:
            return pa.Table.from_pydict(
                {
                    "bucket": pa.array([], type=pa.int64()),
                    "shard": pa.array([], type=pa.int32()),
                    self.id_column: pa.array([], type=pa.int64()),
                }
            )
        sigs = self._signatures(texts)  # (n, num_perm)
        b, r = self.num_bands, self.rows_per_band
        chunks = sigs.reshape(n, b, r)
        # band bucket key: polynomial over the band's minhashes mixed with
        # the band index, splitmix-finalized — one vectorized pass, no
        # per-band Python hashing (cross-band collisions only add candidates
        # that exact verification removes)
        K = np.uint64(0x9E3779B97F4A7C15)
        acc = np.zeros((n, b), dtype=np.uint64)
        for j in range(r):
            acc = acc * K + chunks[:, :, j]
        acc ^= np.arange(b, dtype=np.uint64)[None, :] * np.uint64(0xC2B2AE3D27D4EB4F)
        acc = (acc ^ (acc >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        acc = (acc ^ (acc >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        acc ^= acc >> np.uint64(31)
        bucket = (acc >> np.uint64(1)).astype(np.int64).ravel()
        doc = np.repeat(np.asarray(ids, dtype=np.int64), b)
        shard = (bucket % self.num_shards).astype(np.int32)
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(bucket, type=pa.int64()),
                "shard": pa.array(shard, type=pa.int32()),
                self.id_column: pa.array(doc, type=pa.int64()),
            }
        )


def jaccard_verify(
    ds: "ray.data.Dataset",
    pairs: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    shingle_k: int = 3,
    num_buckets: int = 32,
    threshold: Optional[float] = None,
) -> "ray.data.Dataset":
    """Exact n-gram Jaccard for a candidate pair Dataset — distributed:
    broadcast the (small) candidate id array, stream the corpus once to
    build hashed shingle sets for candidate docs only, then two bucketed
    hash joins attach the sets to the pairs and a per-pair kernel computes
    the exact score.  Shingles are shipped as 64-bit hashes, not strings
    (set cardinalities — and therefore Jaccard — are preserved)."""
    # the pair set is consumed twice (id extraction + join); materialize so
    # the upstream LSH pipeline runs once — it is candidate-volume sized
    pairs = pairs.materialize()
    n_cand, ids = _candidate_ids(pairs)
    if n_cand == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "jaccard": pd.Series(dtype="float64"),
                }
            )
        )
    # ids is None above _BROADCAST_MAX_DOCS candidates: no prune filter
    # (candidates ~ corpus in that regime, so the filter saves nothing)
    # and the payload joins below run bucketed instead of broadcast
    ids_ref = ray.put(ids) if ids is not None else None

    def shingles_of(batch: pa.Table) -> pa.Table:
        if ids_ref is not None:
            wanted = pa.array(ray.get(ids_ref), type=batch[id_column].type)
            keep = batch.filter(pc.is_in(batch[id_column], value_set=wanted))
        else:
            keep = batch
        out_ids: List[int] = []
        out_sets: List[List[int]] = []
        for i, t in zip(keep[id_column].to_pylist(), keep[text_column].to_pylist()):
            sh = _hash_shingles64(_shingle_set(_WORD_RE.findall(t or ""), shingle_k))
            out_ids.append(i)
            out_sets.append(np.unique(sh).tolist())
        return pa.Table.from_pydict(
            {
                id_column: pa.array(out_ids, type=pa.int64()),
                "sh": pa.array(out_sets, type=pa.list_(pa.int64())),
            }
        )

    shingle_ds = ds.map_batches(shingles_of, batch_format="pyarrow")
    joined = _attach_pair_payload(
        pairs.select_columns(["id_a", "id_b"]),
        shingle_ds,
        id_column,
        "sh",
        num_buckets=num_buckets,
        n_candidate_docs=n_cand,
    )

    def score(batch: pa.Table) -> pa.Table:
        import math

        jac: List[float] = []
        keep: List[bool] = []
        for a, b in zip(batch["sh_a"].to_pylist(), batch["sh_b"].to_pylist()):
            sa, sb = set(a), set(b)
            u = len(sa | sb)
            raw = len(sa & sb) / u if u else 0.0
            # threshold on the RAW value (what the brute-force oracle and
            # ngram_jaccard_pairs filter on); rounding the OUTPUT can only
            # happen after — a pair at threshold - 5e-7 must not round in
            keep.append(threshold is None or raw >= threshold)
            # round half away from zero (DuckDB round()); Python's banker's
            # rounding diverges on exact .5 boundaries like jaccard=1/128
            jac.append(math.floor(raw * 1e6 + 0.5) / 1e6)
        t = pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "jaccard": pa.array(jac, type=pa.float64()),
            }
        )
        return t.filter(pa.array(keep)) if threshold is not None else t

    return joined.map_batches(score, batch_format="pyarrow")


def minhash_lsh_pairs(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    num_perm: int = 64,
    num_bands: int = 16,
    shingle_k: int = 3,
    concurrency=None,
    num_shards: int = 64,
    max_bucket_members: int = 512,
) -> "ray.data.Dataset":
    """Near-duplicate pairs (id_a, id_b, jaccard >= threshold).

    LSH banding proposes candidates; every candidate is verified with EXACT
    n-gram Jaccard, so false positives never escape — the operator's output
    equals brute force minus LSH false negatives (controlled by
    num_perm/num_bands)."""
    bands = ds.map_batches(
        MinHashActor,
        fn_constructor_kwargs={
            "text_column": text_column,
            "id_column": id_column,
            "num_perm": num_perm,
            "num_bands": num_bands,
            "shingle_k": shingle_k,
            "num_shards": num_shards,
        },
        batch_format="pyarrow",
        concurrency=concurrency if concurrency is not None else _pool_size(),
    )
    # duplicates across bands are deduped AFTER the (map-side) verify, on
    # the much smaller filtered pair set — verify is deterministic, so
    # scoring a pair once per matching band only costs map work
    cand = _bucket_candidate_pairs(
        bands, id_column=id_column, max_bucket_members=max_bucket_members,
        distinct=False,
    )
    kept = jaccard_verify(
        ds, cand, text_column=text_column, id_column=id_column,
        shingle_k=shingle_k, threshold=threshold,
    )
    return _distinct_pairs(kept, ["jaccard"])


def ngram_jaccard_pairs(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    threshold: float = 0.5,
    shingle_k: int = 3,
    num_shards: int = 64,
    max_bucket_members: int = 512,
    score: str = "jaccard",
) -> "ray.data.Dataset":
    """Near-duplicate pairs by exact n-gram Jaccard with an INVERTED-INDEX
    candidate generator: docs sharing at least one shingle are candidates
    (any pair with Jaccard > 0 shares one, so — unlike MinHash banding —
    there are NO false negatives at any threshold).

    ``score="containment"`` switches the measure to Broder's containment
    ``c / min(|A|, |B|)`` (Broder 1997, "On the resemblance and
    containment of documents") — the asymmetric score that catches a
    short document embedded inside a long one, which symmetric Jaccard
    dilutes toward zero.  Same index, same exchanges; only the final
    per-pair denominator changes, and the output column is named
    ``containment``.

    The index IS the verification: each doc emits one (bucket=shingle_hash,
    doc_id, size=|shingle set|) row per DISTINCT shingle, so after in-shard
    pair emission a pair's MULTIPLICITY equals its intersection size c, and
    ``jaccard = c / (size_a + size_b - c)`` falls out of one
    (id_a, id_b) count-aggregate — no second corpus read, no per-pair set
    intersection (a verify pass cost 260 s at sf0.1 on a repetitive corpus
    where virtually every shingle is shared; the count path is ~20x
    cheaper, one shuffle of sum-over-shingles(df choose 2) small rows).

    ``max_bucket_members`` caps boilerplate shingles (deterministic min-id
    truncation) — the 100 TB knob, exact while no bucket exceeds it.
    Output: (id_a, id_b, <score> >= threshold)."""
    if score not in ("jaccard", "containment"):
        raise ValueError(f"unknown score: {score!r}")

    def index_rows(batch: pa.Table) -> pa.Table:
        ids = batch[id_column].to_pylist()
        texts = batch[text_column].to_pylist()
        out_b: List[np.ndarray] = []
        out_i: List[np.ndarray] = []
        out_s: List[np.ndarray] = []
        for i, t in zip(ids, texts):
            hv = np.unique(
                _hash_shingles64(_shingle_set(_WORD_RE.findall(t or ""), shingle_k))
            )
            if len(hv):
                out_b.append(hv)
                out_i.append(np.full(len(hv), i, dtype=np.int64))
                out_s.append(np.full(len(hv), len(hv), dtype=np.int64))
        if not out_b:
            return pa.Table.from_pydict(
                {
                    "bucket": pa.array([], type=pa.int64()),
                    "shard": pa.array([], type=pa.int32()),
                    id_column: pa.array([], type=pa.int64()),
                    "size": pa.array([], type=pa.int64()),
                }
            )
        bucket = np.concatenate(out_b)
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(bucket, type=pa.int64()),
                "shard": pa.array(
                    (bucket % num_shards).astype(np.int32), type=pa.int32()
                ),
                id_column: pa.array(np.concatenate(out_i), type=pa.int64()),
                "size": pa.array(np.concatenate(out_s), type=pa.int64()),
            }
        )

    bands = ds.map_batches(index_rows, batch_format="pyarrow")

    def count_pairs_in_shard(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized per-shard pair emission with a PARTIAL COUNT: one row
        per (id_a, id_b) with the number of co-occurring buckets in this
        shard (+ the sizes, constant per doc)."""
        g = g.sort_values(["bucket", id_column], kind="stable").drop_duplicates(
            ["bucket", id_column]
        )
        g = g[g.duplicated("bucket", keep=False)]
        if not len(g):
            return pd.DataFrame(
                {
                    "id_a": pd.Series(dtype="int64"),
                    "id_b": pd.Series(dtype="int64"),
                    "size_a": pd.Series(dtype="int64"),
                    "size_b": pd.Series(dtype="int64"),
                    "c": pd.Series(dtype="int64"),
                    # keep the schema identical to non-empty shards — the
                    # downstream groupby("pshard") must see it in every block
                    "pshard": pd.Series(dtype="int64"),
                }
            )
        ids = g[id_column].to_numpy()
        sizes = g["size"].to_numpy()
        buckets = g["bucket"].to_numpy()
        starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        ends = np.r_[starts[1:], len(buckets)]
        ia_parts: List[np.ndarray] = []
        ib_parts: List[np.ndarray] = []
        for s, e in zip(starts, ends):
            m = min(int(e - s), max_bucket_members)
            iu, ju = np.triu_indices(m, k=1)
            ia_parts.append(s + iu)
            ib_parts.append(s + ju)
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        out = pd.DataFrame(
            {
                "id_a": ids[ia],
                "id_b": ids[ib],
                "size_a": sizes[ia],
                "size_b": sizes[ib],
            }
        )
        out = (
            out.groupby(["id_a", "id_b", "size_a", "size_b"], sort=False)
            .size()
            .reset_index(name="c")
        )
        # shard on PAIR identity for the global combine: a Ray
        # groupby(id_a, id_b).aggregate here would pay per-group Python
        # overhead on every candidate pair (~0.25 ms x 1.1M pairs = 280 s
        # at sf0.1); sharding keeps the group count at O(num_shards) with
        # one vectorized pandas combine per shard
        out["pshard"] = (
            (out["id_a"].to_numpy() * np.int64(1_000_003))
            ^ out["id_b"].to_numpy()
        ) % num_shards
        return out

    def combine_and_score(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby(["id_a", "id_b", "size_a", "size_b"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        c = agg["c"].to_numpy(dtype=np.float64)
        sa = agg["size_a"].to_numpy(dtype=np.float64)
        sb = agg["size_b"].to_numpy(dtype=np.float64)
        if score == "containment":
            denom = np.minimum(sa, sb)
        else:
            denom = sa + sb - c
        val = np.divide(c, denom, out=np.zeros_like(c), where=denom > 0)
        keep = val >= threshold
        # half-away-from-zero to match DuckDB round()
        rounded = np.floor(val * 1e6 + 0.5) / 1e6
        return pd.DataFrame(
            {
                "id_a": agg["id_a"].to_numpy()[keep],
                "id_b": agg["id_b"].to_numpy()[keep],
                score: rounded[keep],
            }
        )

    return (
        bands.groupby("shard")
        .map_groups(count_pairs_in_shard, batch_format="pandas")
        .groupby("pshard")
        .map_groups(combine_and_score, batch_format="pandas")
    )


# --- SimHash ---------------------------------------------------------------

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)


def simhash_batch(batch: pa.Table, text_column: str = "text") -> pa.Table:
    """Vectorized batch SimHash: md5 only the per-batch word VOCABULARY,
    expand to a (vocab, 64) ±1 bit matrix, then one ``np.add.reduceat``
    per batch sums word vectors into per-doc sign vectors."""
    texts = batch[text_column].to_pylist()
    doc_words: List[List[str]] = [_WORD_RE.findall(t or "") for t in texts]
    vocab: dict = {}
    flat_ids: List[int] = []
    offsets = [0]
    for words in doc_words:
        for w in words:
            wid = vocab.get(w)
            if wid is None:
                wid = len(vocab)
                vocab[w] = wid
            flat_ids.append(wid)
        offsets.append(len(flat_ids))
    n = len(texts)
    if vocab:
        hv = np.fromiter(
            (
                int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "big")
                for w in vocab
            ),
            dtype=np.uint64,
            count=len(vocab),
        )
        bits = (((hv[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)).astype(np.int32) * 2 - 1)
        word_vecs = bits[np.asarray(flat_ids, dtype=np.int64)]
        sums = np.zeros((n, 64), dtype=np.int64)
        starts = np.asarray(offsets[:-1])
        nonempty = np.flatnonzero(np.diff(offsets) > 0)
        if len(nonempty):
            red = np.add.reduceat(word_vecs, starts[nonempty], axis=0)
            # reduceat with duplicate consecutive starts needs the nonempty
            # filter; rows for empty docs stay zero (simhash 0)
            sums[nonempty] = red
        sign = (sums > 0).astype(np.uint64)
        sim_u = (sign << _BIT_SHIFTS[None, :]).sum(axis=1, dtype=np.uint64)
    else:
        sim_u = np.zeros(n, dtype=np.uint64)
    return batch.append_column(
        "simhash", pa.array(sim_u.astype(np.int64), type=pa.int64())
    )


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over uint64 via byte unpacking."""
    as_bytes = x.astype("<u8").view(np.uint8)
    return np.unpackbits(as_bytes).reshape(len(x), 64).sum(axis=1)


def simhash_near_pairs(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    max_hamming: int = 3,
    num_shards: int = 64,
    max_bucket_members: int = 512,
) -> "ray.data.Dataset":
    """Near-dup pairs by SimHash banding: 4 x 16-bit chunks (any pair within
    hamming distance 3 shares at least one exact chunk), hamming verified
    vectorized on the (distinct) candidate pairs.  Output:
    (id_a, id_b, hamming)."""
    hashed = ds.map_batches(
        lambda b: simhash_batch(b, text_column), batch_format="pyarrow"
    ).select_columns([id_column, "simhash"])

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_column].to_pylist(), dtype=np.int64)
        sims = np.asarray(batch["simhash"].to_pylist(), dtype=np.int64)
        u = sims.view(np.uint64)
        n = len(ids)
        chunk_idx = np.arange(4, dtype=np.uint64)
        # bucket = chunk index (2 bits) | 16-bit chunk value — one int32
        vals = ((u[:, None] >> (chunk_idx[None, :] * np.uint64(16))) & np.uint64(0xFFFF))
        bucket = (chunk_idx[None, :] << np.uint64(16)) | vals
        bucket = bucket.astype(np.int64).ravel()
        return pa.Table.from_pydict(
            {
                "bucket": pa.array(bucket, type=pa.int64()),
                "shard": pa.array((bucket % num_shards).astype(np.int32), type=pa.int32()),
                id_column: pa.array(np.repeat(ids, 4), type=pa.int64()),
                "simhash": pa.array(np.repeat(sims, 4), type=pa.int64()),
            }
        )

    bands = hashed.map_batches(explode, batch_format="pyarrow")
    # verify is a pure map, so chunk-duplicates are deduped after the
    # hamming filter on the much smaller surviving pair set
    cand = _bucket_candidate_pairs(
        bands,
        id_column=id_column,
        payload_cols=["simhash"],
        max_bucket_members=max_bucket_members,
        distinct=False,
    )

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "id_a": pa.array([], type=pa.int64()),
                    "id_b": pa.array([], type=pa.int64()),
                    "hamming": pa.array([], type=pa.int64()),
                }
            )
        sa = np.asarray(batch["simhash_a"].to_pylist(), dtype=np.int64).view(np.uint64)
        sb = np.asarray(batch["simhash_b"].to_pylist(), dtype=np.int64).view(np.uint64)
        d = _popcount64(sa ^ sb)
        keep = d <= max_hamming
        t = pa.table(
            {
                "id_a": batch["id_a"],
                "id_b": batch["id_b"],
                "hamming": pa.array(d.astype(np.int64), type=pa.int64()),
            }
        )
        return t.filter(pa.array(keep))

    return _distinct_pairs(cand.map_batches(verify, batch_format="pyarrow"), ["hamming"])


def exact_dedup_best(
    ds: "ray.data.Dataset",
    text_column: str = "text",
    id_column: str = "doc_id",
    score_column: str = "score",
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Keep the BEST row of every exact-duplicate group — highest
    `score_column`, ties toward the smallest id — and attach `n_dups`.

    This is the consolidation step real dedup pipelines run after
    discovery: of N byte-identical copies, keep the one whose metadata
    scores best.  Same scale shape as :func:`exact_dedup`: batch-local
    pre-best (vectorized sort + drop_duplicates, carrying an in-batch
    count partial) cuts the exchange to one row per distinct text per
    block, then one vectorized reduce per hash shard — O(shards)
    Python calls regardless of distinct-text cardinality."""
    helper_cols = ["__text_hash", "__shard", "__cnt"]

    def prebest(batch: pa.Table) -> pa.Table:
        texts = batch[text_column].to_pylist()
        hashes: List[str] = []
        shards: List[int] = []
        for t in texts:
            d = hashlib.md5((t or "").encode("utf-8")).digest()
            hashes.append(d.hex())
            shards.append(int.from_bytes(d[:4], "big") % num_shards)
        df = batch.to_pandas()
        df["__text_hash"] = hashes
        df["__shard"] = np.asarray(shards, dtype=np.int32)
        df["__cnt"] = df.groupby("__text_hash")[id_column].transform("size")
        df = df.sort_values(
            [score_column, id_column], ascending=[False, True], kind="stable"
        ).drop_duplicates("__text_hash")
        return pa.Table.from_pandas(df, preserve_index=False)

    def shard_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["n_dups"] = g.groupby("__text_hash")["__cnt"].transform("sum")
        g = g.sort_values(
            [score_column, id_column], ascending=[False, True], kind="stable"
        ).drop_duplicates("__text_hash")
        return g.drop(columns=helper_cols)

    return (
        ds.map_batches(prebest, batch_format="pyarrow")
        .groupby("__shard")
        .map_groups(shard_best, batch_format="pandas")
    )
