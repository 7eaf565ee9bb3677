"""Deterministic (hash-based) sampling — reproducible corpus subsets.

``ds.random_sample`` is nondeterministic across runs and cluster layouts;
training-data pipelines need samples that are STABLE (the same doc is in
the sample on every run, every resume, every cluster size) and
AUDITABLE (a SQL engine can reproduce the exact subset).  Both operators
therefore key on ``md5(str(key)) % 100`` — cross-engine reproducible
(DuckDB: ``('0x' || substr(md5(key::VARCHAR), 1, 8))::UBIGINT % 100``)
and uniform.  The md5 is one short-string hash per ROW KEY, in a plain
filter stage that is read-bound in practice; a pure-numpy splitmix kernel
(``ops/hashing.py``) is the alternative when cross-engine auditability is
not required.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pyarrow as pa

import ray
import ray.data


def _pct_of(keys) -> np.ndarray:
    """md5-derived uniform percentile (0-99) per key; first 8 hex chars as
    an integer, mod 100 — matches the documented DuckDB expression."""
    return np.fromiter(
        (
            int(hashlib.md5(str(k).encode("utf-8")).hexdigest()[:8], 16) % 100
            for k in keys
        ),
        dtype=np.int64,
        count=len(keys),
    )


def deterministic_sample(
    ds: "ray.data.Dataset", key_column: str, pct: int
) -> "ray.data.Dataset":
    """Keep rows whose key hashes into the first ``pct`` percentiles —
    a stable, reproducible ~pct% sample."""

    def keep(batch: pa.Table) -> pa.Table:
        p = _pct_of(batch[key_column].to_pylist())
        return batch.filter(pa.array(p < pct))

    return ds.map_batches(keep, batch_format="pyarrow")


def group_sample(
    ds: "ray.data.Dataset",
    group_column: str,
    key_column: str,
    k: int,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Deterministic ``k`` rows per group: rank rows inside each group by
    ``md5(str(key))`` (60-bit, cross-engine reproducible — DuckDB:
    ``('0x' || substr(md5(CAST(key AS VARCHAR)), 1, 15))::BIGINT``) and
    keep the ``k`` smallest.  A reservoir sample whose outcome is
    independent of run, resume, and cluster layout; rides the sharded
    per-group top-k (no Python call per group)."""
    import hashlib

    from .topk import group_topk

    def add_rank_key(batch: pa.Array) -> pa.Array:
        keys = batch[key_column].to_pylist()
        h = np.fromiter(
            (
                int(hashlib.md5(str(v).encode("utf-8")).hexdigest()[:15], 16)
                for v in keys
            ),
            dtype=np.int64,
            count=len(keys),
        )
        return batch.append_column("__h", pa.array(h, type=pa.int64()))

    ranked = group_topk(
        ds.map_batches(add_rank_key, batch_format="pyarrow"),
        keys=[group_column],
        value_column="__h",
        k=k,
        ascending=True,
        tiebreak=[key_column],
        num_shards=num_shards,
    )
    return ranked.drop_columns(["__h"])


def stratified_sample(
    ds: "ray.data.Dataset",
    key_column: str,
    stratum_column: str,
    rates: Dict[str, int],
    default_pct: int = 100,
) -> "ray.data.Dataset":
    """Per-stratum sampling rates (percent), e.g. downsample boilerplate
    languages while keeping rare ones whole: ``rates={'en': 30}``."""

    def keep(batch: pa.Table) -> pa.Table:
        p = _pct_of(batch[key_column].to_pylist())
        strata = batch[stratum_column].to_pylist()
        cut = np.fromiter(
            (rates.get(s, default_pct) for s in strata),
            dtype=np.int64,
            count=len(strata),
        )
        return batch.filter(pa.array(p < cut))

    return ds.map_batches(keep, batch_format="pyarrow")


def assign_splits(
    ds: "ray.data.Dataset",
    key_column: str,
    bounds=(80, 90),
    names=("train", "val", "test"),
) -> "ray.data.Dataset":
    """Deterministic train/val/test assignment: the md5 percentile of the
    row key picks the split (``< bounds[0]`` -> names[0], ``< bounds[1]``
    -> names[1], else names[2]).  Stateless map — reproducible across
    engines, runs and cluster sizes, and a doc keeps its split when the
    corpus grows (percentiles depend only on the key)."""
    lo, hi = bounds
    n0, n1, n2 = names

    def tag(batch: pa.Table) -> pa.Table:
        p = _pct_of(batch[key_column].to_pylist())
        split = np.where(p < lo, n0, np.where(p < hi, n1, n2))
        return batch.append_column("split", pa.array(split, type=pa.string()))

    return ds.map_batches(tag, batch_format="pyarrow")


def key_quantiles(
    ds: "ray.data.Dataset",
    key_column: str,
    value_column: str,
    quantiles,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """EXACT lower-interpolation quantiles per key, one ``p<NN>`` column
    per requested quantile (0.5 -> ``p50``).

    Rides the sharded-aggregation exchange: every value of one key lands in
    one shard, so a vectorized per-key sort inside the shard yields exact
    quantiles — no sketch needed.  This is the bounded-cardinality shape
    (metrics keyed by type/tenant/model); keys whose VALUE VOLUME exceeds a
    worker's heap need a t-digest style sketch instead, which composes as a
    per-batch partial + merge in the same two phases."""
    import pandas as pd

    from .agg import sharded_groupby_apply

    qs = list(quantiles)
    names = [f"p{round(q * 100):d}" for q in qs]  # round, not truncate (0.29 -> p29)

    def shard_q(df: pd.DataFrame) -> pd.DataFrame:
        # discrete quantile, SQL quantile_disc semantics: the element at
        # 1-indexed position ceil(q*n) of the sorted values (pandas'
        # interpolation="lower" uses floor(q*(n-1)) — off by one at high q)
        rows = []
        for k, v in df.groupby(key_column, sort=False)[value_column]:
            s = np.sort(v.to_numpy())
            n = len(s)
            row = {key_column: k}
            for q, name in zip(qs, names):
                # clamp BOTH ends: q=0 gives ceil(0*n)-1 = -1, which would
                # wrap to the MAX via negative indexing (quantile_disc(0)=min)
                row[name] = float(s[min(n - 1, max(0, int(np.ceil(q * n)) - 1))])
            rows.append(row)
        return pd.DataFrame(rows, columns=[key_column, *names])

    return sharded_groupby_apply(
        ds.select_columns([key_column, value_column]),
        [key_column],
        shard_q,
        num_shards=num_shards,
    )


def group_quantile_filter(
    ds: "ray.data.Dataset",
    group_column: str,
    value_column: str,
    q: float,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """Keep rows whose value is >= the group's discrete ``q``-quantile —
    the per-language quality gate of a corpus-prep pipeline ("drop the
    shortest quartile of each language's documents").

    Two passes over the house shapes: (1) exact per-group quantile_disc
    through the sharded aggregation (:func:`key_quantiles`), whose
    result is GROUP-CARDINALITY-sized (languages/tenants — bounded by
    construction, so collecting it to the driver and re-broadcasting is a
    lookup-table broadcast, not a data-sized pull); (2) one streaming
    filter ``map_batches`` with a per-batch merge against the broadcast
    thresholds.  Integer values compare exactly against the float
    threshold (a quantile_disc threshold IS one of the values), so the
    kept set hash-matches DuckDB's ``quantile_disc`` oracle bit-for-bit.
    """
    name = f"p{round(q * 100):d}"
    thr = key_quantiles(
        ds,
        key_column=group_column,
        value_column=value_column,
        quantiles=(q,),
        num_shards=num_shards,
    ).to_pandas()
    lut = dict(zip(thr[group_column], thr[name]))
    lut_ref = ray.put(lut)

    def keep(batch: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        groups = batch[group_column].to_pylist()
        vals = batch[value_column].to_numpy(zero_copy_only=False)
        thr_v = np.fromiter(
            (table.get(g, np.inf) for g in groups), dtype=np.float64, count=len(groups)
        )
        return batch.filter(pa.array(vals >= thr_v))

    return ds.map_batches(keep, batch_format="pyarrow")
