"""Cardinality sketching — KMV (k-minimum-values) approximate distinct
count.

The exact distinct count of a corpus-scaled key needs an all-to-all
exchange of every distinct value; the KMV sketch replaces it with a
BOUNDED summary: each block contributes its k smallest 60-bit hash
values (≤ k rows per block regardless of block size), merging is a
tiny global ``sort().limit(k)``, and the estimate comes from the k-th
smallest hash — ``(k-1) * 2^60 / h_k`` (uniform order statistics).
When fewer than k distinct hashes exist the sketch IS the distinct set
and the count is exact.  Standard error ~ 1/sqrt(k-2) (~6% at k=256).

The hash is the corpus-auditability idiom from ``ops/sample.py``: the
first 15 hex chars of ``md5(str(value))`` — cross-engine reproducible,
so a SQL engine computes the *identical* sketch and estimate (DuckDB:
``('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 15))::BIGINT``).  The
estimate is integer arithmetic end-to-end: deterministic, exactly
comparable.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np
import pandas as pd

import ray
import ray.data
from ray.data.aggregate import AggregateFnV2
from ray.data.block import BlockAccessor

_BITS = 60  # 15 hex chars; fits int64 with headroom


def _h60(value) -> int:
    return int(hashlib.md5(str(value).encode("utf-8")).hexdigest()[:15], 16)


class KmvSketch(AggregateFnV2):
    """Dataset-native KMV accumulator: each block contributes its ≤ k
    smallest distinct hashes, partials tree-combine through Ray Data's
    aggregate machinery (never through the driver), and ``finalize``
    turns the k-th order statistic into the integer estimate."""

    def __init__(self, on: str, k: int = 256):
        self._k = k
        super().__init__(
            f"kmv({on})",
            zero_factory=lambda: np.zeros(0, dtype=np.int64),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> np.ndarray:
        col = BlockAccessor.for_block(block).to_arrow()[self.get_target_column()]
        hs = {_h60(v) for v in col.to_pylist() if v is not None}
        return np.array(sorted(heapq.nsmallest(self._k, hs)), dtype=np.int64)

    def combine(self, acc: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.union1d(acc, new)[: self._k]

    def finalize(self, acc: np.ndarray) -> int:
        if len(acc) < self._k:
            return int(len(acc))
        return (self._k - 1) * (1 << _BITS) // int(acc[-1])


def kmv_distinct(
    ds: "ray.data.Dataset", column: str, k: int = 256
) -> pd.DataFrame:
    """Approximate COUNT(DISTINCT column) via a k-minimum-values sketch.

    Returns a one-row DataFrame ``{n_distinct_est}``.  Per-block and
    per-combine state is ≤ k ints — the sketch contract is exactly that
    nothing cardinality-sized ever moves or materializes."""
    out = ds.aggregate(KmvSketch(column, k=k))
    return pd.DataFrame([{"n_distinct_est": int(out[f"kmv({column})"])}])


def kmv_oracle_sql(table: str, column: str, k: int = 256) -> str:
    """The DuckDB mirror of :func:`kmv_distinct` — identical hash,
    identical integer estimate."""
    return f"""
    WITH h AS (SELECT DISTINCT
                 CAST(('0x' || substr(md5(CAST({column} AS VARCHAR)), 1, 15))
                      AS BIGINT) AS h
               FROM {table} WHERE {column} IS NOT NULL),
    k AS (SELECT h FROM h ORDER BY h LIMIT {k})
    SELECT CAST(CASE WHEN (SELECT COUNT(*) FROM k) < {k}
                     THEN (SELECT COUNT(*) FROM k)
                     ELSE ({k - 1} * (CAST(1 AS HUGEINT) << {_BITS}))
                          // (SELECT MAX(h) FROM k)
                END AS BIGINT) AS n_distinct_est
    """


# --- Count-Min sketch ---------------------------------------------------------

def _cm_bucket(row: int, value, width: int) -> int:
    """Row-salted 60-bit md5 bucket — same cross-engine idiom as the KMV
    hash, so a SQL engine computes the identical sketch cell."""
    h = int(
        hashlib.md5(f"{row}:{value}".encode("utf-8")).hexdigest()[:15], 16
    )
    return h % width


class CountMinSketch(AggregateFnV2):
    """Dataset-native Count-Min accumulator: a fixed (depth x width) int64
    matrix per block (independent of block size), elementwise-summed
    through Ray Data's tree combine.  Point estimates upper-bound true
    frequencies; error ≤ 2N/width with prob 1 - 2^-depth.  Per-block cost
    is depth md5 calls per DISTINCT value (value_counts first), not per
    row."""

    def __init__(self, on: str, depth: int = 4, width: int = 512):
        self._d = depth
        self._w = width
        super().__init__(
            f"countmin({on})",
            zero_factory=lambda: np.zeros((depth, width), dtype=np.int64),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> np.ndarray:
        col = BlockAccessor.for_block(block).to_arrow()[self.get_target_column()]
        acc = np.zeros((self._d, self._w), dtype=np.int64)
        counts: dict = {}
        for v in col.to_pylist():
            if v is not None:
                counts[v] = counts.get(v, 0) + 1
        for v, c in counts.items():
            for i in range(self._d):
                acc[i, _cm_bucket(i, v, self._w)] += c
        return acc

    def combine(self, acc: np.ndarray, new: np.ndarray) -> np.ndarray:
        return acc + new

    def finalize(self, acc: np.ndarray) -> np.ndarray:
        return acc


def countmin_counts(
    ds: "ray.data.Dataset",
    column: str,
    probes,
    depth: int = 4,
    width: int = 512,
) -> pd.DataFrame:
    """Count-Min point estimates for ``probes``: one bounded-size sketch
    exchange (depth x width ints per block), then a driver-side probe of
    depth cells per key.  Returns (key, est) sorted by key."""
    sketch = ds.aggregate(CountMinSketch(column, depth=depth, width=width))[
        f"countmin({column})"
    ]
    rows = [
        {
            "key": str(p),
            "est": int(
                min(sketch[i, _cm_bucket(i, p, width)] for i in range(depth))
            ),
        }
        for p in probes
    ]
    return pd.DataFrame(rows).sort_values("key").reset_index(drop=True)


def countmin_oracle_sql(
    table: str, column: str, probes, depth: int = 4, width: int = 512
) -> str:
    """DuckDB mirror of :func:`countmin_counts` — identical row-salted
    hash, identical cells, identical min-over-rows estimate."""
    probe_values = ", ".join(f"('{p}')" for p in probes)
    rows = ", ".join(str(i) for i in range(depth))
    bucket = (
        "CAST(('0x' || substr(md5(CAST(i AS VARCHAR) || ':' || "
        "CAST({v} AS VARCHAR)), 1, 15)) AS BIGINT) % {w}"
    )
    return f"""
    WITH probes(key) AS (VALUES {probe_values}),
    occ AS (SELECT i, {bucket.format(v=column, w=width)} AS b
            FROM {table}, UNNEST([{rows}]) u(i)
            WHERE {column} IS NOT NULL),
    cm AS (SELECT i, b, CAST(COUNT(*) AS BIGINT) AS c FROM occ GROUP BY 1, 2),
    pe AS (SELECT key, i, {bucket.format(v="key", w=width)} AS b
           FROM probes, UNNEST([{rows}]) u(i))
    SELECT key, CAST(MIN(COALESCE(cm.c, 0)) AS BIGINT) AS est
    FROM pe LEFT JOIN cm USING (i, b)
    GROUP BY key ORDER BY key
    """


# --- HyperLogLog --------------------------------------------------------------

_HLL_P = 10                      # 2^10 = 1024 registers
_HLL_WBITS = _BITS - _HLL_P      # 50-bit sub-hash word per value


def _hll_parts(values) -> "np.ndarray":
    """(idx, rho) pairs for a set of values: idx = top p bits of the
    60-bit md5 hash, rho = leading-zero rank of the remaining 50-bit
    word (w == 0 -> 51).  floor(log2(w)) is exact for w < 2^53, so a SQL
    engine computes the identical rho."""
    hs = np.array([_h60(v) for v in values], dtype=np.int64)
    idx = hs >> _HLL_WBITS
    w = hs & ((1 << _HLL_WBITS) - 1)
    rho = np.where(
        w == 0,
        _HLL_WBITS + 1,
        _HLL_WBITS - np.floor(np.log2(np.maximum(w, 1))).astype(np.int64),
    )
    return idx, rho


class HllSketch(AggregateFnV2):
    """Dataset-native HyperLogLog accumulator: a fixed array of 2^p
    max-rank registers per block, elementwise-max through the tree
    combine.  max() is order-independent, so the register state — unlike
    a Misra-Gries/space-saving summary — is reproducible across any
    partitioning AND bit-equal to a SQL mirror (GROUP BY idx, MAX(rho)
    over the same md5-derived ranks)."""

    def __init__(self, on: str):
        super().__init__(
            f"hll({on})",
            zero_factory=lambda: np.zeros(1 << _HLL_P, dtype=np.int64),
            on=on,
            ignore_nulls=True,
        )

    def aggregate_block(self, block) -> np.ndarray:
        col = BlockAccessor.for_block(block).to_arrow()[self.get_target_column()]
        vals = {v for v in col.to_pylist() if v is not None}
        acc = np.zeros(1 << _HLL_P, dtype=np.int64)
        if vals:
            idx, rho = _hll_parts(sorted(vals, key=str))
            np.maximum.at(acc, idx, rho)
        return acc

    def combine(self, acc: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.maximum(acc, new)

    def finalize(self, acc: np.ndarray) -> np.ndarray:
        return acc


def hll_registers(ds: "ray.data.Dataset", column: str) -> pd.DataFrame:
    """Occupied HLL registers ``(idx, rho)`` — the full sketch state,
    exactly (the registers are the oracle surface)."""
    regs = ds.aggregate(HllSketch(column))[f"hll({column})"]
    nz = np.nonzero(regs)[0]
    return pd.DataFrame(
        {"idx": nz.astype(np.int64), "rho": regs[nz].astype(np.int64)}
    )


def hll_oracle_sql(table: str, column: str) -> str:
    """DuckDB mirror of :func:`hll_registers` — identical hash, idx, rho."""
    w_mask = (1 << _HLL_WBITS) - 1
    return f"""
    WITH h AS (SELECT DISTINCT
                 CAST(('0x' || substr(md5(CAST({column} AS VARCHAR)), 1, 15))
                      AS BIGINT) AS h
               FROM {table} WHERE {column} IS NOT NULL),
    parts AS (SELECT h >> {_HLL_WBITS} AS idx,
                     h & {w_mask} AS w FROM h),
    rr AS (SELECT idx,
                  CASE WHEN w = 0 THEN {_HLL_WBITS + 1}
                       ELSE {_HLL_WBITS} - CAST(floor(log2(w)) AS BIGINT)
                  END AS rho
           FROM parts)
    SELECT idx, CAST(MAX(rho) AS BIGINT) AS rho FROM rr GROUP BY idx
    """


def heavy_hitters(
    ds: "ray.data.Dataset",
    column: str,
    min_count: int,
    depth: int = 4,
    width: int = 4096,
    num_shards: int = 64,
) -> "ray.data.Dataset":
    """EXACT iceberg query (``GROUP BY k HAVING count(*) >= T``) without a
    key-cardinality exchange.

    Pass 1 folds one Count-Min sketch over the whole column (bounded
    ``depth x width`` state through Ray's tree combine).  Because CM
    never underestimates, every truly-heavy key probes >= ``min_count``
    — the sketch-filtered candidate set is a SUPERSET of the answer.
    Pass 2 re-reads the column: each batch pre-counts its values, probes
    the broadcast sketch, and emits partials ONLY for candidate keys, so
    the exchange carries O(N/min_count + false positives) keys instead
    of every distinct key; the sharded fold sums exactly and applies the
    threshold.  False positives (CM overestimates light keys) survive to
    the fold and are cut by their exact sums — the result is exact.

    Returns ``(key, n)`` with the input column's dtype preserved.
    """
    from .agg import sharded_groupby_apply

    sk = ds.aggregate(CountMinSketch(column, depth=depth, width=width))[
        f"countmin({column})"
    ]
    sk_ref = ray.put(sk)

    def candidates(df: pd.DataFrame, sk_ref=sk_ref) -> pd.DataFrame:
        sketch = ray.get(sk_ref)
        vc = df[column].value_counts()
        keys, counts = [], []
        for v, c in vc.items():
            est = min(
                sketch[i, _cm_bucket(i, v, width)] for i in range(depth)
            )
            if est >= min_count:
                keys.append(v)
                counts.append(int(c))
        out = pd.DataFrame({"key": keys, "n": counts})
        out["key"] = out["key"].astype(df[column].dtype)
        return out

    partials = ds.map_batches(candidates, batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("key", sort=False)["n"].sum().reset_index()
        return g[g["n"] >= min_count]

    return sharded_groupby_apply(partials, ["key"], fold, num_shards=num_shards)
