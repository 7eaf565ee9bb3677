"""Local replica of the driver's correctness gate: run each
``queries()[name](sf_dir)`` and its ``oracle_sql()[name]`` through DuckDB
on the same parquet tables, compare row count, schema (column-name set),
and an order-insensitive value hash (columns sorted by name, rows sorted).

Usage: python scripts/oracle_check.py [--sf DIR] [name ...]
"""

from __future__ import annotations

import argparse
import json
import time
import hashlib
import sys

import duckdb
import pandas as pd

import ray

TABLES = (
    "region nation customer supplier part orders lineitem events documents"
).split()


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    try:
        import pyarrow as pa

        if isinstance(res, pa.Table):
            return res.to_pandas()
    except ImportError:
        pass
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif df[c].dtype.kind == "f":
            # round BEFORE sorting: float-addition-order jitter (~1e-14)
            # must not permute tied rows between the two engines
            df[c] = df[c].round(6)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.sha256(
        df.to_csv(index=False, float_format="%.6f").encode()
    ).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="MIN",
        help="fail (exit 1) if the whole sweep exceeds this many minutes — "
        "breadth insurance so the registry never outgrows the driver gate",
    )
    ap.add_argument(
        "--timings",
        default=None,
        metavar="PATH",
        help="write per-query wall seconds (ray + oracle) as JSON",
    )
    ap.add_argument("names", nargs="*")
    args = ap.parse_args(argv)

    owns_ray = not ray.is_initialized()
    if owns_ray:
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    names = args.names or list(qs)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf}/{t}.parquet')"
        )

    failures = 0
    timings = {}
    sweep_t0 = time.monotonic()
    for name in names:
        t0 = time.monotonic()
        if name not in qs:
            print(f"{name}: UNKNOWN QUERY")
            failures += 1
            continue
        try:
            mine = to_pandas(qs[name](args.sf))
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: RAY ERROR {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            timings[name] = round(time.monotonic() - t0, 3)
            print(f"{name}: no_oracle rows={len(mine)} sec={timings[name]}")
            continue
        try:
            oracle = con.execute(oracles[name]).fetchdf()
        except Exception as ex:  # noqa: BLE001
            print(f"{name}: ORACLE ERROR {type(ex).__name__}: {ex}")
            failures += 1
            continue
        rows_ok = len(mine) == len(oracle)
        schema_ok = sorted(mine.columns) == sorted(oracle.columns)
        hash_ok = schema_ok and value_hash(mine) == value_hash(oracle)
        status = "OK" if (rows_ok and schema_ok and hash_ok) else "FAIL"
        if status == "FAIL":
            failures += 1
        timings[name] = round(time.monotonic() - t0, 3)
        print(
            f"{name}: {status} rows={len(mine)}/{len(oracle)} "
            f"schema={'ok' if schema_ok else f'{sorted(mine.columns)} vs {sorted(oracle.columns)}'} "
            f"hash={'ok' if hash_ok else 'MISMATCH'} sec={timings[name]}"
        )
    total_min = (time.monotonic() - sweep_t0) / 60.0
    if args.timings:
        with open(args.timings, "w") as f:
            json.dump(
                {
                    "sf": args.sf,
                    "total_min": round(total_min, 2),
                    "n_queries": len(names),
                    "per_query_sec": timings,
                },
                f,
                indent=1,
            )
    print(f"sweep: {len(names)} queries, {failures} failures, "
          f"{total_min:.2f} min total")
    if args.budget is not None and total_min > args.budget:
        print(f"BUDGET EXCEEDED: {total_min:.2f} min > {args.budget} min")
        failures += 1
    if owns_ray:  # never tear down a caller-owned session (test fixture)
        ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
