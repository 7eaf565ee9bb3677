"""Driver-style correctness gate: every query with an oracle must match the
DuckDB result on the same parquet tables (row count + schema + order- and
column-order-insensitive values)."""

import duckdb
import pandas as pd
import pytest

from raykg.pipeline.queries import ORACLE_SQL, QUERIES

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents",
]


def oracle_df(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.sql(sql).df()


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", sorted(ORACLE_SQL))
def test_query_matches_oracle(name):
    result = QUERIES[name](SF)
    got = result.to_pandas() if hasattr(result, "to_pandas") else pd.DataFrame(result)
    want = oracle_df(ORACLE_SQL[name])
    assert sorted(got.columns) == sorted(want.columns), (
        f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: {len(got)} rows != {len(want)}"
    g, w = canonical(got), canonical(want)
    pd.testing.assert_frame_equal(g, w, check_dtype=False, obj=name)


def test_every_query_has_an_oracle():
    """Every registered query is checked against a DuckDB oracle; one
    registered without an oracle fails here instead of going unchecked."""
    assert set(QUERIES) == set(ORACLE_SQL)


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    assert res.count() > 0
    assert set(e.oracle_sql()) <= set(e.queries())
