"""Independent DuckDB oracle and output checks.

The oracle recomputes, from the generated Parquet input alone, what the
job must produce: each table's row count and the per-concept mention
totals.  It mirrors the matcher the way ``_OCC_CTE`` in
``raykg/pipeline/queries/_shared.py`` does, but with an n-gram join
instead of one regex per keyword: every 1-3 word window of a turn's
space-split text, with trailing punctuation trimmed, is compared to the
keywords.  On the generated inputs this equals the tokenizer's matches:
punctuation only ever trails a word, so a window with punctuation inside
spans a token boundary that no keyword crosses, and the keyword rules of
``gen.py`` rule out overlapping matches.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List

import pyarrow.parquet as pq

_PUNCT = ",.;:!?"


def expected(transcripts_dir: str, ontology_path: str, ignore_case: bool) -> Dict:
    """Row counts of mentions/edges/nodes/concept_scores (and of the
    streamed triples) plus per-tag totals, from DuckDB alone."""
    import duckdb

    text = "lower(text)" if ignore_case else "text"
    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW t AS SELECT * FROM read_parquet('{transcripts_dir}/*.parquet')")
        con.execute(f"CREATE VIEW onto AS SELECT * FROM read_parquet('{ontology_path}')")
        con.execute(
            f"""
            CREATE TEMP TABLE occ AS
            WITH w AS (
                SELECT conv_id, turn_idx, string_split({text}, ' ') AS toks FROM t
            ), pos AS (
                SELECT conv_id, turn_idx, toks, unnest(range(1, len(toks) + 1)) AS i FROM w
            ), grams AS (
                SELECT conv_id, turn_idx,
                       rtrim(array_to_string(list_slice(toks, i, i + n - 1), ' '), '{_PUNCT}') AS g
                FROM pos, (VALUES (1), (2), (3)) AS ns(n)
                WHERE i + n - 1 <= len(toks)
            )
            SELECT grams.conv_id, grams.turn_idx, onto.tag, onto.keyword, count(*) AS n
            FROM grams JOIN onto ON grams.g = onto.keyword
            GROUP BY ALL
            """
        )
        one = lambda q: con.execute(q).fetchone()[0]  # noqa: E731
        turns = one("SELECT count(*) FROM t")
        tool_turns = one("SELECT count(*) FROM t WHERE tool IS NOT NULL AND tool <> ''")
        tagged = one("SELECT count(*) FROM occ")
        per_tag = {
            tag: {"n_mentions": int(n), "n_convs": int(c), "n_tagged": int(k)}
            for tag, n, c, k in con.execute(
                "SELECT tag, sum(n), count(DISTINCT conv_id), count(*) FROM occ GROUP BY tag"
            ).fetchall()
        }
        edges = turns + tool_turns + tagged
        return {
            "mentions": one("SELECT coalesce(sum(n), 0) FROM occ"),
            "edges": edges,
            "triples": edges,
            "nodes": one("SELECT count(DISTINCT conv_id) FROM t")
            + turns
            + tagged
            + one("SELECT count(DISTINCT tool) FROM t WHERE tool IS NOT NULL AND tool <> ''")
            + one("SELECT count(DISTINCT tag) FROM onto"),
            "concept_scores": len(per_tag),
            "per_tag": per_tag,
        }
    finally:
        con.close()


def table_rows(table_dir: str) -> int:
    """Rows of a partitioned output table, from the Parquet footers; every
    partition directory must hold a complete manifest."""
    rows = 0
    for part in sorted(glob.glob(os.path.join(table_dir, "part=*"))):
        with open(os.path.join(part, "manifest.json")) as f:
            if json.load(f).get("status") != "complete":
                raise ValueError(f"incomplete partition {part}")
        data = os.path.join(part, "data.parquet")
        if os.path.exists(data):
            rows += pq.ParquetFile(data).metadata.num_rows
    return rows


def check_graph(out_dir: str, exp: Dict) -> List[str]:
    """Mismatches between a written graph and the oracle (empty = correct)."""
    bad = []
    for name in ("mentions", "edges", "nodes", "concept_scores"):
        got = table_rows(os.path.join(out_dir, name))
        if got != exp[name]:
            bad.append(f"{name}: {got} rows, oracle {exp[name]}")
    files = glob.glob(os.path.join(out_dir, "concept_scores", "part=*", "data.parquet"))
    scores = pq.ParquetDataset(files).read().to_pylist() if files else []
    got = {r["tag"]: {"n_mentions": r["n_mentions"], "n_convs": r["n_convs"]} for r in scores}
    want = {t: {"n_mentions": v["n_mentions"], "n_convs": v["n_convs"]} for t, v in exp["per_tag"].items()}
    if got != want:
        diff = sorted(t for t in set(got) | set(want) if got.get(t) != want.get(t))
        bad.append(f"concept_scores: {len(diff)} tags differ, e.g. {diff[:3]}")
    return bad


def check_triples(rows: int, tagged_per_concept: Dict[str, int], exp: Dict) -> List[str]:
    bad = []
    if rows != exp["triples"]:
        bad.append(f"triples: {rows} rows, oracle {exp['triples']}")
    want = {f"concept:{t}": v["n_tagged"] for t, v in exp["per_tag"].items()}
    if tagged_per_concept != want:
        diff = sorted(t for t in set(tagged_per_concept) | set(want) if tagged_per_concept.get(t) != want.get(t))
        bad.append(f"triples: {len(diff)} concepts differ, e.g. {diff[:3]}")
    return bad
