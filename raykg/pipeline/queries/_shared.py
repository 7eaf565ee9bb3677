"""The engine's query surface: one callable per operator/pipeline from
SURVEY.md §2 plus the training-data ops, each taking ``sf_dir`` and paired
(where SQL-expressible) with a DuckDB oracle over the same parquet tables.

Column names match between the Ray result and the oracle SQL exactly — the
driver's correctness gate sorts columns by name and value-hashes.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..config import PipelineConfig
from ..default_ontology import ONTOLOGY
from ..transcripts import TRANSCRIPTS_SQL


ONTOLOGY_SQL_VALUES = ", ".join(
    f"('{t}', '{k}', '{c}')" for t, k, c in ONTOLOGY
)
_ONTO_CTE = f"onto(tag, keyword, category) AS (VALUES {ONTOLOGY_SQL_VALUES})"
_T_CTE = f"t AS ({TRANSCRIPTS_SQL})"
# per-(turn, keyword) occurrence counts — the SQL mirror of the matcher on
# this corpus (single-sentence turns, space-separated tokens)
_OCC_CTE = (
    "occ AS (SELECT t.conv_id, t.turn_idx, onto.tag, onto.category, onto.keyword, "
    "len(regexp_extract_all(t.text, '\\b' || onto.keyword || '\\b')) AS n_matches "
    "FROM t, onto "
    "WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b'))"
)


def _cfg(**kw) -> PipelineConfig:
    defaults = dict(language="en", concurrency=None, batch_size=1024)
    defaults.update(kw)
    return PipelineConfig(**defaults)


# Family modules (tag/kg/text/relational) register
# into these shared dicts at import time; __init__ imports them in
# dependency order.
QUERIES: Dict[str, Callable] = {}
ORACLE_SQL: Dict[str, str] = {}
