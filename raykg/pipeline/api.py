"""Public pipeline API — the engine's mirror of the reference's ``Tagger``
entry point (``ontology_tagger.py:29-137``) and recipe flow (``recipe.py``).

A user of the reference plugin maps onto this 1:1:

    pipe = OntologyTagPipeline(config, ontology_df)
    out  = pipe.run(dataset)            # tagged Dataset, chosen output format
    pipe.column_descriptions            # column -> human description
    write_with_schema(out, path, pipe.column_descriptions)

plus the KG-native surface:

    pipe.mentions(ds) / pipe.triples(ds)
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pyarrow as pa

import ray.data

from ..core.format import (
    COLUMN_DESCRIPTION,
    TAG_COLUMNS,
    category_column_name,
)
from ..core.ontology import clean_ontology
from ..core.tokenize import check_language
from .config import PipelineConfig
from .graph import extract_triples
from .tag import extract_mentions, tag_dataset


def distinct_languages(ds: "ray.data.Dataset", language_column: str) -> List[str]:
    """Pre-flight language universe (reference ``recipe.py:14-18``):
    distinct non-null values of the language column; unsupported -> error
    (``dku_plugin_config_loading.py:153-159``)."""
    langs = [l for l in ds.unique(language_column) if l is not None and l == l]
    for lang in langs:
        check_language(lang)
    return sorted(langs)


class OntologyTagPipeline:
    def __init__(self, config: PipelineConfig, ontology):
        self.config = config
        # clean eagerly so config/ontology errors surface on the driver, like
        # the reference's Tagger.__init__ (ontology_tagger.py:145-160)
        if isinstance(ontology, (list, tuple)):
            rows = list(ontology)
        elif isinstance(ontology, pa.Table):
            from .tag import ontology_rows_from_table

            rows = ontology_rows_from_table(ontology, config)
        else:  # pandas
            cols = [config.tag_column, config.keyword_column] + (
                [config.category_column] if config.has_category else []
            )
            rows = list(ontology[cols].itertuples(index=False, name=None))
        self.ontology_rows = clean_ontology(rows, has_category=config.has_category)
        self.column_descriptions: Dict[str, str] = self._describe_columns()

    def _describe_columns(self) -> Dict[str, str]:
        mode = "category" if self.config.has_category else "no_category"
        fmt = self.config.output_format
        if fmt == "one_row_per_doc" and self.config.has_category:
            out = {}
            seen = []
            for r in self.ontology_rows:
                if r.category not in seen:
                    seen.append(r.category)
            for c in seen:
                out[category_column_name(c)] = f"List of '{c}' tags"
            for col in TAG_COLUMNS[fmt][mode]:
                out[col] = COLUMN_DESCRIPTION[col]
            return out
        return {col: COLUMN_DESCRIPTION[col] for col in TAG_COLUMNS[fmt][mode]}

    def validate_input(self, ds: "ray.data.Dataset") -> List[str]:
        """Column existence + language pre-flight; returns the language
        universe."""
        names = ds.schema().names
        if self.config.text_column not in names:
            raise ValueError(f"text column '{self.config.text_column}' not in input")
        if self.config.multilingual:
            if self.config.language_column not in names:
                raise ValueError(
                    f"language column '{self.config.language_column}' not in input"
                )
            return distinct_languages(ds, self.config.language_column)
        return [check_language(self.config.language)]

    def run(self, ds: "ray.data.Dataset") -> "ray.data.Dataset":
        """Tag + format (the reference's ``tag_and_format``)."""
        return tag_dataset(ds, self.ontology_rows, self.config)

    def mentions(self, ds: "ray.data.Dataset") -> "ray.data.Dataset":
        return extract_mentions(ds, self.ontology_rows, self.config)

    def triples(self, ds: "ray.data.Dataset") -> "ray.data.Dataset":
        return extract_triples(ds, self.ontology_rows, self.config)


def ordered(ds: "ray.data.Dataset", keys=("conv_id", "turn_idx")) -> "ray.data.Dataset":
    """Canonical (conv_id, turn_idx) ordering for conformance-sized outputs.

    The reference preserves input row order implicitly (SURVEY.md §2.6); at
    scale order only matters *within* a conversation, so production writes
    hash-partition by conv_id and sort partition-locally — a global sort is
    only for test-scale comparisons.
    """
    return ds.sort(list(keys))


def write_with_schema(
    ds: "ray.data.Dataset",
    path: str,
    column_descriptions: Optional[Dict[str, str]] = None,
) -> None:
    """Parquet write with per-column descriptions embedded as Arrow field
    metadata (the engine's version of the reference's
    ``write_with_schema`` + column-description side channel,
    ``dkulib_io_utils.py:5-37``)."""
    descriptions = column_descriptions or {}

    def annotate(batch: pa.Table) -> pa.Table:
        fields = []
        for f in batch.schema:
            desc = descriptions.get(f.name)
            fields.append(
                f.with_metadata({"description": desc}) if desc else f
            )
        return batch.cast(pa.schema(fields, metadata=batch.schema.metadata))

    ds.map_batches(annotate, batch_format="pyarrow").write_parquet(path)
