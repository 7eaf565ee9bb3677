"""Pipeline configuration — the engine's mirror of the reference recipe
parameters (``recipe.json:37-408``, loaded/validated by
``dku_plugin_config_loading.py:18-235``), plus Ray-side sizing knobs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..core.format import OUTPUT_FORMATS
from ..core.ontology import MatchConfig
from ..core.tokenize import check_language


@dataclass
class PipelineConfig:
    # columns on the document/transcript side
    text_column: str = "text"
    language: str = "en"  # ISO 639-1, or "language_column" to use per-row codes
    language_column: Optional[str] = None
    # columns on the ontology side
    tag_column: str = "tag"
    keyword_column: str = "keyword"
    category_column: Optional[str] = None
    # matching booleans
    ignore_case: bool = False
    ignore_diacritics: bool = False
    lemmatization: bool = False
    # output shape
    output_format: str = "one_row_per_match"
    # Ray sizing: actor pool for the stateful tag stage.  Fixed-size pools:
    # Ray 2.49's autoscaling pool was observed stuck at min_size under a busy
    # read stage, and a pool equal to the CPU count starves the reads into a
    # deadlock — size to (cluster CPUs - small headroom) explicitly.
    batch_size: int = 2048
    concurrency: Union[int, Tuple[int, int], None] = None  # None = auto: 3/4 of cluster CPUs
    num_cpus: float = 1.0
    # reference-equivalent Python tokenizing for every row (no Arrow split
    # of eligible rows; what non-ASCII and multilingual text runs
    # regardless) — used by the compute-bound scaling benchmark
    strict_reference: bool = False

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"Unknown output_format '{self.output_format}'; expected one of {OUTPUT_FORMATS}"
            )
        if self.language == "language_column" and not self.language_column:
            raise ValueError(
                "language='language_column' requires language_column to be set"
            )
        if self.language and self.language != "language_column" and not self.language_column:
            check_language(self.language)

    @property
    def multilingual(self) -> bool:
        return self.language_column is not None and (
            self.language == "language_column" or not self.language
        )

    @property
    def has_category(self) -> bool:
        return self.category_column is not None

    @property
    def match_config(self) -> MatchConfig:
        return MatchConfig(
            ignore_case=self.ignore_case,
            ignore_diacritics=self.ignore_diacritics,
            lemmatization=self.lemmatization,
            strict_reference=self.strict_reference,
        )
