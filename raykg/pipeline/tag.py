"""The tagging stage: a stateful actor-pool ``map_batches`` transform.

This is the Ray-Data-native re-expression of the reference's driver-side
``Tagger.tag_and_format`` loop (``ontology_tagger.py:94-137`` +
``formatting/*``): instead of one Python process mutating a pandas
DataFrame row by row, the cleaned ontology is broadcast once (``ray.put``)
and a pool of actors compiles per-language matchers in ``__init__`` /
lazily per language, then streams zero-copy Arrow batches through
sentence-split -> normalize -> match -> format, with one matcher-kernel
call per batch and language.

Output modes: the reference's three formats plus the target-native
``mentions`` long table that feeds the graph layer (SURVEY.md §1.2).
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..core.format import (
    TAG_COLUMNS,
    category_column_name,
    format_doc,
    format_doc_json,
    format_match_rows,
    generate_unique_columns,
)
from ..core.ontology import (
    CompiledMatcher,
    Mention,
    OntologyRow,
    clean_ontology,
    compile_matcher,
    match_documents,
)
from ..core.tokenize import check_language
from ..core.vector_match import VectorizedExactMatcher
from .config import PipelineConfig


def resolve_concurrency(config: "PipelineConfig"):
    """None -> fixed pool sized to ~3/4 of the cluster's CPUs.

    Fixed pools because Ray 2.49's autoscaling pool was observed pinned at
    min_size under a busy upstream; 3/4 because a pool that reserves every
    CPU starves the read stage into a standstill (observed as a whole-run
    deadlock on a pool == num_cpus).  A pool (auto or explicit; a
    ``(min, max)`` pool by its min) whose actors reserve more than the
    cluster's CPUs minus one raises ``ValueError`` instead of hanging — on a
    1-CPU cluster that is the auto pool too.

    When CPUs are held at that point, this process's reference cycles are
    collected first: Ray Data drops the handle of a pool actor still pending
    when its dataset finishes, but the handle sits in a cycle of the
    finished executor, so the actor starts late and keeps its CPU until
    Python's cyclic GC runs.  Back-to-back jobs then started their pool one
    CPU short and their read tasks starved for 15-20 s."""
    ncpu = None
    if ray.is_initialized():
        ncpu = ray.cluster_resources().get("CPU", 4)
        if ray.available_resources().get("CPU", 0.0) < ncpu:
            gc.collect()
    size = config.concurrency
    if size is None:
        size = max(1, (int(4 if ncpu is None else ncpu) * 3) // 4)
    min_size = size[0] if isinstance(size, tuple) else size
    if ncpu is not None and min_size * config.num_cpus > ncpu - 1:
        raise ValueError(
            f"an actor pool of {min_size} x {config.num_cpus:g} CPUs leaves "
            f"less than one of the cluster's {ncpu:g} CPUs for the tasks "
            "that feed it, so the job would hang: start Ray with more CPUs "
            "(e.g. ray.init(num_cpus=2); logical CPUs may exceed cores), "
            "lower PipelineConfig.concurrency, or set PipelineConfig.num_cpus "
            "so that concurrency x num_cpus <= CPUs - 1 (0 lets the actors "
            "share CPUs with those tasks)"
        )
    return size


# the tagging step's output: distinct (batch row, tag, keyword) + count
HIT_SCHEMA = pa.schema(
    [
        ("row", pa.int64()),
        ("tag", pa.string()),
        ("keyword", pa.string()),
        ("n", pa.int64()),
    ]
)

MENTION_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("sent_idx", pa.int32()),
        ("match_start", pa.int32()),
        ("match_end", pa.int32()),
        ("keyword", pa.string()),
        ("tag", pa.string()),
        ("category", pa.string()),
        ("sentence", pa.string()),
    ]
)


def ontology_rows_from_table(table: pa.Table, config: PipelineConfig) -> List[tuple]:
    """Project the ontology table to (tag, keyword[, category]) row tuples."""
    cols = [config.tag_column, config.keyword_column]
    if config.has_category:
        cols.append(config.category_column)
    t = table.select(cols)
    return list(zip(*[t.column(i).to_pylist() for i in range(t.num_columns)]))


class _MentionCountActorBody:
    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = self._tag_keyword_counts(batch)
        keys = batch.select(["conv_id", "turn_idx", *self.extra_columns])
        keys = keys.take(hits["row"])
        cols = {
            "conv_id": pc.cast(keys[0], pa.string()),
            "turn_idx": pc.cast(keys[1], pa.int32()),
            "tag": hits["tag"],
            "keyword": hits["keyword"],
            "n_matches": hits["n"],
        }
        for i, c in enumerate(self.extra_columns):
            cols[c] = keys[2 + i]
        return pa.table(cols)


class _DocTagsActorBody:
    def __call__(self, batch: pa.Table) -> pa.Table:
        hits = self._tag_keyword_counts(batch)

        def sorted_distinct(col):
            # per matched row (ascending): its distinct values, sorted
            pairs = hits.group_by(["row", col]).aggregate([])
            pairs = pairs.sort_by([("row", "ascending"), (col, "ascending")])
            return pairs.group_by("row", use_threads=False).aggregate([(col, "list")])

        tags = sorted_distinct("tag")
        kws = sorted_distinct("keyword")
        keys = batch.select(["conv_id", "turn_idx"]).take(tags["row"])
        return pa.table(
            {
                "conv_id": pc.cast(keys[0], pa.string()),
                "turn_idx": pc.cast(keys[1], pa.int32()),
                "tags_sorted": pc.binary_join(tags["tag_list"], ","),
                "keywords_sorted": pc.binary_join(kws["keyword_list"], ","),
                "n_tags": pc.cast(pc.list_value_length(tags["tag_list"]), pa.int64()),
            }
        )


class TagActor:
    """Callable class for ``map_batches``: holds the compiled dictionaries.

    ``ontology`` is either the cleaned row list or an ``ObjectRef`` to it
    (broadcast with ``ray.put`` so N actors share one copy in the object
    store instead of N copies in task specs).
    """

    def __init__(self, ontology, config: PipelineConfig):
        if isinstance(ontology, ray.ObjectRef):
            ontology = ray.get(ontology)
        self.ontology: List[OntologyRow] = ontology
        self.config = config
        self.has_category = config.has_category
        self.all_categories: List[str] = []
        if self.has_category:
            seen = set()
            for r in ontology:
                if r.category not in seen:
                    seen.add(r.category)
                    self.all_categories.append(r.category)
        self._matchers: Dict[str, CompiledMatcher] = {}
        if not config.multilingual:
            self._get_matcher(config.language)  # build eagerly for the fixed language

    # -- per-language state -------------------------------------------------

    def _get_matcher(self, language: str) -> CompiledMatcher:
        m = self._matchers.get(language)
        if m is None:
            check_language(language)
            m = compile_matcher(
                self.ontology, language, self.config.match_config, self.has_category
            )
            self._matchers[language] = m
        return m

    # -- batch processing ---------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmt = self.config.output_format
        if fmt == "one_row_per_match":
            return self._format_by_match(batch)
        if fmt == "one_row_per_doc":
            return self._format_by_doc(batch, json_mode=False)
        if fmt == "one_row_per_doc_json":
            return self._format_by_doc(batch, json_mode=True)
        raise ValueError(f"unknown output format {fmt}")

    def _mentions(self, batch: pa.Table) -> List[List[Mention]]:
        """The mentions of every row of ``batch``: one ``match_documents``
        call per language present."""
        texts = batch[self.config.text_column].to_pylist()
        if not self.config.multilingual:
            return match_documents(self._get_matcher(self.config.language), texts)[0]
        by_lang: Dict[Optional[str], List[int]] = {}
        for i, lang in enumerate(batch[self.config.language_column].to_pylist()):
            by_lang.setdefault(lang, []).append(i)
        out: List[List[Mention]] = [[] for _ in texts]
        for lang, rows in by_lang.items():
            mentions, _ = match_documents(self._get_matcher(lang), [texts[i] for i in rows])
            for i, m in zip(rows, mentions):
                out[i] = m
        return out

    def _tag_keyword_counts(self, batch: pa.Table) -> pa.Table:
        """The tagging step of the count-style actors: one row per distinct
        (batch ``row``, ``tag``, ``keyword``) with its occurrence count
        ``n``.

        Eligible rows — ASCII alnum words separated by single spaces — are
        coded by an Arrow split with no per-row Python, every other row
        through the Python tokenizer; both ride in the same kernel call
        (core/ontology.py ``match_documents``).  Lemma mode,
        ``strict_reference`` and multilingual batches tokenize every row in
        Python.  Both give the same (tag, keyword) counts for a row.  Split
        rows come first, ordered by (tag, keyword) pair then row; then the
        other rows, in row order and within a row in order of first
        appearance."""
        texts = batch[self.config.text_column]
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        mc = self.config.match_config
        parts = []
        if self.config.multilingual or mc.lemmatization or mc.strict_reference:
            slow = np.arange(batch.num_rows)
            mentions = self._mentions(batch)
        else:
            eligible = VectorizedExactMatcher.eligible_rows(texts)
            fast = np.nonzero(eligible)[0]
            slow = np.nonzero(~eligible)[0]
            matcher = self._get_matcher(self.config.language)
            mentions, hits = match_documents(
                matcher,
                texts.take(pa.array(slow)).to_pylist(),
                texts if not len(slow) else texts.take(pa.array(fast)),
            )
            rows, tags, kws, counts = matcher.kernel.tag_keyword_counts(hits)
            parts.append(pa.table([fast[rows], tags, kws, counts], schema=HIT_SCHEMA))
        out: Dict[str, list] = {name: [] for name in HIT_SCHEMA.names}
        for i, doc in zip(slow.tolist(), mentions):
            for (tag, kw), n in Counter((m.tag, m.keyword) for m in doc).items():
                out["row"].append(i)
                out["tag"].append(tag)
                out["keyword"].append(kw)
                out["n"].append(n)
        parts.append(pa.table(out, schema=HIT_SCHEMA))
        return pa.concat_tables(parts)

    def _format_by_match(self, batch: pa.Table) -> pa.Table:
        tag_cols = TAG_COLUMNS["one_row_per_match"][
            "category" if self.has_category else "no_category"
        ]
        out_names = generate_unique_columns(batch.schema.names, tag_cols)
        indices: List[int] = []
        columns: List[List[Optional[str]]] = [[] for _ in out_names]
        for i, mentions in enumerate(self._mentions(batch)):
            rows = format_match_rows(mentions, self.has_category)
            if rows:
                for row in rows:
                    indices.append(i)
                    for col, val in zip(columns, row):
                        col.append(val)
            else:  # keep unmatched doc with null tag columns
                indices.append(i)
                for col in columns:
                    col.append(None)
        base = batch.take(pa.array(indices, type=pa.int64()))
        return _append_after(
            base,
            self.config.text_column,
            out_names,
            [pa.array(c, type=pa.string()) for c in columns],
        )

    def _format_by_doc(self, batch: pa.Table, json_mode: bool) -> pa.Table:
        mode = "category" if self.has_category else "no_category"
        if json_mode:
            logical_cols = TAG_COLUMNS["one_row_per_doc_json"][mode]
        elif self.has_category:
            logical_cols = [category_column_name(c) for c in self.all_categories] + [
                "tag_keywords",
                "tag_sentences",
            ]
        else:
            logical_cols = TAG_COLUMNS["one_row_per_doc"][mode]
        out_names = generate_unique_columns(batch.schema.names, logical_cols)
        rename = dict(zip(logical_cols, out_names))
        columns: Dict[str, List[Optional[str]]] = {n: [] for n in out_names}
        for mentions in self._mentions(batch):
            if json_mode:
                values = format_doc_json(mentions, self.has_category)
            else:
                values = format_doc(
                    mentions, self.has_category, all_categories=self.all_categories
                )
            for k, v in values.items():
                columns[rename[k]].append(v)
        return _append_after(
            batch,
            self.config.text_column,
            out_names,
            [pa.array(columns[n], type=pa.string()) for n in out_names],
        )


class MentionActor(TagActor):
    """Emits the long mention table (conv/turn keys + char offsets) that the
    graph layer consumes — no input-row duplication, only matches."""

    def __init__(self, ontology, config: PipelineConfig,
                 extra_columns: Sequence[str] = ()):
        super().__init__(ontology, config)
        # per-turn attribute passthrough (e.g. event time for temporal KG
        # queries): each emitted mention row copies its turn's value, so no
        # downstream join is needed to recover turn metadata
        self.extra_columns = tuple(extra_columns)

    def __call__(self, batch: pa.Table) -> pa.Table:
        convs = batch["conv_id"].to_pylist()
        turns = batch["turn_idx"].to_pylist()
        out = {name: [] for name in MENTION_SCHEMA.names}
        for conv, turn, mentions in zip(convs, turns, self._mentions(batch)):
            for m in mentions:
                out["conv_id"].append(conv)
                out["turn_idx"].append(turn)
                out["sent_idx"].append(m.sent_idx)
                out["match_start"].append(m.start_char)
                out["match_end"].append(m.end_char)
                out["keyword"].append(m.keyword)
                out["tag"].append(m.tag)
                out["category"].append(m.category)
                out["sentence"].append(m.sentence)
        return pa.Table.from_pydict(out, schema=MENTION_SCHEMA)


class MentionCountActor(_MentionCountActorBody, MentionActor):
    """Per-turn (tag, keyword) occurrence counts with NO shuffle: a turn's
    mentions are all produced inside one actor call, so the count is final
    the moment the turn is processed — a groupby here would be an all-to-all
    exchange at 10^12 turns for nothing."""


class DocTagsActor(_DocTagsActorBody, MentionActor):
    """Per-turn sorted tag/keyword rollup, shuffle-free by the same
    turn-locality argument."""


def extract_mention_counts(ds, ontology, config, **kw):
    """(conv_id, turn_idx, tag, keyword, n_matches) — streaming, no shuffle."""
    return map_stage(ds, MentionCountActor, ontology, config, **kw)


def extract_doc_tags(ds, ontology, config, **kw):
    """(conv_id, turn_idx, tags_sorted, keywords_sorted, n_tags) — streaming,
    no shuffle; only matched turns are emitted."""
    return map_stage(ds, DocTagsActor, ontology, config, **kw)


def _append_after(
    base: pa.Table, after_column: str, names: Sequence[str], arrays: Sequence[pa.Array]
) -> pa.Table:
    """Insert new columns immediately after ``after_column``
    (reference ``move_columns_after``, cleaning_utils.py:95-117)."""
    pos = base.schema.names.index(after_column) + 1
    for offset, (name, arr) in enumerate(zip(names, arrays)):
        base = base.add_column(pos + offset, pa.field(name, arr.type), arr)
    return base


def _broadcast_ontology(ontology, config: PipelineConfig):
    if isinstance(ontology, pa.Table):
        rows = ontology_rows_from_table(ontology, config)
    elif hasattr(ontology, "to_dict"):  # pandas
        rows = list(
            ontology[
                [config.tag_column, config.keyword_column]
                + ([config.category_column] if config.has_category else [])
            ].itertuples(index=False, name=None)
        )
    else:
        rows = list(ontology)
    if rows and isinstance(rows[0], OntologyRow):  # already cleaned
        cleaned = rows
    else:
        cleaned = clean_ontology(rows, has_category=config.has_category)
    # small ontologies ride in the actor-constructor args directly (avoids
    # the Ray actor-restart caveat for object-store constructor args,
    # ray issue #53727); big ones are broadcast once via the object store
    if len(cleaned) < 5000:
        return cleaned
    return ray.put(cleaned)


def map_stage(ds: "ray.data.Dataset", actor_cls, ontology, config: PipelineConfig,
              **actor_kwargs) -> "ray.data.Dataset":
    """``ds.map_batches`` through a fixed pool of ``actor_cls`` actors, each
    built with the broadcast ontology, ``config`` and ``actor_kwargs``."""
    return ds.map_batches(
        actor_cls,
        fn_constructor_kwargs={
            "ontology": _broadcast_ontology(ontology, config),
            "config": config,
            **actor_kwargs,
        },
        batch_format="pyarrow",
        batch_size=config.batch_size,
        concurrency=resolve_concurrency(config),
        num_cpus=config.num_cpus,
    )


def tag_dataset(
    ds: "ray.data.Dataset", ontology, config: PipelineConfig
) -> "ray.data.Dataset":
    """``OntologyTagPipeline.run``: the formatted-output pipeline.

    The ontology (pyarrow Table / pandas DataFrame / row tuples) is cleaned
    on the driver (reference ``ontology_tagger.py:145-160``), broadcast once,
    and applied by a fixed actor pool.
    """
    return map_stage(ds, TagActor, ontology, config)


def extract_mentions(
    ds: "ray.data.Dataset",
    ontology,
    config: PipelineConfig,
) -> "ray.data.Dataset":
    """Transcripts -> mentions long table (the graph layer's input)."""
    return map_stage(ds, MentionActor, ontology, config)
