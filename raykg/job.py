"""End-to-end KG construction job — what ``ray job submit`` runs on the
cluster (north_rule: "run via ray job submit on a fixed-size multi-node Ray
cluster").

    python -m raykg.job --input /data/transcripts --out /data/kg \
        --ontology /data/ontology.parquet --language language_column \
        --num-partitions 256

Reads a transcripts Parquet table (or derives one from a documents table
with ``--derive-from-documents``), extracts mentions/triples, and writes:

    out/edges/part=NNNNN/{data.parquet,manifest.json}   (hash(conv_id))
    out/mentions/part=NNNNN/...
    out/nodes/...            out/concept_scores/...

Every table goes through the resumable partitioned writer — a re-run after
a failure skips complete partitions (checked via the atomic manifests).
``build_graph`` and ``update_graph`` (``--changed-convs``) run the same
stages, ``_graph_tables``, over different partition sets: a build the
partitions that are not done, an update those of the changed
conversations.  Only this entry point owns the Ray session (guarded init;
the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

# part of every tag-chain fingerprint: bump it when an output table's
# layout changes, so a resume recomputes instead of mixing layouts
_SCHEMA_VERSION = 1
# the tables build_graph derives on request from the whole edge or node
# set: one recomputed graph partition makes every partition of them stale
_WHOLE_GRAPH_TABLES = ("node_ranks", "entity_ids")


def _ontology_rows(ontology, config):
    """The cleaned ontology rows of ``ontology`` (cleaned rows pass through)."""
    from .core.ontology import clean_ontology

    if isinstance(ontology, list) and ontology and hasattr(ontology[0], "tag"):
        return ontology
    return clean_ontology(list(ontology), has_category=config.has_category)


def _fingerprint(config, onto_rows) -> str:
    """The resume fingerprint of the tag chain's tables: a 32-hex sha256
    digest over everything their rows depend on besides the input — the
    matching flags, language, ``category_column``, ``strict_reference``,
    the cleaned ontology rows and the schema version.  A partition whose
    manifest carries another fingerprint is recomputed, so a resume after
    an ontology edit cannot keep stale mentions."""
    payload = json.dumps(
        {
            "ignore_case": config.ignore_case,
            "ignore_diacritics": config.ignore_diacritics,
            "lemmatization": config.lemmatization,
            "language": config.language,
            "category_column": config.category_column,
            "strict_reference": config.strict_reference,
            "ontology": [[r.tag, r.keyword, r.category] for r in onto_rows],
            "schema": _SCHEMA_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _writers(out_dir: str, num_partitions: int) -> list:
    """The graph tables' writers in stage order: mentions and edges hash
    ``conv_id`` into ``num_partitions``, nodes route into a quarter as
    many (the nodes_v2 layout, :func:`~.pipeline.graph.with_node_part_key`)
    and concept_scores is one partition."""
    from .pipeline.io import PartitionedWriter

    sizes = (("mentions", num_partitions), ("edges", num_partitions),
             ("nodes", max(num_partitions // 4, 1)), ("concept_scores", 1))
    return [PartitionedWriter(os.path.join(out_dir, t), n) for t, n in sizes]


def _table_report(summary) -> dict:
    """A table's report entry from its writer summary: the rows written and
    the partitions completed, zero-row ones included."""
    return {"rows": int(summary["rows"].sum()), "partitions": len(summary)}


def _graph_tables(transcripts, ontology, config, out_dir: str,
                  num_partitions: int, parts, n_parts) -> dict:
    """The graph stages of :func:`build_graph` and :func:`update_graph`:
    recompute the conv partitions ``parts`` of mentions and edges, the
    node partitions ``n_parts``, and concept_scores.  Returns the report's
    per-table entries (:func:`_table_report`).

    - mentions: the matcher runs over the transcripts pruned to the
      partitions of ``parts`` whose mentions are not done, so a resume
      after a kill between the mentions and edges writes reuses them (a
      caller whose input changed invalidates them first);
    - edges: derived from the mentions read back plus a text-free
      (conv_id, turn_idx, tool) projection of the transcripts, so the
      matcher runs once per corpus;
    - nodes: built from the edge rows whose nodes route into ``n_parts``;
    - concept_scores aggregates across conversations, so it rebuilds from
      the whole mentions table whenever ``parts`` is not empty or it is
      not done;
    - the whole-graph tables (``_WHOLE_GRAPH_TABLES``) lose every
      manifest when ``parts`` or ``n_parts`` is not empty, so the next
      :func:`build_graph` that asks for them derives them again.

    A slice with no mentions is a valid table at every stage."""
    from .pipeline.graph import (
        TRIPLE_SCHEMA,
        build_nodes,
        concept_scores,
        edge_node_part_key,
        triples_from_mentions,
        with_node_part_key,
    )
    from .pipeline.io import PartitionedWriter, keep_partitions, require_sort_shuffle
    from .pipeline.tag import MENTION_SCHEMA, extract_mentions

    require_sort_shuffle(transcripts)
    onto_rows = _ontology_rows(ontology, config)
    fp = _fingerprint(config, onto_rows)
    w_m, w_e, w_n, w_s = _writers(out_dir, num_partitions)
    tables: dict = {}
    if parts or n_parts:
        for name in _WHOLE_GRAPH_TABLES:
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):
                PartitionedWriter(path, w_n.num_partitions).invalidate(range(w_n.num_partitions))

    def refresh(name, writer, ds, key, targets, fingerprint=fp, **kw) -> None:
        tables[name] = _table_report(
            writer.refresh(ds, key, targets, fingerprint=fingerprint, **kw))

    m_parts = set(parts) - w_m.done_partitions(fingerprint=fp)
    matcher_input = keep_partitions(transcripts, "conv_id", num_partitions, m_parts)
    refresh("mentions", w_m, extract_mentions(matcher_input, ontology, config),
            "conv_id", m_parts)
    # the edge writer prunes the structural rows to ``parts``; pruning the
    # transcripts first would make triples_from_mentions' schema lookup
    # run the input pipeline
    triples = triples_from_mentions(w_m.read(parts, MENTION_SCHEMA), transcripts)
    refresh("edges", w_e, triples, "conv_id", parts)
    edges = keep_partitions(w_e.read(schema=TRIPLE_SCHEMA), edge_node_part_key,
                            w_n.num_partitions, n_parts)
    # the nodes_v2 tag keeps a resume over a pre-v2 output from mixing
    # partition schemes
    refresh("nodes", w_n, with_node_part_key(build_nodes(edges, onto_rows)),
            "node_part_key", n_parts, fingerprint=fp + "|nodes_v2",
            drop_key_column=True)
    stale = parts or not w_s.done_partitions(fingerprint=fp)
    refresh("concept_scores", w_s, concept_scores(w_m.read(schema=MENTION_SCHEMA)),
            "tag", [0] if stale else [])
    return tables


def build_graph(
    transcripts,
    ontology,
    config,
    out_dir: str,
    num_partitions: int = 64,
    resume: bool = True,
    compute_pagerank: bool = False,
    compute_entity_ids: bool = False,
) -> dict:
    """The job body (importable for tests): transcripts + ontology ->
    partitioned graph tables on disk; returns the run report.

    A build is an update of every partition that is not done: the conv
    partitions not done in mentions or in edges, and the node partitions
    not done (:func:`_graph_tables`).  ``resume=False`` recomputes all of
    them.  ``compute_pagerank`` and ``compute_entity_ids`` also derive
    the whole-graph tables ``node_ranks`` and ``entity_ids`` from the
    finished edges and nodes."""
    from .pipeline.graph import TRIPLE_SCHEMA
    from .pipeline.io import PartitionedWriter

    w_m, w_e, w_n, _ = _writers(out_dir, num_partitions)
    fp = _fingerprint(config, _ontology_rows(ontology, config))
    parts, n_parts = set(range(num_partitions)), set(range(w_n.num_partitions))
    if resume:
        parts -= w_m.done_partitions(fingerprint=fp) & w_e.done_partitions(fingerprint=fp)
        n_parts -= w_n.done_partitions(fingerprint=fp + "|nodes_v2")
    else:
        w_m.invalidate(parts)  # _graph_tables reuses done mentions
    report: dict = {"out_dir": out_dir, "tables": _graph_tables(
        transcripts, ontology, config, out_dir, num_partitions, parts, n_parts
    )}

    def whole_graph_table(name, key_column, make) -> None:
        # all-or-nothing: the table is derived again only when one of its
        # partitions is not done (_graph_tables invalidates all of them
        # whenever it recomputes a graph partition)
        w = PartitionedWriter(os.path.join(out_dir, name), w_n.num_partitions)
        if resume and len(w.done_partitions(fingerprint=fp)) == w.num_partitions:
            report["tables"][name] = {"rows": 0, "partitions": 0}
            return
        s = w.write(make(), key_column=key_column, resume=False, fingerprint=fp)
        report["tables"][name] = _table_report(s)

    if compute_pagerank:
        from .ops.pagerank import pagerank

        whole_graph_table("node_ranks", "node", lambda: pagerank(
            w_e.read(schema=TRIPLE_SCHEMA), src_column="subj", dst_column="obj",
            iters=5))
    if compute_entity_ids:
        # dense 0..N-1 entity numbering in node_id order — the handoff
        # table KG-embedding trainers consume (ops/index.py); the
        # numbering is deterministic (unique sort key) so resumed runs
        # reproduce it bit-for-bit from the same node set
        from .ops.index import zip_with_index

        whole_graph_table("entity_ids", "node_id", lambda: zip_with_index(
            w_n.read().select_columns(["node_id", "node_type"]),
            sort_key="node_id", id_col="entity_id"))
    return report


def update_graph(
    transcripts,
    ontology,
    config,
    out_dir: str,
    changed_conv_ids,
    num_partitions: int = 64,
) -> dict:
    """Incremental KG maintenance (the lineage manifests' payoff): given
    the CURRENT full transcripts table and the conv_ids whose turns were
    added/changed/restated, recompute ONLY the partitions those
    conversations live in — the same stages as :func:`build_graph`
    (:func:`_graph_tables`) over other partition sets:

    - ``mentions`` and ``edges``: the changed convs' hash partitions.
      The matcher runs over their turns only, but the input is read in
      full and pruned after the read (a vectorized conv-hash mask), and
      the edges' structural rows come from the whole input, pruned at
      the edge writer.
    - ``nodes``: the changed convs' node partitions plus the one global
      partition (tool/concept rows).  The global partition needs every
      ``used_tool`` edge, so every edge partition is read.
    - ``concept_scores`` aggregates ACROSS conversations, so it rebuilds
      from the whole on-disk mentions table.
    - ``node_ranks`` and ``entity_ids`` lose every manifest; the next
      :func:`build_graph` that asks for them derives them again.

    So the matcher's work follows the change, but the reads do not: the
    full input, every edge partition and the whole mentions table.

    Deleted conversations: include their ids in ``changed_conv_ids``;
    their partitions recompute from the current table (which no longer
    holds them), so their rows vanish.

    Returns the same report shape as :func:`build_graph`, plus
    ``updated_partitions``."""
    from .ops.hashing import partition_of
    from .pipeline.graph import NODE_GLOBAL_PART_KEY

    w_m, _, w_n, _ = _writers(out_dir, num_partitions)
    parts = sorted({partition_of(str(c), num_partitions) for c in changed_conv_ids})
    n_parts = {partition_of(str(c), w_n.num_partitions) for c in changed_conv_ids}
    n_parts.add(partition_of(NODE_GLOBAL_PART_KEY, w_n.num_partitions))
    w_m.invalidate(parts)  # their input changed: the matcher reruns there
    tables = _graph_tables(
        transcripts, ontology, config, out_dir, num_partitions, parts, n_parts
    )
    return {"out_dir": out_dir, "updated_partitions": parts, "tables": tables}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--input", required=True, help="transcripts (or documents) parquet path/dir")
    p.add_argument("--out", required=True, help="output directory for graph tables")
    p.add_argument("--ontology", help="ontology parquet (tag/keyword[/category] columns)")
    p.add_argument("--derive-from-documents", action="store_true",
                   help="input is a documents table; derive transcripts")
    p.add_argument("--language", default="en")
    p.add_argument("--language-column", default=None)
    p.add_argument("--ignore-case", action="store_true")
    p.add_argument("--ignore-diacritics", action="store_true")
    p.add_argument("--lemmatization", action="store_true")
    p.add_argument("--num-partitions", type=int, default=64)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--changed-convs", default=None,
                   help="path to a text file of conv_ids (one per line): "
                        "incrementally refresh ONLY their hash partitions "
                        "of an existing --out graph (update_graph)")
    p.add_argument("--pagerank", action="store_true",
                   help="also materialize node PageRank (out/node_ranks)")
    p.add_argument("--entity-ids", action="store_true",
                   help="also materialize dense 0..N-1 entity numbering "
                        "(out/entity_ids, embedding-trainer handoff)")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="only for standalone runs; under ray job submit the cluster decides")
    p.add_argument("--object-store-gb", type=float, default=None,
                   help="cap the plasma store (standalone runs only) — "
                        "exercises spill-to-disk under memory pressure")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        if args.num_cpus is not None:
            # explicit standalone run: force a fresh local instance
            extra = {}
            if args.object_store_gb is not None:
                extra["object_store_memory"] = int(args.object_store_gb * 1e9)
            ray.init(
                address="local",
                num_cpus=args.num_cpus,
                include_dashboard=False,
                ignore_reinit_error=True,
                logging_level="ERROR",
                **extra,
            )
        else:
            # honors RAY_ADDRESS — under `ray job submit` this attaches to
            # the cluster instead of silently starting a 1-node instance
            ray.init(ignore_reinit_error=True, logging_level="ERROR")
    try:
        import pyarrow.parquet as pq

        import ray.data

        from .pipeline.config import PipelineConfig
        from .pipeline.default_ontology import ONTOLOGY
        from .pipeline.transcripts import read_transcripts

        if args.ontology:
            otab = pq.read_table(args.ontology)
            has_cat = "category" in otab.schema.names
            cols = ["tag", "keyword"] + (["category"] if has_cat else [])
            ontology = list(
                zip(*[otab.column(c).to_pylist() for c in cols])
            )
        else:
            ontology = ONTOLOGY
            has_cat = True

        config = PipelineConfig(
            language=args.language if not args.language_column else "language_column",
            language_column=args.language_column,
            category_column="category" if has_cat else None,
            ignore_case=args.ignore_case,
            ignore_diacritics=args.ignore_diacritics,
            lemmatization=args.lemmatization,
        )
        if args.derive_from_documents:
            transcripts = read_transcripts(args.input)
        else:
            transcripts = ray.data.read_parquet(args.input)

        t0 = time.perf_counter()
        if args.changed_convs:
            with open(args.changed_convs) as f:
                changed = [line.strip() for line in f if line.strip()]
            report = update_graph(
                transcripts,
                ontology,
                config,
                args.out,
                changed,
                num_partitions=args.num_partitions,
            )
        else:
            report = build_graph(
                transcripts,
                ontology,
                config,
                args.out,
                num_partitions=args.num_partitions,
                resume=not args.no_resume,
                compute_pagerank=args.pagerank,
                compute_entity_ids=args.entity_ids,
            )
        report["seconds"] = round(time.perf_counter() - t0, 2)
        print(json.dumps(report))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
