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
import sys
import time

# part of every tag-chain fingerprint: bump it when an output table's
# layout changes, so a resume recomputes instead of mixing layouts
_SCHEMA_VERSION = 1
# the same for the prep chain's test-set-dependent tables (clean, packed)
_PREP_SCHEMA_VERSION = 1


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
    import os

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
      not done.

    A slice with no mentions is a valid table at every stage."""
    from .pipeline.graph import (
        TRIPLE_SCHEMA,
        build_nodes,
        concept_scores,
        edge_node_part_key,
        triples_from_mentions,
        with_node_part_key,
    )
    from .pipeline.io import keep_partitions, require_sort_shuffle
    from .pipeline.tag import MENTION_SCHEMA, extract_mentions

    require_sort_shuffle(transcripts)
    onto_rows = _ontology_rows(ontology, config)
    fp = _fingerprint(config, onto_rows)
    w_m, w_e, w_n, w_s = _writers(out_dir, num_partitions)
    tables: dict = {}

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
    them."""
    import os

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

    if compute_pagerank:
        from .ops.pagerank import pagerank

        ranks = pagerank(
            w_e.read(), src_column="subj", dst_column="obj", iters=5
        )
        w_r = PartitionedWriter(
            os.path.join(out_dir, "node_ranks"), max(num_partitions // 4, 1)
        )
        s = w_r.write(
            ranks, key_column="node", resume=resume, fingerprint=fp
        )
        report["tables"]["node_ranks"] = _table_report(s)

    if compute_entity_ids:
        # dense 0..N-1 entity numbering in node_id order — the handoff
        # table KG-embedding trainers consume (ops/index.py); the
        # numbering is deterministic (unique sort key) so resumed runs
        # reproduce it bit-for-bit from the same node set
        from .ops.index import zip_with_index

        ids = zip_with_index(
            w_n.read().select_columns(["node_id", "node_type"]),
            sort_key="node_id",
            id_col="entity_id",
        )
        w_i = PartitionedWriter(
            os.path.join(out_dir, "entity_ids"), max(num_partitions // 4, 1)
        )
        s = w_i.write(ids, key_column="node_id", resume=resume, fingerprint=fp)
        report["tables"]["entity_ids"] = _table_report(s)
    return report


def build_prep_corpus(
    documents,
    out_dir: str,
    num_partitions: int = 64,
    resume: bool = True,
    lang: str = "en",
    min_quality: int = 40,
    jaccard_threshold: float = 0.2,
    testset=None,
    pack_capacity: int = 2048,
) -> dict:
    """The LLM training-data prep chain as a RESUMABLE job: language
    filter -> quality filter -> near-dup dedup (exact n-gram Jaccard +
    connected components) -> optional decontamination against a test
    set -> token packing.  Each stage persists through the partitioned
    writer (per-partition atomic manifests), so a killed run resumes:

        out/kept/part=NNNNN/...       (doc_id, text)  hash(doc_id)
        out/canonical/part=NNNNN/...  (doc_id, text)  cluster survivors
        out/clean/part=NNNNN/...      (doc_id, text)  only with testset
        out/packed/part=NNNNN/...     (doc_id, shard, bin, n_tok)

    Resume semantics per stage: ``kept`` prunes already-complete
    doc-hash partitions BEFORE the lang-id actor pool (the expensive
    stage reruns only over the missing slice); the shuffle stages
    (dedup, pack) are skipped ENTIRELY when their output is complete
    and otherwise recompute from the previous stage's on-disk table —
    their interior exchanges are not partition-resumable, the stage
    boundary is the checkpoint.  At 100 TB this chain, not the tag
    chain, is the long pole; every stage reads its predecessor's
    partitioned parquet, never the raw corpus twice."""
    import os

    import pyarrow.compute as pc

    from .ops import dedup as dedup_ops
    from .ops import text as text_ops
    from .ops.components import connected_components, dedup_survivors
    from .ops.pack import pack_bins
    from .pipeline.io import PartitionedWriter, keep_partitions, require_sort_shuffle

    require_sort_shuffle(documents, testset)
    fingerprint = json.dumps(
        {
            "lang": lang,
            "min_quality": min_quality,
            "jaccard_threshold": jaccard_threshold,
            "decontam": testset is not None,
            "pack_capacity": pack_capacity,
        },
        sort_keys=True,
    )
    # clean and packed depend on the test set's content, not only on
    # whether one was given: their fingerprint adds a digest of its
    # distinct gram hashes (the broadcast side decontamination needs
    # anyway), so a rerun with another test set recomputes them while
    # kept and canonical, and the language-id pool, still resume
    test_keys, digest = None, None
    if testset is not None:
        from .ops.decontam import drop_grams, gram_hash_set

        test_keys = gram_hash_set(testset)
        digest = hashlib.sha256(test_keys.tobytes()).hexdigest()
    tail_fingerprint = json.dumps(
        {"stages": fingerprint, "testset": digest, "schema": _PREP_SCHEMA_VERSION},
        sort_keys=True,
    )
    report: dict = {"out_dir": out_dir, "tables": {}}

    def _rows(writer, fp: str) -> int:
        return sum(
            json.load(open(writer.manifest_path(p))).get("rows", 0)
            for p in writer.done_partitions(fingerprint=fp)
        )

    # stage 1: filter — prune complete partitions BEFORE the actor pool
    w_kept = PartitionedWriter(os.path.join(out_dir, "kept"), num_partitions)
    done_k = w_kept.done_partitions(fingerprint=fingerprint) if resume else set()
    stage_in = keep_partitions(
        documents, "doc_id", num_partitions, set(range(num_partitions)) - done_k
    )
    if len(done_k) < num_partitions:
        scored = text_ops.add_quality(
            text_ops.add_lang_id(stage_in, concurrency=(1, 8))
        )
        kept = scored.map_batches(
            lambda b: b.filter(
                pc.and_(
                    pc.equal(b["pred_lang"], lang),
                    pc.greater_equal(b["quality_score"], min_quality),
                )
            ).select(["doc_id", "text"]),
            batch_format="pyarrow",
        )
        w_kept.write(kept, key_column="doc_id", resume=resume, fingerprint=fingerprint)
    report["tables"]["kept"] = {"rows": _rows(w_kept, fingerprint)}

    # stage 2: near-dup dedup — stage-boundary checkpoint (skip entirely
    # when complete; the interior exchanges are not partition-resumable)
    w_can = PartitionedWriter(os.path.join(out_dir, "canonical"), num_partitions)
    if len(w_can.done_partitions(fingerprint=fingerprint) if resume else set()) < num_partitions:
        kept_ds = w_kept.read()
        pairs = dedup_ops.ngram_jaccard_pairs(
            kept_ds, threshold=jaccard_threshold
        )
        clusters = connected_components(pairs)
        canonical = dedup_survivors(kept_ds, clusters)
        w_can.write(canonical, key_column="doc_id", resume=resume, fingerprint=fingerprint)
    report["tables"]["canonical"] = {"rows": _rows(w_can, fingerprint)}
    final = w_can

    # stage 3: decontamination (optional)
    if testset is not None:
        w_clean = PartitionedWriter(os.path.join(out_dir, "clean"), num_partitions)
        if len(w_clean.done_partitions(fingerprint=tail_fingerprint) if resume else set()) < num_partitions:
            cleaned = drop_grams(w_can.read(), test_keys)
            w_clean.write(cleaned, key_column="doc_id", resume=resume, fingerprint=tail_fingerprint)
        report["tables"]["clean"] = {"rows": _rows(w_clean, tail_fingerprint)}
        final = w_clean

    # stage 4: token packing
    w_pack = PartitionedWriter(os.path.join(out_dir, "packed"), num_partitions)
    if len(w_pack.done_partitions(fingerprint=tail_fingerprint) if resume else set()) < num_partitions:
        packed = pack_bins(final.read(), capacity=pack_capacity)
        w_pack.write(packed, key_column="doc_id", resume=resume, fingerprint=tail_fingerprint)
    report["tables"]["packed"] = {"rows": _rows(w_pack, tail_fingerprint)}
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

    - ``mentions`` and ``edges``: the changed convs' hash partitions; the
      matcher input is pruned to them with a vectorized conv-hash mask,
      so an update touching 0.1% of conversations runs the expensive
      stage over ~0.1% of the corpus.
    - ``nodes``: the changed convs' node partitions plus the one global
      partition (tool/concept rows), built from the edge rows that route
      into them — an output-sized scan, never the corpus.
    - ``concept_scores`` aggregates ACROSS conversations, so it rebuilds
      from the updated on-disk mentions table.

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
    p.add_argument("--prep", action="store_true",
                   help="run the LLM prep-corpus chain (filter -> dedup "
                        "-> decontam -> pack) instead of the KG chain; "
                        "--input must be a documents parquet")
    p.add_argument("--min-quality", type=int, default=40)
    p.add_argument("--jaccard-threshold", type=float, default=0.2)
    p.add_argument("--pack-capacity", type=int, default=2048)
    p.add_argument("--decontam", default=None,
                   help="test-set parquet (text column) to decontaminate "
                        "against (13-gram overlap removal)")
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
        if args.prep:
            docs = ray.data.read_parquet(args.input, columns=["doc_id", "text"])
            testset = (
                ray.data.read_parquet(args.decontam) if args.decontam else None
            )
            report = build_prep_corpus(
                docs,
                args.out,
                num_partitions=args.num_partitions,
                resume=not args.no_resume,
                min_quality=args.min_quality,
                jaccard_threshold=args.jaccard_threshold,
                testset=testset,
                pack_capacity=args.pack_capacity,
            )
            report["seconds"] = round(time.perf_counter() - t0, 2)
            print(json.dumps(report))
            return 0
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
