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
Only this entry point owns the Ray session (guarded init; the library never
calls ray.init).
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
    partitioned graph tables on disk; returns the run report."""
    import os

    from .pipeline.graph import (
        build_nodes,
        concept_scores,
        triples_from_mentions,
        with_node_part_key,
    )
    from .pipeline.io import PartitionedWriter, require_sort_shuffle
    from .pipeline.tag import extract_mentions

    require_sort_shuffle(transcripts)
    onto_rows = _ontology_rows(ontology, config)
    fingerprint = _fingerprint(config, onto_rows)
    report: dict = {"out_dir": out_dir, "tables": {}}

    # ONE matcher pass: mentions are extracted and persisted first, then
    # edges derive from the written mentions table plus a text-free
    # (conv_id, turn_idx, tool) projection — the dominant stage (string
    # matching over every turn) never runs twice per corpus.
    w_m = PartitionedWriter(os.path.join(out_dir, "mentions"), num_partitions)
    matcher_input = transcripts
    done_m = w_m.done_partitions(fingerprint=fingerprint) if resume else set()
    if done_m and len(done_m) < num_partitions:
        # resume: prune completed conversations BEFORE the matcher — the
        # dominant stage runs only over the missing hash slice, not the
        # whole corpus (partition key is conv_id for both the filter and
        # the writer, so the pruned rows are exactly the skipped ones)
        import pyarrow as pa
        import pyarrow.compute as pc

        from .ops.hashing import bucket_column

        done_arr = pa.array(sorted(done_m), type=pa.int32())

        def drop_done_convs(batch: pa.Table) -> pa.Table:
            pcol = bucket_column(batch["conv_id"], num_partitions, stable_str=True)
            return batch.filter(pc.invert(pc.is_in(pcol, value_set=done_arr)))

        matcher_input = transcripts.map_batches(
            drop_done_convs, batch_format="pyarrow"
        )
    mentions = extract_mentions(matcher_input, ontology, config)
    s = w_m.write(mentions, key_column="conv_id", resume=resume, fingerprint=fingerprint)
    report["tables"]["mentions"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    triples = triples_from_mentions(w_m.read(), transcripts)
    w_edges = PartitionedWriter(os.path.join(out_dir, "edges"), num_partitions)
    s = w_edges.write(triples, key_column="conv_id", resume=resume, fingerprint=fingerprint)
    report["tables"]["edges"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    # nodes route by SOURCE conversation (conv-prefixed node ids) with one
    # shared global partition for tool/concept rows — the layout that lets
    # update_graph refresh exactly the changed conversations' node rows.
    # The fingerprint carries a layout tag so a resume over a pre-v2 output
    # recomputes instead of silently mixing partition schemes.
    nodes = with_node_part_key(build_nodes(w_edges.read(), onto_rows))
    w_n = PartitionedWriter(os.path.join(out_dir, "nodes"), max(num_partitions // 4, 1))
    s = w_n.write(
        nodes,
        key_column="node_part_key",
        resume=resume,
        fingerprint=fingerprint + "|nodes_v2",
        drop_key_column=True,
    )
    report["tables"]["nodes"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    scores = concept_scores(w_m.read())
    w_s = PartitionedWriter(os.path.join(out_dir, "concept_scores"), 1)
    s = w_s.write(scores, key_column="tag", resume=resume, fingerprint=fingerprint)
    report["tables"]["concept_scores"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    if compute_pagerank:
        from .ops.pagerank import pagerank

        ranks = pagerank(
            w_edges.read(), src_column="subj", dst_column="obj", iters=5
        )
        w_r = PartitionedWriter(
            os.path.join(out_dir, "node_ranks"), max(num_partitions // 4, 1)
        )
        s = w_r.write(
            ranks, key_column="node", resume=resume, fingerprint=fingerprint
        )
        report["tables"]["node_ranks"] = {
            "rows": int(s["rows"].sum()),
            "partitions": len(s),
        }

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
        s = w_i.write(ids, key_column="node_id", resume=resume, fingerprint=fingerprint)
        report["tables"]["entity_ids"] = {
            "rows": int(s["rows"].sum()),
            "partitions": len(s),
        }
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

    import pyarrow as pa
    import pyarrow.compute as pc

    from .ops import dedup as dedup_ops
    from .ops import text as text_ops
    from .ops.components import connected_components, dedup_survivors
    from .ops.hashing import bucket_column
    from .ops.pack import pack_bins
    from .pipeline.io import PartitionedWriter, require_sort_shuffle

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
    stage_in = documents
    if done_k and len(done_k) < num_partitions:
        done_arr = pa.array(sorted(done_k), type=pa.int32())

        def drop_done(batch: pa.Table) -> pa.Table:
            pcol = bucket_column(batch["doc_id"], num_partitions, stable_str=True)
            return batch.filter(pc.invert(pc.is_in(pcol, value_set=done_arr)))

        stage_in = documents.map_batches(drop_done, batch_format="pyarrow")
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
    added/changed/restated, recompute ONLY the hash partitions those
    conversations live in.

    - ``mentions`` and ``edges`` are conv-partitioned, so the changed
      convs map to an exact partition set; the input is pruned to those
      partitions with a vectorized conv-hash mask BEFORE the matcher —
      an update touching 0.1% of conversations runs the expensive stage
      over ~0.1% of the corpus.
    - ``nodes`` are conv-routed (nodes_v2 layout), so only the changed
      conversations' node partitions plus the single global partition
      (tool/concept rows) refresh — from output-sized edge-table scans,
      never the corpus.
    - ``concept_scores`` aggregates ACROSS conversations, so it rebuilds
      from the updated on-disk mentions table (one column-pruned read +
      a concept-sized reduce).

    Deleted conversations: include their ids in ``changed_conv_ids``;
    their partitions recompute from the current table (which no longer
    holds them), so their rows vanish.

    Returns the same report shape as :func:`build_graph`."""
    import os

    import ray

    from .ops.hashing import partition_of
    from .pipeline.graph import (
        NODE_GLOBAL_PART_KEY,
        build_nodes,
        concept_scores,
        tool_nodes_from_edges,
        triples_from_mentions,
        with_node_part_key,
    )
    from .pipeline.io import PartitionedWriter, require_sort_shuffle
    from .pipeline.tag import extract_mentions

    require_sort_shuffle(transcripts)
    onto_rows = _ontology_rows(ontology, config)
    fingerprint = _fingerprint(config, onto_rows)
    parts = sorted(
        {partition_of(str(c), num_partitions) for c in changed_conv_ids}
    )
    report: dict = {"out_dir": out_dir, "updated_partitions": parts, "tables": {}}

    w_m = PartitionedWriter(os.path.join(out_dir, "mentions"), num_partitions)
    w_edges = PartitionedWriter(os.path.join(out_dir, "edges"), num_partitions)

    # prune to the affected conv-hash slice BEFORE the matcher
    import pyarrow as pa
    import pyarrow.compute as pc

    from .ops.hashing import bucket_column

    want = pa.array(parts, type=pa.int32())

    def keep(batch: pa.Table) -> pa.Table:
        pcol = bucket_column(batch["conv_id"], num_partitions, stable_str=True)
        return batch.filter(pc.is_in(pcol, value_set=want))

    affected = transcripts.map_batches(keep, batch_format="pyarrow")

    mentions = extract_mentions(affected, ontology, config)
    s = w_m.refresh(mentions, "conv_id", parts, fingerprint=fingerprint)
    report["tables"]["mentions"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    triples = triples_from_mentions(w_m.read(partitions=set(parts)), affected)
    s = w_edges.refresh(triples, "conv_id", parts, fingerprint=fingerprint)
    report["tables"]["edges"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    # nodes are conv-routed (build_graph's nodes_v2 layout), so the update
    # touches exactly the changed conversations' node partitions plus the
    # one global partition (tool/concept rows, tool set may shrink/grow):
    #   - conv-local node rows rebuild from the edge table FILTERED to the
    #     convs hashing into the affected node partitions (an output-sized
    #     scan with an early vectorized mask — never the corpus/matcher)
    #   - the global partition rebuilds from a 2-column pred-filtered scan
    w_n = PartitionedWriter(os.path.join(out_dir, "nodes"), max(num_partitions // 4, 1))
    n_fp = fingerprint + "|nodes_v2"
    p_nodes = w_n.num_partitions
    n_parts = sorted(
        {partition_of(str(c), p_nodes) for c in changed_conv_ids}
        | {partition_of(NODE_GLOBAL_PART_KEY, p_nodes)}
    )
    want_n = pa.array(n_parts, type=pa.int32())

    def keep_node_convs(batch: pa.Table) -> pa.Table:
        pcol = bucket_column(batch["conv_id"], p_nodes, stable_str=True)
        return batch.filter(pc.is_in(pcol, value_set=want_n))

    conv_nodes = build_nodes(
        w_edges.read().map_batches(keep_node_convs, batch_format="pyarrow"),
        None,  # concept rows belong to the global partition below
    )

    def drop_global_types(batch: pa.Table) -> pa.Table:
        keep_mask = pc.invert(
            pc.is_in(batch["node_type"], value_set=pa.array(["tool", "concept"]))
        )
        return batch.filter(keep_mask)

    conv_nodes = conv_nodes.map_batches(drop_global_types, batch_format="pyarrow")
    global_nodes = tool_nodes_from_edges(w_edges.read())
    if onto_rows:
        from .pipeline.graph import NODE_SCHEMA, _uniq_tags, concept_id

        concept_rows = pa.Table.from_pydict(
            {
                "node_id": [concept_id(r.tag) for r in _uniq_tags(onto_rows)],
                "node_type": ["concept"] * len(_uniq_tags(onto_rows)),
                "label": [r.tag for r in _uniq_tags(onto_rows)],
                "category": [r.category for r in _uniq_tags(onto_rows)],
            },
            schema=NODE_SCHEMA,
        )
        global_nodes = global_nodes.union(ray.data.from_arrow(concept_rows))
    nodes = with_node_part_key(conv_nodes.union(global_nodes))
    s = w_n.refresh(
        nodes, "node_part_key", n_parts, fingerprint=n_fp, drop_key_column=True
    )
    report["tables"]["nodes"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}

    scores = concept_scores(w_m.read())
    w_s = PartitionedWriter(os.path.join(out_dir, "concept_scores"), 1)
    w_s.invalidate(range(1))
    s = w_s.write(scores, key_column="tag", resume=False, fingerprint=fingerprint)
    report["tables"]["concept_scores"] = {"rows": int(s["rows"].sum()), "partitions": len(s)}
    return report


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
