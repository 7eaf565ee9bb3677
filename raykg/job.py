"""End-to-end KG construction job — what ``ray job submit`` runs on the
cluster (north_rule: "run via ray job submit on a fixed-size multi-node Ray
cluster").

    python -m raykg.job --input /data/transcripts --out /data/kg \
        --ontology /data/ontology.parquet --language language_column \
        --num-partitions 256

Reads a transcripts Parquet table (or derives one from a documents table
with ``--derive-from-documents``), extracts mentions/triples, and writes:

    out/mentions/part=NNNNN/{data.parquet,manifest.json}   (crc32(conv_id) % P)
    out/edges/part=NNNNN/...                                (crc32(conv_id) % P)
    out/nodes/...   (N = gcd(P, P // 4) partitions)   out/concept_scores/...

One matcher pass and one exchange build all four tables: the mention rows
and one row per turn are grouped by their conversation's node partition,
and each group writes its mention, edge and node partitions and returns
per-tag score partials and its tools; the driver reduces those into
concept_scores and the global tool/concept node rows.  Every partition is
committed atomically with a manifest, so a re-run after a failure skips
complete partitions.  ``build_graph`` and ``update_graph``
(``--changed-convs``) run the same body, ``_graph_tables``, over different
partition sets: a build the partitions that are not done, an update those
of the changed conversations.  Only this entry point owns the Ray session
(guarded init; the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
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
    """The graph tables' writers: mentions and edges hash ``conv_id`` into
    ``num_partitions``, nodes into about a quarter as many (a divisor of
    ``num_partitions``, so each node partition gathers whole mention
    partitions) and concept_scores is one partition."""
    import math

    from .pipeline.io import PartitionedWriter

    sizes = (("mentions", num_partitions), ("edges", num_partitions),
             ("nodes", math.gcd(num_partitions, max(num_partitions // 4, 1))),
             ("concept_scores", 1))
    return [PartitionedWriter(os.path.join(out_dir, t), n) for t, n in sizes]


def _table_report(summary) -> dict:
    """A table's report entry from its writer summary: the rows written and
    the partitions completed, zero-row ones included."""
    return {"rows": int(summary["rows"].sum()), "partitions": len(summary)}


# the nodes fingerprint tag: bump it when the node partitioning changes,
# so a resume over an older output recomputes instead of mixing moduli
_NODES_TAG = "|nodes_v3"
# the global node partition's conversation rows, staged by its exchange
# group until the driver appends the tool and concept rows
_STAGED_NODES = ".global_conv_nodes.parquet"
# the exchange groups' summary rows, each for one partition ``part``: a
# written partition (table, part, rows), a mention partition's score
# partial (table "concept_scores", rows = n_mentions, key = tag, n_convs)
# or one of its tools (table "tools", key = tool)
_SUMMARY = (("table", "string"), ("part", "int64"), ("rows", "int64"),
            ("key", "string"), ("n_convs", "int64"))


def _graph_tables(transcripts, ontology, config, out_dir: str,
                  num_partitions: int, parts, n_parts) -> dict:
    """The body of :func:`build_graph` and :func:`update_graph`: recompute
    the edge partitions ``parts`` (and their mentions where those are not
    done), the node partitions ``n_parts`` and, when ``parts`` is not
    empty or it is not done, concept_scores.  Returns the report's
    per-table entries: the rows written and the partitions completed.

    One actor pass (:class:`~.pipeline.graph.GraphRowsActor`) emits a row
    per turn of the mention partitions the targets cover (``parts`` and
    every mention partition of a node partition in ``n_parts``), plus the
    mention rows of ``parts`` whose mentions are not done.  One exchange
    groups them by node partition; each group, per mention partition,
    writes the matched mentions or reads the done mention file, derives
    and writes the edges, and returns the score partials and tools, and
    then derives its node partition.  The driver completes the partitions
    no row reached with zero-row manifests, appends the tool and concept
    rows to the global node partition and reduces the partials into
    concept_scores; the partitions outside the covered set contribute
    column-pruned reads of their edge and mention files.

    The whole-graph tables (``_WHOLE_GRAPH_TABLES``) lose every manifest
    when ``parts`` or ``n_parts`` is not empty, so the next
    :func:`build_graph` that asks for them derives them again.  A slice
    with no mentions is a valid table at every stage."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from .ops.hashing import partition_of
    from .pipeline.graph import (
        NODE_GLOBAL_PART_KEY,
        NODE_SCHEMA,
        GraphRowsActor,
        concept_nodes,
        conversation_edges,
        edge_nodes,
        scores_from_partials,
        tag_partials,
        tool_nodes,
    )
    from .pipeline.io import PartitionedWriter, require_sort_shuffle
    from .pipeline.tag import MENTION_SCHEMA, map_stage

    require_sort_shuffle(transcripts)
    onto_rows = _ontology_rows(ontology, config)
    fp = _fingerprint(config, onto_rows)
    fp_n = fp + _NODES_TAG
    w_m, w_e, w_n, w_s = _writers(out_dir, num_partitions)
    P, N = num_partitions, w_n.num_partitions
    g = partition_of(NODE_GLOBAL_PART_KEY, N)
    if parts or n_parts:
        for name in _WHOLE_GRAPH_TABLES:
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):
                PartitionedWriter(path, N).invalidate(range(N))

    parts, n_parts = set(parts), set(n_parts)
    m_parts = parts - w_m.done_partitions(fingerprint=fp)
    scores_stale = bool(parts) or not w_s.done_partitions(fingerprint=fp)
    covered = parts | {m for m in range(P) if m % N in n_parts}
    mention_files = w_m.data_files(covered - m_parts)
    w_m.invalidate(m_parts)
    w_e.invalidate(parts)
    w_n.invalidate(n_parts)
    if scores_stale:
        w_s.invalidate([0])
    staged = os.path.join(w_n.out_dir, _STAGED_NODES)
    schema = pa.schema(list(_SUMMARY))

    def write_group(rows: pa.Table) -> pa.Table:
        n = int(rows["node_part"][0].as_py())
        out = {f: [] for f in schema.names}

        def report(table, part, count, key=None, n_convs=None):
            for f, v in zip(schema.names, (table, part, count, key, n_convs)):
                out[f].append(v)

        def commit(table, writer, part, data, fingerprint, key_column=None):
            if data.num_rows:
                writer.commit_table(part, data, fingerprint, key_column)
                report(table, part, data.num_rows)

        is_turn = pc.is_null(rows["keyword"])
        edges = []
        for m in sorted(pc.unique(rows["part"]).to_pylist()):
            in_m = pc.equal(rows["part"], m)
            turns = rows.filter(pc.and_(in_m, is_turn))
            if m in m_parts:
                ments = rows.filter(pc.and_not(in_m, is_turn)).select(MENTION_SCHEMA.names)
                commit("mentions", w_m, m, ments, fp, "conv_id")
            elif m in mention_files:
                ments = pq.read_table(mention_files[m], schema=MENTION_SCHEMA)
            else:
                ments = MENTION_SCHEMA.empty_table()
            e = conversation_edges(turns, ments)
            if m in parts:
                commit("edges", w_e, m, e, fp, "conv_id")
            for tool in pc.unique(e["obj"].filter(pc.equal(e["pred"], "used_tool"))).to_pylist():
                report("tools", m, 0, tool)
            partials = tag_partials(ments)
            for tag, n_mentions, n_convs in zip(*(partials[c].to_pylist() for c in partials.column_names)):
                report("concept_scores", m, n_mentions, tag, n_convs)
            edges.append(e)
        edges = pa.concat_tables(edges)
        if n in n_parts:
            nodes = edge_nodes(edges)
            nodes = nodes.filter(pc.not_equal(nodes["node_type"], "tool"))
            if n != g:
                commit("nodes", w_n, n, nodes, fp_n)
            elif nodes.num_rows:
                pq.write_table(nodes, staged)
                report("nodes", n, nodes.num_rows)
        return pa.table(out, schema=schema)

    summary = schema.empty_table()
    if covered:
        rows = map_stage(transcripts, GraphRowsActor, onto_rows, config, num_partitions=P,
                         node_partitions=N, emit=covered, match=m_parts)
        summary = pa.Table.from_pylist(
            rows.groupby("node_part").map_groups(write_group, batch_format="pyarrow").take_all(),
            schema=schema)

    def of(table):
        return summary.filter(pc.equal(summary["table"], table))

    def written(table) -> dict:
        return dict(zip(of(table)["part"].to_pylist(), of(table)["rows"].to_pylist()))

    tables: dict = {}
    for name, writer, owned, fingerprint in (("mentions", w_m, m_parts, fp),
                                             ("edges", w_e, parts, fp),
                                             ("nodes", w_n, n_parts - {g}, fp_n)):
        for p in owned - written(name).keys():
            writer.write_empty(p, fingerprint)
        tables[name] = {"rows": sum(written(name).values()), "partitions": len(owned)}

    uncovered = set(range(P)) - covered
    if g in n_parts:
        # the global node partition: its group's staged conversation rows,
        # then one row per tool of the whole graph and one per concept
        tools = [of("tools")["key"]]
        for path in w_e.data_files(uncovered).values():
            e = pq.read_table(path, columns=["pred", "obj"])
            tools.append(e["obj"].filter(pc.equal(e["pred"], "used_tool")))
        tools = pc.unique(pa.chunked_array([c for t in tools for c in t.chunks], pa.string()))
        extra = pa.concat_tables([tool_nodes(tools), concept_nodes(onto_rows)]).combine_chunks()
        staged_rows = written("nodes").get(g, 0)
        if staged_rows + extra.num_rows:
            batches = extra.to_batches()
            if staged_rows:
                batches = itertools.chain(pq.ParquetFile(staged).iter_batches(), batches)
            w_n.commit(g, NODE_SCHEMA, batches, fp_n)
        else:
            w_n.write_empty(g, fp_n)
        if os.path.exists(staged):
            os.remove(staged)
        tables["nodes"]["rows"] += extra.num_rows
        tables["nodes"]["partitions"] += 1

    tables["concept_scores"] = {"rows": 0, "partitions": 0}
    if scores_stale:
        got = of("concept_scores")
        partials = [pa.table({"tag": got["key"], "n_mentions": got["rows"],
                              "n_convs": got["n_convs"]})]
        for path in w_m.data_files(uncovered).values():
            partials.append(tag_partials(pq.read_table(path, columns=["tag", "conv_id"])))
        scores = scores_from_partials(pa.concat_tables(partials))
        if scores.num_rows:
            w_s.commit_table(0, scores, fp, "tag")
        else:
            w_s.write_empty(0, fp)
        tables["concept_scores"] = {"rows": scores.num_rows, "partitions": 1}
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
        n_parts -= w_n.done_partitions(fingerprint=fp + _NODES_TAG)
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
      full and pruned inside the matcher pass (a vectorized conv-hash
      mask).
    - ``nodes``: the changed convs' node partitions plus the one global
      partition (tool/concept rows).  A node partition is derived from
      all of its mention partitions, so the exchange also carries the
      turn rows of their unchanged siblings, whose mentions are read from
      their done files.  The tools of the other partitions come from a
      column-pruned read of their edge files.
    - ``concept_scores`` aggregates ACROSS conversations: the exchange
      groups return the partials of the partitions they hold, and the
      other partitions' partials come from their mention files' ``tag``
      and ``conv_id`` columns.
    - ``node_ranks`` and ``entity_ids`` lose every manifest; the next
      :func:`build_graph` that asks for them derives them again.

    So the matcher's work follows the change, but the reads do not: the
    full input, and two columns of every other mention and edge file.

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
