"""The three workloads and their traced replays.

Each workload owns its generated input, the job call that is timed, and
the check of that call's output against the DuckDB oracle.  The traced
replay re-runs the same stage sequence as the job from this file, calling
each layer's public functions with ``materialize()`` between stages and
recording one span per call (see README.md for the layer map).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import gen
import oracle
from procstat import Sampler

SPECS = {
    "build": gen.Spec(
        "build",
        "the real job: Parquet scan, general-path matcher, edge/node/score shuffles and four partitioned writes",
        turns=5000, keywords=512, mixed_share=0.25,
    ),
    "triples": gen.Spec(
        "triples",
        "the matcher does almost all the work, through the vectorized kernel; no shuffle, no write",
        turns=10000, keywords=4096, mixed_share=0.0,
    ),
    "update": gen.Spec(
        "update",
        "incremental refresh: matcher over a small slice, partition-pruned re-reads, node refresh, full score rebuild",
        turns=5000, keywords=512, mixed_share=0.25, edit_share=0.005,
    ),
}
NUM_PARTITIONS = 64


def fingerprint(config) -> str:
    """The config fingerprint ``raykg.job`` writes into every manifest."""
    return json.dumps(
        {
            "ignore_case": config.ignore_case,
            "ignore_diacritics": config.ignore_diacritics,
            "lemmatization": config.lemmatization,
            "language": config.language,
        },
        sort_keys=True,
    )


def dir_files(root: str) -> Dict[str, tuple]:
    out = {}
    for d, _dirs, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(d, name))
            out[os.path.join(d, name)] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def written_bytes(before: Dict[str, tuple], after: Dict[str, tuple]) -> int:
    """Bytes of Parquet data files and manifests new or replaced since
    ``before``."""
    return sum(
        v[2]
        for p, v in after.items()
        if before.get(p) != v and p.endswith(("data.parquet", "manifest.json"))
    )


class Workload:
    def __init__(self, name: str, seed: int, work: str):
        from raykg.pipeline.config import PipelineConfig

        self.name = name
        self.spec = SPECS[name]
        self.work = work
        cache = os.path.join(work, "inputs")
        t = time.perf_counter()
        self.desc = gen.generate(self.spec, seed, cache)
        self.gen_s = time.perf_counter() - t
        self.transcripts = gen.path_of(self.desc, cache, "transcripts")
        self.ontology_path = gen.path_of(self.desc, cache, "ontology")
        onto = pq.read_table(self.ontology_path)
        self.ontology = list(zip(onto["tag"].to_pylist(), onto["keyword"].to_pylist()))
        # build/update: the job's usual case-folding mode; triples: exact
        self.config = PipelineConfig(ignore_case=name != "triples")
        self.input_path = self.transcripts
        self.turns = self.desc["turns"]
        self.changed: List[str] = []
        if name == "update":
            self.input_path = gen.path_of(self.desc, cache, "transcripts_v2")
            self.turns = self.desc["turns_v2"]
            self.changed = self.desc["edited_convs"]
        self.sample = pq.read_table(self.transcripts).slice(0, 2048)
        self.out = os.path.join(work, "out", f"{name}-{os.getpid()}")
        self.expected = oracle.expected(self.input_path, self.ontology_path, self.config.ignore_case)

    # -- set-up ---------------------------------------------------------------

    def warm_up(self) -> None:
        """One tiny call: starts an actor pool and compiles the ontology."""
        import ray.data

        from raykg.pipeline.graph import extract_triples
        from raykg.pipeline.tag import extract_mentions

        tiny = ray.data.from_arrow(self.sample.slice(0, 64))
        stage = extract_triples if self.name == "triples" else extract_mentions
        stage(tiny, self.ontology, self.config).count()

    def prepare(self) -> float:
        """Untimed per-run preparation: ``update`` needs a built graph."""
        shutil.rmtree(self.out, ignore_errors=True)
        if self.name != "update":
            return 0.0
        import ray.data

        from raykg.job import build_graph

        t = time.perf_counter()
        build_graph(ray.data.read_parquet(self.transcripts), self.ontology, self.config,
                    self.out, num_partitions=NUM_PARTITIONS)
        return time.perf_counter() - t

    # -- the timed call -------------------------------------------------------

    def before_call(self) -> None:
        if self.name == "build":
            shutil.rmtree(self.out, ignore_errors=True)
        self._before = dir_files(self.out) if self.name == "update" else {}

    def call(self) -> Dict:
        import ray.data

        ds = ray.data.read_parquet(self.input_path)
        if self.name == "build":
            from raykg.job import build_graph

            build_graph(ds, self.ontology, self.config, self.out, num_partitions=NUM_PARTITIONS)
            return {}
        if self.name == "update":
            from raykg.job import update_graph

            update_graph(ds, self.ontology, self.config, self.out, self.changed,
                         num_partitions=NUM_PARTITIONS)
            return {}
        from raykg.pipeline.graph import extract_triples

        return consume_triples(extract_triples(ds, self.ontology, self.config))

    def check(self, result: Dict) -> List[str]:
        if self.name == "triples":
            return oracle.check_triples(result["rows"], result["per_concept"], self.expected)
        return oracle.check_graph(self.out, self.expected)

    def out_bytes(self, result: Dict) -> int:
        if self.name == "triples":
            return result["bytes"]
        return written_bytes(self._before, dir_files(self.out))


def consume_triples(ds, rec: Optional[Dict] = None) -> Dict:
    """Drain the triple stream; the per-concept tagged_as counts are what a
    client consuming the triples would aggregate (and what the oracle
    checks).  ``rec`` receives the time to the first block."""
    import pyarrow.compute as pc

    rows = nbytes = 0
    per: Dict[str, int] = {}
    t0 = time.perf_counter()
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if rec is not None and not rows:
            rec["first_block_s"] = time.perf_counter() - t0
        rows += b.num_rows
        nbytes += b.nbytes
        obj = b["obj"].filter(pc.equal(b["pred"], "tagged_as"))
        for vc in pc.value_counts(obj).to_pylist():
            per[vc["values"]] = per.get(vc["values"], 0) + vc["counts"]
    return {"rows": rows, "bytes": nbytes, "per_concept": per}


# --- traced replay ------------------------------------------------------------


class Tracer:
    """In-memory spans: layer, name, start, end, CPU seconds and counts."""

    def __init__(self, num_cpus: int, sampler: Sampler):
        self.num_cpus = num_cpus
        self.sampler = sampler
        self.spans: List[Dict] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, layer: str, name: str):
        rec = {"layer": layer, "name": name, "parent": "replay"}
        cpu0 = self.sampler.cpu_s()
        rec["start"] = time.perf_counter() - self.t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0
            rec["cpu_s"] = self.sampler.cpu_s() - cpu0
            self.spans.append(rec)

    def total(self, layer: str, prefix: str = "") -> float:
        return float(sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["layer"] == layer and s["name"].startswith(prefix)
        ))

    def cpu_util(self, layer: str) -> float:
        wall = self.total(layer)
        cpu = sum(s["cpu_s"] for s in self.spans if s["layer"] == layer)
        return cpu / (wall * self.num_cpus) if wall else 0.0


def _stream(ds, rec: Dict):
    """Execute ``ds`` by streaming its blocks to this process: records the
    time to the first block and the rows out, returns the blocks."""
    t0 = time.perf_counter()
    tables = []
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if not tables:
            rec["first_block_s"] = time.perf_counter() - t0
        tables.append(b)
    rec["rows"] = sum(t.num_rows for t in tables)
    return tables


def replay(w: Workload, tr: Tracer) -> Dict:
    """Run ``w``'s job as a sequence of materialized layer calls; returns
    the result the untraced call would return (for the output check)."""
    import ray.data

    with tr.span("read", "read_parquet") as s:
        ds = ray.data.read_parquet(w.input_path).materialize()
        s["rows"], s["bytes"] = ds.count(), ds.size_bytes()
    if w.name == "triples":
        from raykg.pipeline.graph import extract_triples

        with tr.span("tag", "extract_triples") as s:
            out = consume_triples(extract_triples(ds, w.ontology, w.config), s)
            s["rows"] = out["rows"]
        return out
    if w.name == "build":
        _replay_build(w, tr, ds)
    else:
        _replay_update(w, tr, ds)
    return {}


def _replay_build(w: Workload, tr: Tracer, ds) -> None:
    import ray.data

    from raykg.core.ontology import clean_ontology
    from raykg.pipeline.graph import build_nodes, concept_scores, triples_from_mentions, with_node_part_key
    from raykg.pipeline.io import PartitionedWriter
    from raykg.pipeline.tag import extract_mentions

    cfg, fp, P = w.config, fingerprint(w.config), NUM_PARTITIONS
    w_m = PartitionedWriter(os.path.join(w.out, "mentions"), P)
    with tr.span("io", "manifest_scan"):
        w_m.done_partitions(fingerprint=fp)
    with tr.span("tag", "extract_mentions") as s:
        mentions = ray.data.from_arrow(_stream(extract_mentions(ds, w.ontology, cfg), s))
    _write(tr, w_m, "mentions", mentions, "conv_id", fp)
    m_back = _readback(tr, w_m)
    with tr.span("graph", "edges") as s:
        edges = triples_from_mentions(m_back, ds).materialize()
        s["rows"] = edges.count()
    w_e = PartitionedWriter(os.path.join(w.out, "edges"), P)
    _write(tr, w_e, "edges", edges, "conv_id", fp)
    onto_rows = clean_ontology(list(w.ontology), has_category=cfg.has_category)
    e_back = _readback(tr, w_e)
    with tr.span("graph", "nodes") as s:
        nodes = with_node_part_key(build_nodes(e_back, onto_rows)).materialize()
        s["rows"] = nodes.count()
    w_n = PartitionedWriter(os.path.join(w.out, "nodes"), max(P // 4, 1))
    _write(tr, w_n, "nodes", nodes, "node_part_key", fp + "|nodes_v2", drop_key_column=True)
    with tr.span("graph", "scores") as s:
        scores = concept_scores(m_back).materialize()
        s["rows"] = scores.count()
    _write(tr, PartitionedWriter(os.path.join(w.out, "concept_scores"), 1), "scores", scores, "tag", fp)


def _replay_update(w: Workload, tr: Tracer, ds) -> None:
    import pyarrow.compute as pc
    import ray.data

    from raykg.core.ontology import clean_ontology
    from raykg.ops.hashing import bucket_column, partition_of
    from raykg.pipeline.graph import (
        NODE_GLOBAL_PART_KEY, NODE_SCHEMA, _uniq_tags, build_nodes, concept_id,
        concept_scores, tool_nodes_from_edges, triples_from_mentions, with_node_part_key,
    )
    from raykg.pipeline.io import PartitionedWriter
    from raykg.pipeline.tag import extract_mentions

    cfg, fp, P = w.config, fingerprint(w.config), NUM_PARTITIONS
    parts = sorted({partition_of(str(c), P) for c in w.changed})
    want = pa.array(parts, type=pa.int32())
    w_m = PartitionedWriter(os.path.join(w.out, "mentions"), P)
    w_e = PartitionedWriter(os.path.join(w.out, "edges"), P)
    with tr.span("io", "manifest_scan"):
        w_m.done_partitions(fingerprint=fp)

    def keep(batch: pa.Table) -> pa.Table:
        pcol = bucket_column(batch["conv_id"], P, stable_str=True)
        return batch.filter(pc.is_in(pcol, value_set=want))

    affected = ds.map_batches(keep, batch_format="pyarrow")
    with tr.span("tag", "extract_mentions") as s:
        mentions = ray.data.from_arrow(_stream(extract_mentions(affected, w.ontology, cfg), s))
    _refresh(tr, w_m, "mentions", mentions, "conv_id", parts, fp)
    m_part = _readback(tr, w_m, set(parts))
    with tr.span("graph", "edges") as s:
        edges = triples_from_mentions(m_part, affected).materialize()
        s["rows"] = edges.count()
    _refresh(tr, w_e, "edges", edges, "conv_id", parts, fp)

    onto_rows = clean_ontology(list(w.ontology), has_category=cfg.has_category)
    w_n = PartitionedWriter(os.path.join(w.out, "nodes"), max(P // 4, 1))
    p_nodes = w_n.num_partitions
    n_parts = sorted(
        {partition_of(str(c), p_nodes) for c in w.changed} | {partition_of(NODE_GLOBAL_PART_KEY, p_nodes)}
    )
    want_n = pa.array(n_parts, type=pa.int32())

    def keep_node_convs(batch: pa.Table) -> pa.Table:
        pcol = bucket_column(batch["conv_id"], p_nodes, stable_str=True)
        return batch.filter(pc.is_in(pcol, value_set=want_n))

    def drop_global_types(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(pc.is_in(batch["node_type"], value_set=pa.array(["tool", "concept"]))))

    e_back = _readback(tr, w_e)
    with tr.span("graph", "nodes") as s:
        conv_nodes = build_nodes(e_back.map_batches(keep_node_convs, batch_format="pyarrow"), None)
        conv_nodes = conv_nodes.map_batches(drop_global_types, batch_format="pyarrow")
        uniq = _uniq_tags(onto_rows)
        concept_rows = pa.Table.from_pydict(
            {
                "node_id": [concept_id(r.tag) for r in uniq],
                "node_type": ["concept"] * len(uniq),
                "label": [r.tag for r in uniq],
                "category": [r.category for r in uniq],
            },
            schema=NODE_SCHEMA,
        )
        global_nodes = tool_nodes_from_edges(e_back).union(ray.data.from_arrow(concept_rows))
        nodes = with_node_part_key(conv_nodes.union(global_nodes)).materialize()
        s["rows"] = nodes.count()
    _refresh(tr, w_n, "nodes", nodes, "node_part_key", n_parts, fp + "|nodes_v2", drop_key_column=True)
    m_back = _readback(tr, w_m)
    with tr.span("graph", "scores") as s:
        scores = concept_scores(m_back).materialize()
        s["rows"] = scores.count()
    w_s = PartitionedWriter(os.path.join(w.out, "concept_scores"), 1)
    w_s.invalidate(range(1))
    _write(tr, w_s, "scores", scores, "tag", fp, resume=False)


def _write(tr, writer, table, ds, key, fp, drop_key_column=False, resume=True) -> None:
    with tr.span("io", f"write.{table}") as s:
        summary = writer.write(ds, key_column=key, resume=resume, fingerprint=fp,
                               drop_key_column=drop_key_column)
        s["partitions"] = len(summary)


def _refresh(tr, writer, table, ds, key, parts, fp, drop_key_column=False) -> None:
    with tr.span("io", f"refresh.{table}") as s:
        summary = writer.refresh(ds, key, parts, fingerprint=fp, drop_key_column=drop_key_column)
        s["partitions"] = len(summary)


def _readback(tr, writer, partitions: Optional[set] = None):
    with tr.span("io", "readback") as s:
        ds = writer.read(partitions=partitions).materialize()
        s["rows"] = ds.count()
    return ds


# --- core layer, outside Ray --------------------------------------------------


def _median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return sorted(times)[len(times) // 2]


def core_layer(w: Workload, seed: int) -> Dict[str, float]:
    """Kernel rates on one 2048-row sample batch of the workload's input,
    for ontologies of 6, 512 and 4096 keywords."""
    import numpy as np

    from raykg.core.ontology import MatchConfig, clean_ontology, compile_matcher, process_document
    from raykg.core.sentencize import split_sentences
    from raykg.core.tokenize import Tokenizer
    from raykg.core.vector_match import VectorizedExactMatcher

    text = w.sample["text"].combine_chunks()
    texts = text.to_pylist()
    mb = sum(len(t.encode()) for t in texts) / 1e6
    tok = Tokenizer("en")
    elig = VectorizedExactMatcher.eligible_rows(text)
    simple = text.filter(pa.array(elig))
    simple_mb = sum(len(t.encode()) for t in simple.to_pylist()) / 1e6
    out = {
        "core.eligible_share": float(np.mean(elig)),
        "core.tokenize_mb_per_s": mb / _median_time(lambda: [tok.tokenize(t) for t in texts]),
        "core.sentencize_mb_per_s": mb / _median_time(lambda: [split_sentences(t, tok) for t in texts]),
    }
    mc = MatchConfig(ignore_case=w.config.ignore_case)
    for k in (6, 512, 4096):
        rows = clean_ontology(gen.ontology_rows(seed, k), has_category=False)
        t = time.perf_counter()
        matcher = compile_matcher(rows, "en", mc, False)
        out[f"core.compile_s.k{k}"] = time.perf_counter() - t
        vm = VectorizedExactMatcher(matcher)
        out[f"core.vector_mb_per_s.k{k}"] = (
            simple_mb / _median_time(lambda: vm.batch_hits(simple)) if len(simple) else 0.0
        )
        out[f"core.general_mb_per_s.k{k}"] = mb / _median_time(
            lambda: [process_document(matcher, t) for t in texts]
        )
    return out
