"""Graph construction: transcripts + ontology -> triples / nodes / edges /
concept scores.

Per the target data model (SURVEY.md §1.2, BASELINE.json north_star):

- ``(subj=turn_id#keyword, pred='tagged_as', obj='concept:'+tag)`` triples
  from deduplicated per-turn mentions,
- structural ``(conv_id, 'utters', turn_id)`` and
  ``(turn_id, 'used_tool', tool)`` edges,
- canonical node table (conversation / turn / concept / mention / tool),
- per-concept mention/conversation counts.

Shuffle design: triple/edge extraction straight from transcripts
(:func:`extract_triples`) is a pure streaming actor-pool stage, because
per-turn dedup happens inside the actor.  The job's path,
:func:`triples_from_mentions`, reads the mentions table back, where one
turn's mentions may span blocks, so it dedups them with one 64-shard
``distinct_rows`` exchange.  The node canonicalization and score reduces
shuffle too; both pre-aggregate inside ``map_batches`` first so the
all-to-all exchange moves one row per (key, batch) instead of one per
mention.  Hot-conversation
skew is absorbed by that same in-batch partial aggregation (the salt: a hot
conv_id contributes at most one partial row per block, not one per turn).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from .config import PipelineConfig
from .tag import MentionActor, map_stage

TRIPLE_SCHEMA = pa.schema(
    [
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("weight", pa.float64()),
    ]
)

NODE_SCHEMA = pa.schema(
    [
        ("node_id", pa.string()),
        ("node_type", pa.string()),
        ("label", pa.string()),
        ("category", pa.string()),
    ]
)


def concept_id(tag: str) -> str:
    return f"concept:{tag}"


def _triples(subj, pred: str, obj, conv, turn) -> pa.Table:
    m = len(subj)
    return pa.Table.from_arrays(
        [subj, pa.repeat(pred, m), obj, conv, turn, pa.repeat(1.0, m)],
        schema=TRIPLE_SCHEMA,
    )


def _turn_keys(batch: pa.Table):
    """(conv_id, int32 turn_idx, turn id) columns of a batch."""
    conv = batch["conv_id"]
    conv = conv.combine_chunks() if isinstance(conv, pa.ChunkedArray) else conv
    turn = batch["turn_idx"]
    turn = turn.combine_chunks() if isinstance(turn, pa.ChunkedArray) else turn
    turn = pc.cast(turn, pa.int32())
    return conv, turn, pc.binary_join_element_wise(conv, pc.cast(turn, pa.string()), "#")


def _structural_triples(batch: pa.Table, tool_column: str, conv, turn, tid) -> List[pa.Table]:
    """One ``utters`` edge per turn, and one ``used_tool`` edge per turn
    whose tool (cast to string) is neither null nor empty; ``conv``,
    ``turn`` and ``tid`` are the batch's :func:`_turn_keys`."""
    parts = [_triples(conv, "utters", tid, conv, turn)]
    if tool_column in batch.schema.names:
        tool = batch[tool_column]
        tool = tool.combine_chunks() if isinstance(tool, pa.ChunkedArray) else tool
        mask = pc.fill_null(pc.and_kleene(pc.is_valid(tool), pc.not_equal(tool, "")), False)
        if pc.any(mask).as_py():
            parts.append(
                _triples(tid.filter(mask), "used_tool", pc.cast(tool.filter(mask), pa.string()),
                         conv.filter(mask), turn.filter(mask))
            )
    return parts


class TripleActor(MentionActor):
    """Transcripts batch -> triples. One streaming pass, no shuffle:

    - per turn, the distinct (tag, keyword) mention set (dedup inside the
      actor — a turn's mentions never span blocks, so this dedup is globally
      exact) -> ``tagged_as`` triples
    - one ``utters`` edge per turn (keys unique by schema)
    - one ``used_tool`` edge per turn with a non-null tool
    """

    def __init__(self, *args, tool_column: str = "tool", **kwargs):
        super().__init__(*args, **kwargs)
        self.tool_column = tool_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv, turn, tid = _turn_keys(batch)
        parts = _structural_triples(batch, self.tool_column, conv, turn, tid)
        hits = self._tag_keyword_counts(batch)
        if hits.num_rows:
            rows = hits["row"]
            parts.append(
                _triples(
                    pc.binary_join_element_wise(tid.take(rows), hits["keyword"], "#"),
                    "tagged_as",
                    pc.binary_join_element_wise("concept:", hits["tag"], ""),
                    conv.take(rows),
                    turn.take(rows),
                )
            )
        return pa.concat_tables(parts)


def extract_triples(
    transcripts: "ray.data.Dataset",
    ontology,
    config: PipelineConfig,
) -> "ray.data.Dataset":
    return map_stage(transcripts, TripleActor, ontology, config)


def triples_to_edges(triples: "ray.data.Dataset") -> "ray.data.Dataset":
    """Edge table is the triple table under graph column names."""
    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["src", "rel", "dst", "conv_id", "turn_idx", "weight"])

    return triples.map_batches(rename, batch_format="pyarrow")


# --- nodes ----------------------------------------------------------------

def _batch_nodes(batch: pa.Table) -> pa.Table:
    """Per-batch node rows (turn + mention exact; conversation/tool partial,
    deduped in-batch then reduced globally)."""
    out: Dict[str, List[Optional[str]]] = {
        "node_id": [],
        "node_type": [],
        "label": [],
        "category": [],
    }
    seen: set = set()
    for subj, pred, obj in zip(
        batch["subj"].to_pylist(), batch["pred"].to_pylist(), batch["obj"].to_pylist()
    ):
        if pred == "utters":
            for nid, ntype in ((subj, "conversation"), (obj, "turn")):
                if (nid, ntype) not in seen:
                    seen.add((nid, ntype))
                    out["node_id"].append(nid)
                    out["node_type"].append(ntype)
                    out["label"].append(nid)
                    out["category"].append(None)
        elif pred == "used_tool":
            key = (obj, "tool")
            if key not in seen:
                seen.add(key)
                out["node_id"].append(f"tool:{obj}")
                out["node_type"].append("tool")
                out["label"].append(obj)
                out["category"].append(None)
        elif pred == "tagged_as":
            key = (subj, "mention")
            if key not in seen:
                seen.add(key)
                out["node_id"].append(subj)
                out["node_type"].append("mention")
                out["label"].append(subj.rsplit("#", 1)[-1])
                out["category"].append(None)
    return pa.Table.from_pydict(out, schema=NODE_SCHEMA)


def triples_from_mentions(
    mentions: "ray.data.Dataset",
    transcripts_meta: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """Triples derived from an EXISTING mentions table plus a text-free
    metadata pass — so the matcher (the job's dominant cost) runs once per
    corpus, not once for edges and again for mentions.

    - ``tagged_as``: the per-turn distinct (tag, keyword) set of the
      mentions table (per-batch dedup bounds the exchange, one sharded
      distinct makes it globally exact — mentions of one turn may span
      blocks after a partitioned write/read round trip).
    - ``utters`` / ``used_tool``: vectorized Arrow kernels over a
      (conv_id, turn_idx, tool) projection of the transcripts — columns
      only, the text never leaves storage.

    Pinned equal to :func:`extract_triples` output by test
    (tests/test_pipeline.py)."""
    from ..ops.setops import distinct_rows

    def tag_kw_triples(batch: pa.Table) -> pa.Table:
        conv, turn, tid = _turn_keys(batch)
        return _triples(
            pc.binary_join_element_wise(tid, batch["keyword"], "#"),
            "tagged_as",
            pc.binary_join_element_wise("concept:", batch["tag"], ""),
            conv,
            turn,
        )

    keys = ["conv_id", "turn_idx", "tag", "keyword"]
    tagged = distinct_rows(
        mentions.select_columns(keys), keys, num_shards=64
    ).map_batches(tag_kw_triples, batch_format="pyarrow")

    def structural(batch: pa.Table) -> pa.Table:
        keys = _turn_keys(batch)
        return pa.concat_tables(_structural_triples(batch, "tool", *keys))

    cols = ["conv_id", "turn_idx"]
    if "tool" in transcripts_meta.schema().names:
        cols.append("tool")
    struct = transcripts_meta.select_columns(cols).map_batches(
        structural, batch_format="pyarrow"
    )
    return tagged.union(struct)


NODE_GLOBAL_PART_KEY = "__kg_global__"


def with_node_part_key(nodes: "ray.data.Dataset") -> "ray.data.Dataset":
    """Append ``node_part_key``: the routing key that makes the node table
    INCREMENTALLY maintainable.  conversation/turn/mention node ids are
    conv-prefixed ('conv', 'conv#turn', 'conv#turn#kw'), so those rows
    route by their source conversation — a changed conv maps to an exact
    node-partition set; the cross-conversation node types (tool, concept)
    route to one shared ``__kg_global__`` partition that every update
    rebuilds from the ``used_tool`` edges and the ontology (their
    cardinality is tool/ontology sized, not corpus sized).

    Assumes conv_ids do not contain ``#`` — the id separator the whole
    node-id scheme is built on (`_turn_keys`)."""
    def add(batch: pa.Table) -> pa.Table:
        ids = batch["node_id"]
        ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids
        types = batch["node_type"]
        conv = pc.list_element(pc.split_pattern(ids, "#"), 0)
        key = pc.if_else(
            pc.is_in(types, value_set=pa.array(["tool", "concept"])),
            pa.scalar(NODE_GLOBAL_PART_KEY),
            conv,
        )
        return batch.append_column("node_part_key", key)

    return nodes.map_batches(add, batch_format="pyarrow")


def edge_node_part_key(edges: pa.Table):
    """The ``node_part_key`` of the node rows each edge row yields: a
    ``used_tool`` edge yields only its tool node (the global partition),
    every other edge only nodes of its own conversation."""
    return pc.if_else(
        pc.equal(edges["pred"], "used_tool"),
        pa.scalar(NODE_GLOBAL_PART_KEY),
        edges["conv_id"],
    )


def tool_nodes_from_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """The global tool-node rows from a column-pruned scan of the edge
    table: distinct ``obj`` of ``used_tool`` edges (tool cardinality —
    tiny — is the exchange volume after per-batch dedup).  The job builds
    tool nodes through :func:`build_nodes`; perfbench's traced update
    replay still calls this."""
    from ..ops.setops import distinct_rows

    def just_tools(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["pred"], "used_tool")
        return pa.table({"obj": batch["obj"].filter(keep)})

    tools = distinct_rows(
        edges.select_columns(["pred", "obj"]).map_batches(
            just_tools, batch_format="pyarrow"
        ),
        ["obj"],
        num_shards=16,
    )

    def to_nodes(batch: pa.Table) -> pa.Table:
        obj = batch["obj"]
        obj = obj.combine_chunks() if isinstance(obj, pa.ChunkedArray) else obj
        n = len(obj)
        return pa.Table.from_arrays(
            [
                pc.binary_join_element_wise(
                    pa.array(["tool:"] * n), obj, ""
                ),
                pa.array(["tool"] * n, type=pa.string()),
                pc.cast(obj, pa.string()),
                pa.nulls(n, type=pa.string()),
            ],
            schema=NODE_SCHEMA,
        )

    return tools.map_batches(to_nodes, batch_format="pyarrow")


def build_nodes(
    triples: "ray.data.Dataset", ontology_rows=None
) -> "ray.data.Dataset":
    """Canonical node table from the triple stream.

    Turn and mention node ids are unique by construction (no shuffle needed);
    conversation and tool nodes repeat across blocks, so the stream is
    pre-deduped per batch and then reduced with a groupby — the shuffle moves
    at most (distinct convs x blocks) rows.  Concept nodes come straight from
    the broadcast ontology (driver-side, tiny).
    """
    from ..ops.agg import sharded_groupby_apply

    nodes = triples.map_batches(_batch_nodes, batch_format="pyarrow")

    # duplicate node rows are identical, so "first non-null" per column is a
    # pick-any.  Sharded combine (ops/agg.py): node count scales with the
    # corpus, and BOTH a per-group map_groups (~1.5 ms/group) and a key-wise
    # Ray aggregate (~0.25 ms/group) pay per-node Python overhead — hashing
    # into shards keeps the callback count O(shards) with one vectorized
    # pandas first() per shard.
    def first_per_node(df):
        return (
            df.groupby("node_id", sort=False)
            .first()
            .reset_index()[["node_id", "node_type", "label", "category"]]
        )

    deduped = sharded_groupby_apply(nodes, ["node_id"], first_per_node)

    def to_schema(batch: pa.Table) -> pa.Table:
        # a shard whose category column is all-null comes back as Arrow
        # null type; cast pins every block to NODE_SCHEMA
        return pa.Table.from_arrays(
            [pc.cast(batch[f.name], f.type) for f in NODE_SCHEMA],
            schema=NODE_SCHEMA,
        )

    deduped = deduped.map_batches(to_schema, batch_format="pyarrow")
    if ontology_rows:
        concept_rows = pa.Table.from_pydict(
            {
                "node_id": [concept_id(r.tag) for r in _uniq_tags(ontology_rows)],
                "node_type": ["concept"] * len(_uniq_tags(ontology_rows)),
                "label": [r.tag for r in _uniq_tags(ontology_rows)],
                "category": [r.category for r in _uniq_tags(ontology_rows)],
            },
            schema=NODE_SCHEMA,
        )
        deduped = deduped.union(ray.data.from_arrow(concept_rows))
    return deduped


def _uniq_tags(rows):
    seen = {}
    for r in rows:
        if r.tag not in seen:
            seen[r.tag] = r
    return list(seen.values())


# --- concept scores -------------------------------------------------------

def concept_scores(
    mentions: "ray.data.Dataset", count_column: Optional[str] = None
) -> "ray.data.Dataset":
    """Per-concept reduce: total mention occurrences + distinct conversations.

    Two-phase: in-batch partial counts per (tag, conv_id) — this is the
    skew-salting step; a hot conversation collapses to one row per block —
    then ``groupby(tag, conv_id).sum`` and a final tiny ``groupby(tag)``.
    Input is either the raw mention stream (each row counts 1) or the
    per-turn pre-counted table (pass ``count_column`` — far fewer rows enter
    the exchange).  Output: (tag, concept_id, n_mentions, n_convs).
    """

    def partial(batch: pa.Table) -> pa.Table:
        counts: Dict[tuple, int] = {}
        weights = (
            batch[count_column].to_pylist() if count_column else [1] * batch.num_rows
        )
        for tag, conv, w in zip(
            batch["tag"].to_pylist(), batch["conv_id"].to_pylist(), weights
        ):
            counts[(tag, conv)] = counts.get((tag, conv), 0) + w
        return pa.Table.from_pydict(
            {
                "tag": [k[0] for k in counts],
                "conv_id": [k[1] for k in counts],
                "n": list(counts.values()),
            }
        )

    from ..ops.agg import sharded_groupby_apply

    def combine_conv(df):
        # sharded: (tag, conv) count scales with conversations
        return (
            df.groupby(["tag", "conv_id"], sort=False)["n"]
            .sum()
            .reset_index(name="n_mentions_conv")
        )

    per_conv = sharded_groupby_apply(
        mentions.map_batches(partial, batch_format="pyarrow"),
        ["tag", "conv_id"],
        combine_conv,
    )

    scores = (
        per_conv.groupby("tag")
        .aggregate(
            Sum("n_mentions_conv", alias_name="n_mentions"),
            Count(alias_name="n_convs"),
        )
    )

    def add_concept(batch: pa.Table) -> pa.Table:
        cid = pa.array([concept_id(t) for t in batch["tag"].to_pylist()])
        return batch.add_column(1, pa.field("concept_id", pa.string()), cid)

    return scores.map_batches(add_concept, batch_format="pyarrow")


def conversation_stats(
    mentions: "ray.data.Dataset", salt_buckets: int = 16
) -> "ray.data.Dataset":
    """Per-conversation mention/turn/concept counts with an EXPLICIT salted
    two-phase reduce (north_rule: "explicit salting for hot conversations").

    A conversation with millions of turns would make a bare
    ``groupby(conv_id)`` ship every one of its mention rows to a single
    reducer — and shipping per-turn/per-tag LISTS through the exchange
    would still move one list element per turn no matter how the rows are
    salted.  Instead, distinct counting is flattened into a keyed table:

    - phase 0 (in-batch, vectorized pandas): pre-aggregated mention counts
      per ``(conv, salt=turn%k)`` plus the batch-DISTINCT ``(conv, turn)``
      and ``(conv, tag)`` pairs, emitted as tall ``(conv_id, kind, key, n)``
      rows — no lists, and a hot conversation's rows spread over its
      distinct turn/tag keys plus k salt rows;
    - phase 1: ``groupby(conv_id, kind, key).sum(n)`` — one surviving row
      per globally distinct key;
    - phase 2: in-batch partial reduce to ``(conv, n_mentions, n_turns,
      n_tags)`` then a tiny ``groupby(conv_id).sum`` — the final exchange
      carries three ints per conversation per block.

    Output: (conv_id, n_mentions, n_turns, n_tags).
    """
    import pandas as pd

    def phase0(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {
                "conv_id": batch["conv_id"],
                "turn_idx": batch["turn_idx"],
                "tag": batch["tag"],
            }
        ).to_pandas()
        m = (
            df.assign(key=(df["turn_idx"] % salt_buckets).astype(str))
            .groupby(["conv_id", "key"], sort=False)
            .size()
            .reset_index(name="n")
        )
        m["kind"] = "m"
        t = df[["conv_id", "turn_idx"]].drop_duplicates()
        t = pd.DataFrame(
            {"conv_id": t["conv_id"], "key": t["turn_idx"].astype(str),
             "n": 0, "kind": "t"}
        )
        g = df[["conv_id", "tag"]].drop_duplicates()
        g = pd.DataFrame(
            {"conv_id": g["conv_id"], "key": g["tag"], "n": 0, "kind": "g"}
        )
        out = pd.concat([m, t, g], ignore_index=True)
        return pa.Table.from_pydict(
            {
                "conv_id": pa.array(out["conv_id"], type=pa.string()),
                "kind": pa.array(out["kind"], type=pa.string()),
                "key": pa.array(out["key"], type=pa.string()),
                "n": pa.array(out["n"], type=pa.int64()),
            }
        )

    from ..ops.agg import sharded_groupby_apply

    def combine_keyed(df):
        # sharded: the key table has one row per distinct turn/tag per conv
        # — corpus-scaled, so a key-wise aggregate is per-row Python
        return (
            df.groupby(["conv_id", "kind", "key"], sort=False)["n"]
            .sum()
            .reset_index(name="n")
        )

    keyed = sharded_groupby_apply(
        mentions.map_batches(phase0, batch_format="pyarrow"),
        ["conv_id", "kind", "key"],
        combine_keyed,
    )

    def phase2(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        kinds = df["kind"]
        per_conv = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "n_mentions": df["n"].where(kinds == "m", 0),
                "n_turns": (kinds == "t").astype("int64"),
                "n_tags": (kinds == "g").astype("int64"),
            }
        ).groupby("conv_id", sort=False).sum().reset_index()
        return pa.Table.from_pandas(per_conv, preserve_index=False)

    def combine_final(df):
        # sharded: one group per conversation — corpus-scaled
        return (
            df.groupby("conv_id", sort=False)[["n_mentions", "n_turns", "n_tags"]]
            .sum()
            .reset_index()
        )

    return sharded_groupby_apply(
        keyed.map_batches(phase2, batch_format="pyarrow"),
        ["conv_id"],
        combine_final,
    )
