"""Graph construction: transcripts + ontology -> triples / nodes / edges /
concept scores.

Per the target data model (SURVEY.md §1.2, BASELINE.json north_star):

- ``(subj=turn_id#keyword, pred='tagged_as', obj='concept:'+tag)`` triples
  from deduplicated per-turn mentions,
- structural ``(conv_id, 'utters', turn_id)`` and
  ``(turn_id, 'used_tool', tool)`` edges,
- canonical node table (conversation / turn / concept / mention / tool),
- per-concept mention/conversation counts.

Shuffle design: the KG job (``job._graph_tables``) runs one exchange.
One actor pass (:class:`GraphRowsActor`) emits the mention rows plus one
row per turn; the rows are grouped once by the conversation's node
partition, and each group derives its conversations' edges
(:func:`conversation_edges`), nodes (:func:`edge_nodes`) and per-tag
score partials (:func:`tag_partials`) with vectorized Arrow.  Every row of
a conversation lands in one group, so the per-turn mention dedup, the node
dedup and the distinct-conversation counts are exact inside it.

The dataset-level forms serve the query registry and the benchmark's
stage replay.  :func:`extract_triples` is a pure streaming actor-pool
stage (per-turn dedup inside the actor).  :func:`triples_from_mentions`,
:func:`build_nodes` and :func:`concept_scores` take datasets in which one
conversation may span blocks, so each ends in a sharded exchange after
the same kernels ran per batch: a hot conversation contributes at most
one partial row per key and block to the exchange.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from ..ops.hashing import bucket_column
from .config import PipelineConfig
from .tag import MENTION_SCHEMA, MentionActor, map_stage

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


def _tagged_triples(mentions: pa.Table) -> pa.Table:
    """One ``tagged_as`` triple per distinct (conv_id, turn_idx, tag,
    keyword) of ``mentions``; exact when they hold every mention of their
    turns."""
    keys = mentions.select(["conv_id", "turn_idx", "tag", "keyword"])
    keys = keys.group_by(keys.column_names, use_threads=False).aggregate([])
    conv, turn, tid = _turn_keys(keys)
    return _triples(
        pc.binary_join_element_wise(tid, keys["keyword"], "#"),
        "tagged_as",
        pc.binary_join_element_wise("concept:", keys["tag"], ""),
        conv,
        turn,
    )


def conversation_edges(turns: pa.Table, mentions: pa.Table) -> pa.Table:
    """The edge rows of whole conversations from their turn rows
    (conv_id, turn_idx, tool) and all of their mention rows: the rows
    :func:`triples_from_mentions` yields for them."""
    parts = _structural_triples(turns, "tool", *_turn_keys(turns))
    return pa.concat_tables(parts + [_tagged_triples(mentions)])


# the KG job's exchange rows (GraphRowsActor): mention rows (keyword set)
# and one row per turn (keyword null) with its tool, each with its
# conversation's mention partition ``part`` and node partition ``node_part``
EXCHANGE_SCHEMA = pa.schema(
    list(MENTION_SCHEMA)
    + [("tool", pa.string()), ("part", pa.int32()), ("node_part", pa.int32())]
)


class GraphRowsActor(MentionActor):
    """The KG job's one matcher pass.  Per batch it keeps the turns whose
    ``part = crc32(conv_id) % num_partitions`` is in ``emit`` and returns
    them as :data:`EXCHANGE_SCHEMA` rows: one row per turn, plus the
    :class:`MentionActor` rows of the turns whose ``part`` is in
    ``match``.  ``node_part`` is ``part % node_partitions``, which equals
    ``crc32(conv_id) % node_partitions`` because ``node_partitions``
    divides ``num_partitions``."""

    def __init__(self, ontology, config: PipelineConfig, num_partitions: int,
                 node_partitions: int, emit, match):
        super().__init__(ontology, config)
        self.num_partitions = num_partitions
        self.node_partitions = node_partitions
        self.emit = pa.array(sorted(emit), type=pa.int32())
        self.match = pa.array(sorted(match), type=pa.int32())

    def _rows(self, columns: list, part: pa.Array) -> pa.Table:
        node_part = pa.array(part.to_numpy() % self.node_partitions, type=pa.int32())
        return pa.Table.from_arrays(columns + [part, node_part], schema=EXCHANGE_SCHEMA)

    def __call__(self, batch: pa.Table) -> pa.Table:
        part = bucket_column(batch["conv_id"], self.num_partitions, stable_str=True)
        if len(self.emit) < self.num_partitions:
            keep = pc.is_in(part, value_set=self.emit)
            batch, part = batch.filter(keep), part.filter(keep)
        matched = batch
        if len(self.match) < self.num_partitions:
            matched = batch.filter(pc.is_in(part, value_set=self.match))
        mentions = super().__call__(matched)
        n, k = batch.num_rows, mentions.num_rows
        tool = (pc.cast(batch["tool"], pa.string()) if "tool" in batch.schema.names
                else pa.nulls(n, pa.string()))
        turns = [pc.cast(batch["conv_id"], pa.string()), pc.cast(batch["turn_idx"], pa.int32())]
        turns += [pa.nulls(n, f.type) for f in list(MENTION_SCHEMA)[2:]] + [tool]
        turns = [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in turns]
        mention_cols = [mentions[c].combine_chunks() for c in MENTION_SCHEMA.names]
        mention_part = bucket_column(mentions["conv_id"], self.num_partitions, stable_str=True)
        return pa.concat_tables([
            self._rows(mention_cols + [pa.nulls(k, pa.string())], mention_part),
            self._rows(turns, part),
        ])


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

def edge_nodes(triples: pa.Table) -> pa.Table:
    """The distinct node rows the triples yield: a conversation and a turn
    node per ``utters`` edge, a tool node per ``used_tool`` edge and a
    mention node per ``tagged_as`` edge, labelled with the id's last
    ``#`` field.  Exact over a table that holds whole conversations (the
    job's exchange groups); :func:`build_nodes` dedups it again across
    batches."""
    subj, pred, obj = (
        c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        for c in (triples["subj"], triples["pred"], triples["obj"])
    )
    utters = pc.equal(pred, "utters")
    conv, turn = subj.filter(utters), obj.filter(utters)
    tool = obj.filter(pc.equal(pred, "used_tool"))
    mention = subj.filter(pc.equal(pred, "tagged_as"))
    last_field = pc.struct_field(pc.extract_regex(mention, r"(?P<label>[^#]*)$"), [0])
    ids = [conv, turn, pc.binary_join_element_wise("tool:", tool, ""), mention]
    types = [pa.repeat(t, len(a)) for t, a in
             zip(("conversation", "turn", "tool", "mention"), ids)]
    nodes = pa.table({
        "node_id": pa.concat_arrays([pc.cast(a, pa.string()) for a in ids]),
        "node_type": pa.concat_arrays([pc.cast(a, pa.string()) for a in types]),
        "label": pa.concat_arrays([pc.cast(a, pa.string()) for a in (conv, turn, tool, last_field)]),
    })
    nodes = nodes.group_by(nodes.column_names, use_threads=False).aggregate([])
    return pa.Table.from_arrays(
        [nodes["node_id"], nodes["node_type"], nodes["label"],
         pa.nulls(nodes.num_rows, pa.string())],
        schema=NODE_SCHEMA,
    )


def triples_from_mentions(
    mentions: "ray.data.Dataset",
    transcripts_meta: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """Triples derived from an EXISTING mentions table plus a text-free
    metadata pass, so the matcher runs once for mentions and edges.  The
    dataset form of :func:`conversation_edges`: the job derives the same
    rows inside its exchange groups; perfbench's stage replay and the
    registry-free tests call this.

    - ``tagged_as``: the per-turn distinct (tag, keyword) set of the
      mentions table (one sharded distinct makes it globally exact —
      mentions of one turn may span blocks after a partitioned
      write/read round trip).
    - ``utters`` / ``used_tool``: vectorized Arrow kernels over a
      (conv_id, turn_idx, tool) projection of the transcripts — columns
      only, the text never leaves storage.

    Pinned equal to :func:`extract_triples` output by test
    (tests/test_pipeline.py)."""
    from ..ops.setops import distinct_rows

    keys = ["conv_id", "turn_idx", "tag", "keyword"]
    tagged = distinct_rows(
        mentions.select_columns(keys), keys, num_shards=64
    ).map_batches(_tagged_triples, batch_format="pyarrow")

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
        return tool_nodes(batch["obj"])

    return tools.map_batches(to_nodes, batch_format="pyarrow")


def tool_nodes(tools) -> pa.Table:
    """One tool node row per value of ``tools`` (distinct tool names)."""
    tools = pc.cast(tools, pa.string())
    tools = tools.combine_chunks() if isinstance(tools, pa.ChunkedArray) else tools
    n = len(tools)
    return pa.Table.from_arrays(
        [pc.binary_join_element_wise("tool:", tools, ""), pa.repeat("tool", n), tools,
         pa.nulls(n, pa.string())],
        schema=NODE_SCHEMA,
    )


def concept_nodes(ontology_rows) -> pa.Table:
    """One concept node row per distinct tag of the cleaned ontology rows."""
    uniq = _uniq_tags(ontology_rows)
    return pa.Table.from_pydict(
        {
            "node_id": [concept_id(r.tag) for r in uniq],
            "node_type": ["concept"] * len(uniq),
            "label": [r.tag for r in uniq],
            "category": [r.category for r in uniq],
        },
        schema=NODE_SCHEMA,
    )


def build_nodes(
    triples: "ray.data.Dataset", ontology_rows=None
) -> "ray.data.Dataset":
    """Canonical node table from the triple stream.

    Conversation and tool nodes repeat across blocks, so the stream is
    deduped per batch (:func:`edge_nodes`, the job's node kernel) and then
    reduced with a sharded groupby — the shuffle moves at most (distinct
    convs x blocks) rows.  Concept nodes come straight from the broadcast
    ontology (driver-side, tiny).
    """
    from ..ops.agg import sharded_groupby_apply

    nodes = triples.map_batches(edge_nodes, batch_format="pyarrow")

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
        deduped = deduped.union(ray.data.from_arrow(concept_nodes(ontology_rows)))
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
        return _tag_conv_counts(batch, count_column)

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
        cid = pc.binary_join_element_wise("concept:", batch["tag"], "")
        return batch.add_column(1, pa.field("concept_id", pa.string()), cid)

    return scores.map_batches(add_concept, batch_format="pyarrow")


def _tag_conv_counts(mentions: pa.Table, count_column: Optional[str] = None) -> pa.Table:
    """(tag, conv_id, n): the mentions per (tag, conversation) pair of
    ``mentions``, each row counting 1 or its ``count_column``."""
    n = (pc.cast(mentions[count_column], pa.int64()) if count_column
         else pa.repeat(1, mentions.num_rows))
    t = pa.table({"tag": mentions["tag"], "conv_id": mentions["conv_id"], "n": n})
    t = t.group_by(["tag", "conv_id"], use_threads=False).aggregate([("n", "sum")])
    return t.select(["tag", "conv_id", "n_sum"]).rename_columns(["tag", "conv_id", "n"])


def tag_partials(mentions: pa.Table) -> pa.Table:
    """(tag, n_mentions, n_convs) over ``mentions``.  When they hold every
    mention of their conversations, the partials of disjoint conversation
    sets add up to the concept scores (:func:`scores_from_partials`)."""
    t = _tag_conv_counts(mentions).group_by("tag", use_threads=False).aggregate(
        [("n", "sum"), ("conv_id", "count", pc.CountOptions(mode="all"))])
    return t.select(["tag", "n_sum", "conv_id_count"]).rename_columns(
        ["tag", "n_mentions", "n_convs"])


def scores_from_partials(partials: pa.Table) -> pa.Table:
    """The concept_scores rows (tag, concept_id, n_mentions, n_convs), in
    tag order, from :func:`tag_partials` of disjoint conversation sets."""
    t = partials.group_by("tag", use_threads=False).aggregate(
        [("n_mentions", "sum"), ("n_convs", "sum")]).sort_by("tag")
    return pa.table({
        "tag": t["tag"],
        "concept_id": pc.binary_join_element_wise("concept:", t["tag"], ""),
        "n_mentions": t["n_mentions_sum"],
        "n_convs": t["n_convs_sum"],
    })


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
