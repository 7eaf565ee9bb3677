"""Transcripts table derivation.

The engine's input is a Parquet table of multi-turn conversation / agent
transcripts ``(conv_id:string, turn_idx:int32, role:string, text:string,
tool:string, ts:timestamp[us])``.  The sandbox test data has no such table,
so we synthesize it *deterministically* from the ``documents`` table
(dense ``doc_id`` 0..N-1): every document becomes one turn, conversations
are fixed-size blocks of consecutive doc_ids.  The mapping is a pure
per-row projection — streaming, no shuffle, SQL-expressible (the DuckDB
oracle mirrors it row for row), and stable under any partitioning, so the
per-turn text-equality invariant holds by construction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

TURNS_PER_CONV = 8
ROLES = ("user", "assistant")
TOOLS = ("search", "python", "browser")
TS_EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z in microseconds

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("lang", pa.string()),
    ]
)


def documents_to_transcripts_batch(batch: pa.Table) -> pa.Table:
    """Pure Arrow/numpy projection documents -> transcripts (one doc = one turn).

    conv_id = 'c' + doc_id // 8, turn_idx = doc_id % 8,
    role alternates user/assistant by turn_idx,
    tool = TOOLS[doc_id % 3] on turns where doc_id % 5 == 3, else null,
    ts = 2025-01-01 + doc_id seconds.
    """
    doc_id = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    conv_num = doc_id // TURNS_PER_CONV
    turn_idx = (doc_id % TURNS_PER_CONV).astype(np.int32)
    conv_id = pc.binary_join_element_wise(
        pa.array(np.full(len(doc_id), "c"), type=pa.string()),
        pc.cast(pa.array(conv_num), pa.string()),
        "",
    )
    role = pa.array(np.where(turn_idx % 2 == 0, ROLES[0], ROLES[1]), type=pa.string())
    tool_mask = (doc_id % 5) == 3
    tool_all = np.array(TOOLS)[(doc_id % 3)]
    tool = pc.if_else(
        pa.array(tool_mask), pa.array(tool_all, type=pa.string()), pa.scalar(None, pa.string())
    )
    ts = pa.array(TS_EPOCH_US + doc_id * 1_000_000, type=pa.timestamp("us"))
    return pa.Table.from_arrays(
        [
            conv_id,
            pa.array(turn_idx, type=pa.int32()),
            role,
            batch["text"].combine_chunks() if isinstance(batch["text"], pa.ChunkedArray) else batch["text"],
            tool,
            ts,
            batch["lang"].combine_chunks() if isinstance(batch["lang"], pa.ChunkedArray) else batch["lang"],
        ],
        schema=TRANSCRIPT_SCHEMA,
    )


def read_transcripts(sf_dir: str) -> "ray.data.Dataset":
    """documents.parquet -> transcripts Dataset (column-pruned read, streaming
    per-batch projection)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    return ds.map_batches(documents_to_transcripts_batch, batch_format="pyarrow")


def read_transcripts_scaled(sf_dir: str, replication: int = 1) -> "ray.data.Dataset":
    """Deterministic synthetic scale-up for benchmarking: the documents table
    replicated ``replication`` times with shifted doc_ids (copy r of doc d
    gets id d + r*N), then the same transcripts projection.

    Each replica is its own read task unioned into one Dataset — Ray Data
    parallelism is block-granular, and a single-file read is one block, so
    replicating *inside* one map task would serialize the whole downstream
    actor pool onto one task.  The union models what production input looks
    like anyway: many parquet fragments.  No randomness; byte-stable."""
    import pyarrow.parquet as pq_mod

    if replication == 1:
        return read_transcripts(sf_dir)
    n_docs = pq_mod.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    path = f"{sf_dir}/documents.parquet"

    # manifest pattern: range(R) gives R one-row blocks -> R parallel tasks,
    # each reading the (page-cached) file itself and emitting one replica.
    # A union of R read_parquet datasets pays ~0.5 s of driver planning per
    # branch; a single-file read is a single block.  This is also how a real
    # many-fragment input parallelizes.
    # two-level: `outer` tasks each read the file once and emit `inner`
    # shifted copies — caps redundant file reads while keeping enough blocks
    # for every CPU
    outer = min(replication, 128)
    inner = (replication + outer - 1) // outer

    def expand(batch: pa.Table) -> pa.Table:
        tbl = pq_mod.read_table(path, columns=["doc_id", "text", "lang"])
        parts = []
        for oid in batch["id"].to_pylist():
            for j in range(inner):
                rid = oid * inner + j
                if rid >= replication:
                    break
                shifted = tbl.set_column(
                    0, "doc_id", pc.add(tbl["doc_id"], rid * n_docs)
                )
                parts.append(documents_to_transcripts_batch(shifted))
        return pa.concat_tables(parts)

    # num_cpus=0.99 (≠ downstream stages' 1.0) deliberately blocks operator
    # fusion: fused with an actor stage, the bundler would count the RANGE
    # rows (1 per replica) against the actor's batch_size and pack every
    # replica into a single task — observed as a 32-replica run executing as
    # "1 task, 1 block".  Unfused, each replica is its own expand task.
    return ray.data.range(outer, override_num_blocks=outer).map_batches(
        expand, batch_size=1, batch_format="pyarrow", num_cpus=0.99
    )


TRANSCRIPTS_SQL = f"""
SELECT 'c' || CAST(doc_id // {TURNS_PER_CONV} AS VARCHAR) AS conv_id,
       CAST(doc_id % {TURNS_PER_CONV} AS INTEGER) AS turn_idx,
       CASE WHEN (doc_id % {TURNS_PER_CONV}) % 2 = 0 THEN 'user' ELSE 'assistant' END AS role,
       text,
       CASE WHEN doc_id % 5 = 3 THEN
           CASE doc_id % 3 WHEN 0 THEN 'search' WHEN 1 THEN 'python' ELSE 'browser' END
       END AS tool,
       TIMESTAMP '2025-01-01 00:00:00' + doc_id * INTERVAL 1 SECOND AS ts,
       lang
FROM documents
"""
