"""Partitioned, resumable Parquet output with per-partition lineage manifests.

Layout (north_rule: "resumable from checkpoint with per-partition lineage +
metrics"):

    out_dir/
      part=00017/data.parquet      # one directory per hash partition
      part=00017/manifest.json     # written AFTER the data, atomically

A partition is complete iff its manifest exists and says ``complete``; both
data file and manifest are written to temp names and renamed, so a killed
run can never leave a partition that looks complete.  Every partition a
write owns ends with a manifest: one that no row hashes into gets a
zero-row manifest and no data file, so a rebuild over an old output
cannot keep stale rows.  Re-running skips complete partitions — and
because the partition key is a deterministic content hash of ``conv_id``
(crc32, not Python ``hash``), the same rows land in the same partition on
every run and on every cluster size.

The manifest carries lineage + metrics: row count, distinct conversations,
content hash of the data file, and the writer's config fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional, Set

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..ops.hashing import bucket_column, partition_of

__all__ = ["partition_of", "PartitionedWriter", "require_sort_shuffle"]


def require_sort_shuffle(*datasets) -> None:
    """Raise ``ValueError`` when the current ``DataContext``, or the
    context any of ``datasets`` was created under, selects Ray Data's hash
    shuffle.  Every exchange of the jobs is a ``groupby``; under
    ``ShuffleStrategy.HASH_SHUFFLE`` Ray 2.49 sizes one aggregator actor
    per partition for a large cluster (64 asked for 16 CPUs and 33 GiB on
    a 4-CPU host), they never schedule, and the job waits with no error."""
    from ray.data.context import DataContext, ShuffleStrategy

    contexts = [DataContext.get_current()]
    contexts += [ds.context for ds in datasets if ds is not None]
    if any(c.shuffle_strategy == ShuffleStrategy.HASH_SHUFFLE for c in contexts):
        raise ValueError(
            "DataContext.shuffle_strategy is ShuffleStrategy.HASH_SHUFFLE, "
            "whose aggregators a small cluster cannot schedule, so the job "
            "would hang: set DataContext.get_current().shuffle_strategy = "
            "ShuffleStrategy.SORT_SHUFFLE_PULL_BASED before creating the "
            "input datasets"
        )


class PartitionedWriter:
    def __init__(self, out_dir: str, num_partitions: int = 64):
        self.out_dir = out_dir
        self.num_partitions = num_partitions
        os.makedirs(out_dir, exist_ok=True)

    # -- manifests ----------------------------------------------------------

    def _part_dir(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part={part:05d}")

    def manifest_path(self, part: int) -> str:
        return os.path.join(self._part_dir(part), "manifest.json")

    def done_partitions(self, fingerprint: Optional[str] = None) -> Set[int]:
        """Partitions whose manifest says ``complete`` — and, when a
        ``fingerprint`` is given, whose manifest was written under the SAME
        config fingerprint.  A partition completed under a different config
        is NOT done: skipping it would silently mix outputs of two configs
        in one directory; the writer recomputes (and overwrites) it instead.
        """
        done = set()
        for part in range(self.num_partitions):
            p = self.manifest_path(part)
            if os.path.exists(p):
                try:
                    with open(p) as f:
                        m = json.load(f)
                except (json.JSONDecodeError, OSError):
                    continue
                if m.get("status") != "complete":
                    continue
                if fingerprint is not None and m.get("fingerprint") != fingerprint:
                    continue
                done.add(part)
        return done

    # -- write --------------------------------------------------------------

    def write(
        self,
        ds: "ray.data.Dataset",
        key_column: str = "conv_id",
        resume: bool = True,
        fingerprint: str = "",
        drop_key_column: bool = False,
    ) -> pd.DataFrame:
        """Hash-partition by ``key_column`` and write one parquet + manifest
        per partition; returns the manifest summary as a small DataFrame.

        With ``resume=True``, rows in already-complete partitions are dropped
        *before* the shuffle (and callers that can push the filter to the
        read should do so via ``done_partitions()``).  With
        ``drop_key_column=True`` the key is a ROUTING-ONLY helper column
        and is removed from the written data (callers whose partition key
        is derived, e.g. the node table's source-conv key).  Every
        partition not skipped ends with a manifest, a zero-row one if no
        row hashed into it.
        """
        done = self.done_partitions(fingerprint=fingerprint) if resume else set()
        owned = [p for p in range(self.num_partitions) if p not in done]
        return self._write(ds, key_column, owned, fingerprint, drop_key_column)

    def _write(
        self, ds, key_column: str, owned, fingerprint: str, drop_key_column: bool
    ) -> pd.DataFrame:
        """Write the partitions in ``owned`` from the rows of ``ds`` that
        hash into them.  Every owned partition ends complete: one that
        receives no rows gets a zero-row manifest and loses any stale data
        file, so a rebuild over an old output cannot read back rows the
        new input no longer produces.  The summary has one row per owned
        partition, with ``rows`` 0 and a null ``content_md5`` for an
        empty one."""
        num_partitions = self.num_partitions
        if not owned:
            # full resume: every partition complete — pure metadata check,
            # the input pipeline is never executed (a skip-all re-run of a
            # finished job costs manifest scans, not a corpus pass)
            return _empty_summary()
        want = (
            None
            if set(owned) >= set(range(num_partitions))
            else pa.array(sorted(owned), type=pa.int32())
        )

        def add(batch: pa.Table) -> pa.Table:
            # one vectorized crc32-on-vocab pass routes the rows and, on a
            # partial write, drops those of partitions not owned; agrees
            # with partition_of() so manifests of older runs stay valid
            parts = bucket_column(batch[key_column], num_partitions, stable_str=True)
            batch = batch.append_column("part", parts)
            if want is None:
                return batch
            import pyarrow.compute as pc

            return batch.filter(pc.is_in(parts, value_set=want))

        with_part = ds.map_batches(add, batch_format="pyarrow")

        def write_group(g: pa.Table) -> pa.Table:
            # pyarrow end-to-end: the group stays object-store-backed Arrow
            # (no whole-partition pandas copy)
            part = int(g["part"][0].as_py())
            data = g.drop_columns(
                ["part", key_column] if drop_key_column else ["part"]
            )
            rows, content_hash = self.commit_table(part, data, fingerprint, key_column)
            return pa.Table.from_pydict(
                {
                    "part": pa.array([part], type=pa.int64()),
                    "rows": pa.array([rows], type=pa.int64()),
                    "content_md5": pa.array([content_hash], type=pa.string()),
                }
            )

        summary = with_part.groupby("part").map_groups(
            write_group, batch_format="pyarrow"
        )
        result = summary.to_pandas()  # tiny: one row per written partition
        written = set(result["part"]) if len(result) else set()
        empty = sorted(set(owned) - written)
        for p in empty:
            self.write_empty(p, fingerprint)
        if not written:
            return _empty_summary(empty)
        if empty:
            result = pd.concat([result, _empty_summary(empty)], ignore_index=True)
        return result.sort_values("part").reset_index(drop=True)

    def commit(self, part: int, schema: pa.Schema, batches, fingerprint: str = "",
               n_keys: Optional[int] = None):
        """Write the record batches ``batches`` of ``schema`` as partition
        ``part``'s data file through one ParquetWriter, then its manifest
        (recording ``n_keys``), each to a temp name renamed into place: a
        killed run never leaves a partition that looks complete.  Returns
        the rows written and the data file's md5."""
        pdir = self._part_dir(part)
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, ".data.parquet.tmp")
        rows = 0
        with pq.ParquetWriter(tmp, schema) as writer:
            for rb in batches:
                writer.write(rb)
                rows += rb.num_rows
        h = hashlib.md5()
        with open(tmp, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        content_hash = h.hexdigest()
        os.replace(tmp, os.path.join(pdir, "data.parquet"))
        self._write_manifest(part, {
            "part": part, "status": "complete", "rows": rows, "n_keys": n_keys,
            "content_md5": content_hash, "columns": list(schema.names),
            "fingerprint": fingerprint,
        })
        return rows, content_hash

    def commit_table(self, part: int, table: pa.Table, fingerprint: str = "",
                     key_column: Optional[str] = None):
        """:meth:`commit` of an in-memory table, one Parquet row group per
        64k rows, with its distinct ``key_column`` values as ``n_keys``
        (None when the table has no such column)."""
        import pyarrow.compute as pc

        n_keys = (int(pc.count_distinct(table[key_column]).as_py())
                  if key_column in table.schema.names else None)
        batches = table.combine_chunks().to_batches(max_chunksize=65536)
        return self.commit(part, table.schema, batches, fingerprint, n_keys)

    def _write_manifest(self, part: int, manifest: dict) -> None:
        mtmp = os.path.join(self._part_dir(part), ".manifest.json.tmp")
        with open(mtmp, "w") as f:
            json.dump(manifest, f)
        os.replace(mtmp, self.manifest_path(part))

    def write_empty(self, part: int, fingerprint: str) -> None:
        """Mark ``part`` complete with zero rows.  The manifest lands first
        (atomically) and the stale data file goes after it: a crash in
        between leaves a zero-row manifest, which read() skips."""
        pdir = self._part_dir(part)
        os.makedirs(pdir, exist_ok=True)
        self._write_manifest(part, {
            "part": part, "status": "complete", "rows": 0, "n_keys": 0,
            "content_md5": None, "columns": [], "fingerprint": fingerprint,
        })
        data_path = os.path.join(pdir, "data.parquet")
        if os.path.exists(data_path):
            os.remove(data_path)

    def data_files(self, partitions: Optional[Set[int]] = None) -> Dict[int, str]:
        """The data file of every complete partition (or of those among
        ``partitions``) that holds rows; a zero-row partition has none."""
        done = self.done_partitions()
        if partitions is not None:
            done &= {int(p) for p in partitions}
        files = {}
        for p in sorted(done):
            with open(self.manifest_path(p)) as f:
                if json.load(f).get("rows", 0) == 0:
                    continue
            files[p] = os.path.join(self._part_dir(p), "data.parquet")
        return files

    def read(
        self,
        partitions: Optional[Set[int]] = None,
        schema: Optional[pa.Schema] = None,
    ) -> "ray.data.Dataset":
        """Read back every complete partition (or only ``partitions`` —
        partition pruning at the read, no post-filter).  Partitions whose
        manifest records zero rows (no input row hashed into them) have
        no data file and are skipped; when that leaves no file, the result
        is an empty dataset of ``schema`` (a slice with no rows is a
        valid table, e.g. a corpus the ontology never matches)."""
        paths = list(self.data_files(partitions).values())
        if not paths and schema is not None:
            return ray.data.from_arrow(schema.empty_table())
        # partitioning=None: the part=NNNNN directory name is writer
        # bookkeeping — hive inference would resurrect it as a column and
        # collide with the next stage's routing column
        return ray.data.read_parquet(paths, partitioning=None)

    # -- incremental maintenance ---------------------------------------------

    def invalidate(self, partitions) -> None:
        """Remove the manifests of ``partitions`` so the next resume-write
        recomputes exactly them.  Only the manifest goes (atomically, one
        unlink each); the stale data file stays until its replacement is
        renamed over it, so a crash between invalidate and rewrite leaves
        the partition marked incomplete — never half-new."""
        for p in partitions:
            path = self.manifest_path(int(p))
            if os.path.exists(path):
                os.remove(path)

    def refresh(
        self,
        ds: "ray.data.Dataset",
        key_column: str,
        partitions,
        fingerprint: str = "",
        drop_key_column: bool = False,
    ) -> pd.DataFrame:
        """Recompute ONLY ``partitions`` from ``ds``: invalidate them, prune
        the input to rows hashing into them, and write them; a target
        partition left with no rows (all of its keys were deleted
        upstream) ends complete and empty.  The prune is a vectorized mask
        before the exchange, so the shuffle and the writes follow the
        target partitions, but ``ds`` itself still runs in full: a caller
        that must not pay for the whole input prunes it before the costly
        stage."""
        parts = sorted(int(p) for p in partitions)
        self.invalidate(parts)
        return self._write(ds, key_column, parts, fingerprint, drop_key_column)


def _empty_summary(parts=()) -> pd.DataFrame:
    """The summary rows of ``parts`` completed with zero rows."""
    n = len(parts)
    return pd.DataFrame(
        {"part": pd.Series(list(parts), dtype="int64"),
         "rows": pd.Series([0] * n, dtype="int64"),
         "content_md5": pd.Series([None] * n, dtype="object")}
    )
