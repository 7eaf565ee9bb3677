"""BPE pair statistics — distributed adjacent-character pair counts.

Counting adjacent-symbol pairs is the data-heavy step of BPE tokenizer
training.  :func:`pair_counts` computes one round of adjacent CHARACTER
pair statistics straight off the corpus (what the `bpe_pairs` oracle
checks).  The per-batch kernel is vectorized: all texts in a batch are
joined and decoded to a uint32 codepoint array (``encode('utf-32-le')``
→ ``np.frombuffer``), pair positions are masked where either side is
whitespace, and pairs are counted with one ``np.unique`` over packed
``(left << 32) | right`` keys — no per-character Python.  Each batch
emits a partial table bounded by the alphabet^2, and one sharded combine
produces the global counts: exchange volume is alphabet-, not corpus-,
sized.

Word boundary convention: ``\\S+`` runs, the same RE2-compatible pattern
the text-analysis family uses (`raykg/ops/text.py` WORD_RE), so SQL
oracles can mirror with ``regexp_extract_all(text, '\\S+')``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .agg import sharded_groupby_apply

# Unicode whitespace (UTS#18 \s, what Python re's \S excludes) as codepoints
_WS_CODES = np.array(
    [
        0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20,
        0x85, 0xA0, 0x1680,
        0x2000, 0x2001, 0x2002, 0x2003, 0x2004, 0x2005, 0x2006, 0x2007,
        0x2008, 0x2009, 0x200A, 0x2028, 0x2029, 0x202F, 0x205F, 0x3000,
    ],
    dtype=np.uint32,
)

_EMPTY_PAIRS = pa.table(
    {
        "sym_a": pa.array([], type=pa.string()),
        "sym_b": pa.array([], type=pa.string()),
        "cnt": pa.array([], type=pa.int64()),
    }
)


def _pair_partial(batch: pa.Table, text_column: str) -> pa.Table:
    """Vectorized per-batch adjacent-char pair counts (module docstring)."""
    joined = "\n".join(t for t in batch[text_column].to_pylist() if t)
    if len(joined) < 2:
        return _EMPTY_PAIRS
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
    ws = np.isin(cp, _WS_CODES)
    ok = ~ws[:-1] & ~ws[1:]
    if not ok.any():
        return _EMPTY_PAIRS
    keys = (cp[:-1][ok].astype(np.uint64) << np.uint64(32)) | cp[1:][ok].astype(
        np.uint64
    )
    uniq, counts = np.unique(keys, return_counts=True)
    return pa.table(
        {
            "sym_a": pa.array([chr(int(k >> np.uint64(32))) for k in uniq]),
            "sym_b": pa.array([chr(int(k & np.uint64(0xFFFFFFFF))) for k in uniq]),
            "cnt": pa.array(counts.astype(np.int64), type=pa.int64()),
        }
    )


def pair_counts(
    ds: "ray.data.Dataset", text_column: str = "text", num_shards: int = 8
) -> "ray.data.Dataset":
    """Global adjacent-character pair counts over ``\\S+`` words:
    ``(sym_a, sym_b, cnt)``.  One corpus map + one alphabet-sized combine."""
    parts = ds.map_batches(
        lambda b: _pair_partial(b, text_column), batch_format="pyarrow"
    )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["sym_a", "sym_b"], sort=False)["cnt"].sum()
        return g.reset_index()

    return sharded_groupby_apply(parts, ["sym_a", "sym_b"], combine, num_shards)
