"""Seeded input generator for the benchmark.

Writes, for one workload and one seed, a multi-file Parquet transcripts
table ``(conv_id, turn_idx, role, text, tool, ts)`` drawn from a Zipf
vocabulary of synthetic words, plus an ontology of K keywords of 1-3
tokens from the same vocabulary.  The ``update`` workload also gets a v2
table in which a small share of conversations is edited, and the list of
edited conversation ids.

Inputs are a pure function of (workload spec, seed): the same seed gives
byte-identical files.  They are cached under ``<cache>/<key>/`` and
written once per seed, so generation never counts toward a timed phase.

Keyword construction keeps the DuckDB oracle exact: no two keywords share
a token and no keyword repeats a token, so overlapping and
self-overlapping matches cannot occur.  Words are lowercase consonant-vowel
strings of at least four letters; "mixed" rows capitalise sentence starts,
add trailing punctuation (which the tokenizer splits off) and one word
in a non-Latin script (which no keyword can match inside).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 2
VOCAB_SIZE = 20_000
ZIPF_S = 1.05
TOOLS = ("search", "python", "browser", "sql")
TS_EPOCH_US = 1735689600000000  # 2025-01-01T00:00:00Z
NON_LATIN = ("привет", "λόγος", "данные", "κόσμος", "город", "ήλιος", "море", "νερό")
SENT_END = (".", "?", "!")
INNER_PUNCT = (",", ";", ":")

_CONS = "bdfgklmnprstvz"
_VOWS = "aeiou"
_SYL = [c + v for c in _CONS for v in _VOWS]  # 70 syllables

SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)


@dataclass(frozen=True)
class Spec:
    """One workload's input shape."""

    workload: str
    why: str
    turns: int
    keywords: int
    mixed_share: float
    files: int = 8
    edit_share: float = 0.0  # share of conversations edited in the v2 table

    def key(self, seed: int) -> str:
        return (
            f"{self.workload}-t{self.turns}-k{self.keywords}"
            f"-m{self.mixed_share:g}-e{self.edit_share:g}-s{seed}-v{GEN_VERSION}"
        )


def vocabulary() -> List[str]:
    """VOCAB_SIZE distinct lowercase CV words of 2-3 syllables."""
    words = []
    n = len(_SYL)
    for i in range(VOCAB_SIZE):
        a, b, c = i % n, (i // n) % n, i // (n * n)
        w = _SYL[a] + _SYL[b]
        if c:
            w += _SYL[(c - 1) % n]
        words.append(w)
    return words


def _zipf_cdf(size: int) -> np.ndarray:
    w = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(w)
    return cdf / cdf[-1]


def _ontology(rng: np.random.Generator, vocab: np.ndarray, k: int) -> pa.Table:
    """K keywords of 1-3 distinct tokens, no token shared between keywords.

    The keyword tokens are a fixed block of Zipf ranks from 1000 on, and
    the 50/35/15% mix of lengths is exact, so the seed changes which words
    form which keyword but hardly the number of natural matches; tags group
    four keywords each."""
    lens = np.repeat([1, 2, 3], [k - int(0.35 * k) - int(0.15 * k), int(0.35 * k), int(0.15 * k)])
    lens = rng.permutation(lens)
    pool = rng.permutation(np.arange(1000, 1000 + int(lens.sum())))
    keywords, pos = [], 0
    for n in lens:
        keywords.append(" ".join(vocab[pool[pos : pos + n]]))
        pos += n
    n_tags = max(1, k // 4)
    tags = [f"T{i % n_tags:04d}" for i in range(k)]
    return pa.table({"tag": tags, "keyword": keywords})


def _turn_texts(
    rng: np.random.Generator,
    vocab: np.ndarray,
    cdf: np.ndarray,
    keywords: List[str],
    n: int,
    mixed_share: float,
) -> List[str]:
    lens = rng.integers(8, 25, size=n)
    ranks = np.searchsorted(cdf, rng.random(int(lens.sum())), side="right")
    words = vocab[np.minimum(ranks, len(vocab) - 1)]
    mixed = rng.random(n) < mixed_share
    inject = rng.random(n) < 0.3  # plant one keyword phrase in ~30% of turns
    kw_pick = rng.integers(0, len(keywords), size=n)
    texts, pos = [], 0
    for i in range(n):
        toks = list(words[pos : pos + lens[i]])
        pos += lens[i]
        if inject[i]:
            at = int(rng.integers(0, len(toks) + 1))
            toks[at:at] = keywords[kw_pick[i]].split(" ")
        if not mixed[i]:
            texts.append(" ".join(toks))
            continue
        # mixed: 2-3 sentences, capitalised, inner/final punctuation and one
        # non-Latin word; punctuation is only ever attached after a word
        toks.insert(int(rng.integers(0, len(toks) + 1)), NON_LATIN[int(rng.integers(len(NON_LATIN)))])
        n_sent = int(rng.integers(2, 4))
        cuts = sorted(set(int(c) for c in rng.integers(1, len(toks), size=n_sent - 1)))
        bounds = [0] + cuts + [len(toks)]
        sents = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s = toks[lo:hi]
            s[0] = s[0][:1].upper() + s[0][1:]
            if len(s) > 3 and rng.random() < 0.5:
                j = int(rng.integers(0, len(s) - 1))
                s[j] = s[j] + INNER_PUNCT[int(rng.integers(len(INNER_PUNCT)))]
            s[-1] = s[-1] + SENT_END[int(rng.integers(len(SENT_END)))]
            sents.append(" ".join(s))
        texts.append(" ".join(sents))
    return texts


def _transcripts(rng, vocab, cdf, keywords, turns: int, mixed_share: float):
    conv_lens = []
    while sum(conv_lens) < turns:
        conv_lens.append(int(rng.integers(4, 13)))
    conv_lens[-1] -= sum(conv_lens) - turns
    if conv_lens[-1] <= 0:
        conv_lens.pop()
    conv = np.repeat(np.arange(len(conv_lens)), conv_lens)
    turn = np.concatenate([np.arange(n) for n in conv_lens]).astype(np.int32)
    n = len(conv)
    tool_on = rng.random(n) < 0.2
    tool_val = np.array(TOOLS, dtype=object)[rng.integers(0, len(TOOLS), size=n)]
    return pa.table(
        {
            "conv_id": pa.array([f"c{c:07d}" for c in conv], type=pa.string()),
            "turn_idx": pa.array(turn, type=pa.int32()),
            "role": pa.array(np.where(turn % 2 == 0, "user", "assistant"), type=pa.string()),
            "text": pa.array(_turn_texts(rng, vocab, cdf, keywords, n, mixed_share), type=pa.string()),
            "tool": pa.array(np.where(tool_on, tool_val, None), type=pa.string()),
            "ts": pa.array(TS_EPOCH_US + np.arange(n, dtype=np.int64) * 1_000_000, type=pa.timestamp("us")),
        },
        schema=SCHEMA,
    )


def _edit(rng, vocab, cdf, keywords, table: pa.Table, edit_share: float, mixed_share: float):
    """v2 table: ``edit_share`` of the conversations get new text on every
    turn and one extra turn; returns (v2 table, sorted edited conv ids)."""
    convs = np.unique(table["conv_id"].to_numpy(zero_copy_only=False))
    n_edit = max(1, int(round(edit_share * len(convs))))
    edited = sorted(rng.choice(convs, size=n_edit, replace=False).tolist())
    cols = table.to_pydict()
    is_edited = np.isin(np.array(cols["conv_id"], dtype=object), edited)
    rows = np.nonzero(is_edited)[0]
    new_text = _turn_texts(rng, vocab, cdf, keywords, len(rows), mixed_share)
    for r, t in zip(rows, new_text):
        cols["text"][r] = t
    edited_set = set(edited)
    last = {c: r for r, c in enumerate(cols["conv_id"]) if c in edited_set}
    extra = _turn_texts(rng, vocab, cdf, keywords, len(edited), mixed_share)
    for c, t in zip(edited, extra):
        r = last[c]
        cols["conv_id"].append(c)
        cols["turn_idx"].append(cols["turn_idx"][r] + 1)
        cols["role"].append("user" if (cols["turn_idx"][r] + 1) % 2 == 0 else "assistant")
        cols["text"].append(t)
        cols["tool"].append(None)
        cols["ts"].append(cols["ts"][r])
    return pa.table(cols, schema=SCHEMA), edited


def _write_files(table: pa.Table, out_dir: str, files: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // files)
    for i in range(files):
        part = table.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"), compression="snappy")


def generate(spec: Spec, seed: int, cache_dir: str) -> Dict:
    """Materialize (or reuse) the inputs for ``spec`` at ``seed``; returns
    the input description (paths, sizes, measured shares)."""
    root = os.path.join(cache_dir, spec.key(seed))
    desc_path = os.path.join(root, "inputs.json")
    if os.path.exists(desc_path):
        with open(desc_path) as f:
            return json.load(f)
    tmp = root + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    rng = np.random.default_rng([seed, GEN_VERSION])
    vocab = np.array(vocabulary(), dtype=object)
    cdf = _zipf_cdf(len(vocab))
    onto = _ontology(rng, vocab, spec.keywords)
    keywords = onto["keyword"].to_pylist()
    v1 = _transcripts(rng, vocab, cdf, keywords, spec.turns, spec.mixed_share)
    _write_files(v1, os.path.join(tmp, "transcripts"), spec.files)
    pq.write_table(onto, os.path.join(tmp, "ontology.parquet"))
    desc = {
        "spec": asdict(spec),
        "seed": seed,
        "turns": v1.num_rows,
        "conversations": len(set(v1["conv_id"].to_pylist())),
        "text_bytes": int(sum(len(t.encode()) for t in v1["text"].to_pylist())),
        "mixed_share_measured": _mixed_share(v1),
        "keywords": onto.num_rows,
        "transcripts": "transcripts",
        "ontology": "ontology.parquet",
    }
    if spec.edit_share:
        v2, edited = _edit(rng, vocab, cdf, keywords, v1, spec.edit_share, spec.mixed_share)
        _write_files(v2, os.path.join(tmp, "transcripts_v2"), spec.files)
        desc.update({"transcripts_v2": "transcripts_v2", "turns_v2": v2.num_rows, "edited_convs": edited})
    with open(os.path.join(tmp, "inputs.json"), "w") as f:
        json.dump(desc, f, indent=1, sort_keys=True)
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return desc


def _mixed_share(table: pa.Table) -> float:
    import pyarrow.compute as pc

    simple = pc.match_substring_regex(table["text"], r"^[a-z0-9]+( [a-z0-9]+)*$")
    return round(1.0 - pc.sum(simple.cast(pa.int64())).as_py() / table.num_rows, 4)


def path_of(desc: Dict, cache_dir: str, name: str) -> str:
    return os.path.join(cache_dir, Spec(**desc["spec"]).key(desc["seed"]), desc[name])


def ontology_rows(seed: int, k: int) -> List[tuple]:
    """A K-keyword ontology as (tag, keyword) rows, for kernel sweeps."""
    onto = _ontology(np.random.default_rng([seed, GEN_VERSION, k]), np.array(vocabulary(), dtype=object), k)
    return list(zip(onto["tag"].to_pylist(), onto["keyword"].to_pylist()))
