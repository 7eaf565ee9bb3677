"""Ontology tagging, mentions, and conversation-level rollups.

Split from the former pipeline/queries.py monolith; definitions are
verbatim.  Registers its queries/oracles into the shared registry.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count

from ..graph import concept_scores
from ..tag import extract_mentions, tag_dataset
from ..transcripts import TRANSCRIPTS_SQL, read_transcripts
from ._shared import (ONTOLOGY, _ONTO_CTE, _T_CTE, _OCC_CTE, _cfg, QUERIES, ORACLE_SQL)


# --- KG pipeline queries ---------------------------------------------------

def q_transcripts(sf_dir: str):
    return read_transcripts(sf_dir)


def q_tag_match(sf_dir: str):
    """one_row_per_match with categories over the derived transcripts."""
    ds = read_transcripts(sf_dir)
    return tag_dataset(ds, ONTOLOGY, _cfg(category_column="category"))


def q_tag_doc(sf_dir: str):
    ds = read_transcripts(sf_dir)
    return tag_dataset(
        ds, ONTOLOGY, _cfg(category_column="category", output_format="one_row_per_doc")
    )


def q_tag_doc_json(sf_dir: str):
    ds = read_transcripts(sf_dir)
    return tag_dataset(
        ds, ONTOLOGY,
        _cfg(category_column="category", output_format="one_row_per_doc_json"),
    )


def _mentions(sf_dir: str):
    # no-category mode: all matches (PhraseMatcher semantics)
    return extract_mentions(read_transcripts(sf_dir), ONTOLOGY, _cfg())


def q_mention_counts(sf_dir: str):
    """(conv_id, turn_idx, tag, keyword, n_matches) occurrence counts —
    computed inside the mention actor (turn-local), zero shuffle."""
    from ..tag import extract_mention_counts

    return extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())


def q_concept_scores(sf_dir: str):
    # feed the per-turn pre-counted table: the shuffle moves one row per
    # (turn, keyword) instead of one per occurrence
    from ..tag import extract_mention_counts

    counts = extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())
    return concept_scores(counts, count_column="n_matches")


KWIC_WINDOW = 24


def q_mention_context(sf_dir: str):
    """KWIC / entity-context extraction: a +-24-char window around the
    FIRST occurrence of each (turn, keyword) — the context snippet an
    entity-linking trainer consumes.  Mention offsets are relative to the
    normalized SENTENCE (`core/ontology.py` emits per-sentence spans), so
    "first in the turn" orders by (sent_idx, match_start) — match_start
    alone would pick the smallest within-sentence offset, possibly from a
    later sentence.  The ctx window is sliced from that sentence (the
    documented semantics; the oracle's raw-text slice coincides because
    the derived corpus is single-sentence-per-turn).  Per-batch first-
    occurrence pre-agg bounds the one (conv, turn, keyword)-sharded
    exchange to distinct mention keys; the slice is a bounded per-key
    kernel."""
    from ...ops.agg import sharded_groupby_apply

    mentions = _mentions(sf_dir)
    w = KWIC_WINDOW

    def pre(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sent_idx", "match_start"], kind="stable")
        return df.drop_duplicates(["conv_id", "turn_idx", "keyword"])[
            ["conv_id", "turn_idx", "keyword", "sent_idx", "match_start",
             "match_end", "sentence"]
        ]

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = pre(df)
        ctx = [
            s[max(0, a - w): b + w]
            for s, a, b in zip(
                df["sentence"], df["match_start"], df["match_end"]
            )
        ]
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"].to_numpy(),
                "turn_idx": df["turn_idx"].to_numpy().astype("int32"),
                "keyword": df["keyword"].to_numpy(),
                "ctx": ctx,
            }
        )

    return sharded_groupby_apply(
        mentions.map_batches(pre, batch_format="pandas"),
        ["conv_id", "turn_idx", "keyword"],
        fold,
        num_shards=16,
    )


def q_doc_tags(sf_dir: str):
    """Per matched turn: sorted distinct tag/keyword rollup — computed
    inside the mention actor (turn-local), zero shuffle."""
    from ..tag import extract_doc_tags

    return extract_doc_tags(read_transcripts(sf_dir), ONTOLOGY, _cfg())


def q_tool_stats(sf_dir: str):
    """Per-tool usage profile over the transcripts: turn count, exact
    distinct conversations, and the exact integer turn-position sum
    (consumers derive the average without float drift) — bounded groups,
    so per-batch partials + one tiny fold; the distinct-conv leg is one
    (tool, conv) dedup exchange."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.setops import distinct_rows

    t = read_transcripts(sf_dir)

    def keep_tool(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_valid(batch["tool"])).select(
            ["tool", "conv_id", "turn_idx"]
        )

    tooled = t.map_batches(keep_tool, batch_format="pyarrow").materialize()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tool", sort=False).agg(
            n_turns=("turn_idx", "size"), sum_turn=("turn_idx", "sum")
        )
        return g.reset_index()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tool", sort=False)[["n_turns", "sum_turn"]].sum()
        return g.reset_index()

    stats = sharded_groupby_apply(
        tooled.map_batches(partial, batch_format="pandas"),
        ["tool"],
        fold,
        num_shards=4,
    ).to_pandas()  # <= |tools| rows

    convs = (
        distinct_rows(
            tooled.select_columns(["tool", "conv_id"]),
            ["tool", "conv_id"],
            num_shards=4,
        )
        .to_pandas()
        .groupby("tool", sort=False)
        .size()
    )
    stats["n_convs"] = stats["tool"].map(convs).astype("int64")
    return pa.table(
        {
            "tool": pa.array(stats["tool"], type=pa.string()),
            "n_turns": pa.array(
                stats["n_turns"].to_numpy(), type=pa.int64()
            ),
            "n_convs": pa.array(
                stats["n_convs"].to_numpy(), type=pa.int64()
            ),
            "sum_turn": pa.array(
                stats["sum_turn"].to_numpy(), type=pa.int64()
            ),
        }
    )


def q_conv_splits(sf_dir: str):
    """Leakage-safe train/val/test assignment: the split keys on the
    CONVERSATION id, so every turn of one dialogue lands in the same
    split (turn-level keys would leak dialogue context across splits) —
    `ops/sample.assign_splits` on conv_id, a stateless map that keeps a
    conversation's split stable as the corpus grows."""
    from ...ops.sample import assign_splits

    t = read_transcripts(sf_dir).select_columns(["conv_id", "turn_idx"])
    return assign_splits(t, "conv_id")


def q_topic_shifts(sf_dir: str):
    """Dialogue-structure audit: per conversation, how many times the
    tagged-concept set CHANGES between consecutive tagged turns — the
    turn-local tag rollup (zero shuffle) into one conv-sharded window
    lag (`ops/window.window_over`) and a same-shard count fold."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.window import window_over
    from ..tag import extract_doc_tags

    dt = extract_doc_tags(read_transcripts(sf_dir), ONTOLOGY, _cfg())
    w = window_over(
        dt.select_columns(["conv_id", "turn_idx", "tags_sorted"]),
        keys=["conv_id"],
        order_by=["turn_idx"],
        specs=[("lag", "tags_sorted", "prev", (1, ""))],
        num_shards=16,
    )

    def count_shifts(df: pd.DataFrame) -> pd.DataFrame:
        shift = (df["prev"] != "") & (df["prev"] != df["tags_sorted"])
        g = shift.groupby(df["conv_id"]).sum()
        return pd.DataFrame(
            {
                "conv_id": g.index.to_numpy(),
                "n_shifts": g.to_numpy().astype("int64"),
            }
        )

    return sharded_groupby_apply(w, ["conv_id"], count_shifts, num_shards=16)


def q_conv_stats(sf_dir: str):
    """Per-conversation rollup via the explicitly salted two-phase reduce
    (graph.conversation_stats)."""
    from ..graph import conversation_stats

    return conversation_stats(_mentions(sf_dir))


# Overlap-hardening ontology: keywords deliberately SHARE tokens (every
# "big data" occurrence collides with a "data" match, etc.), so these
# queries exercise longest-wins span filtering (core/vector_match.filter_longest)
# end-to-end, on split and Python-tokenized rows alike — the main ONTOLOGY
# is token-disjoint by design and never does.
OVERLAP_ONTOLOGY = [
    ("BigData", "big data", "concept"),
    ("DataWindow", "data window", "concept"),
    ("WindowMerge", "window merge", "concept"),
    ("Data", "data", "word"),
    ("Window", "window", "word"),
    ("Merge", "merge", "word"),
]


def q_tag_overlap(sf_dir: str):
    """Mention counts under an overlapping ontology in category mode:
    longest-match-wins overlap resolution, verified against a recursive-CTE
    DuckDB oracle that replays the exact greedy filter_spans algorithm."""
    from ..tag import extract_mention_counts

    return extract_mention_counts(
        read_transcripts(sf_dir), OVERLAP_ONTOLOGY, _cfg(category_column="category")
    )


def q_tag_casefold(sf_dir: str):
    """ignore_case end-to-end on a NON-lowercase corpus: every third turn is
    uppercased before tagging, so matches only survive if case folding
    actually runs (the raw corpus is all-lowercase, which made ignore_case
    vacuous in the round-1 oracle matrix)."""
    from ..tag import extract_mention_counts

    def upper_some(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        turn = np.asarray(batch["turn_idx"].to_pylist())
        mask = pa.array(turn % 3 == 1)
        text2 = pc.if_else(mask, pc.ascii_upper(batch["text"]), batch["text"])
        return batch.set_column(batch.schema.get_field_index("text"), "text", text2)

    ds = read_transcripts(sf_dir).map_batches(upper_some, batch_format="pyarrow")
    return extract_mention_counts(ds, ONTOLOGY, _cfg(ignore_case=True))


def q_tag_diacritics(sf_dir: str):
    """ignore_diacritics (+case) end-to-end: every 'a' becomes 'á' before
    tagging — non-ASCII text forces the general NFD-normalizing path, and
    matches only survive if accent stripping actually runs."""
    from ..tag import extract_mention_counts

    def accent(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text2 = pc.replace_substring(batch["text"], "a", "á")
        return batch.set_column(batch.schema.get_field_index("text"), "text", text2)

    ds = read_transcripts(sf_dir).map_batches(accent, batch_format="pyarrow")
    return extract_mention_counts(
        ds, ONTOLOGY, _cfg(ignore_case=True, ignore_diacritics=True)
    )


def q_tag_lemma(sf_dir: str):
    """Lemmatization-mode matching end-to-end: every 'customer' token is
    replaced by an inflected form of 'work' (worked/working/works by
    turn_idx % 3) and the ontology carries only the base form 'work' —
    matches exist ONLY if the lookup lemmatizer actually maps the
    inflections back to the lemma.  The oracle needs no SQL lemmatizer:
    the injection rule determines both the match count (the original
    'customer' count) and the reported span text per turn."""
    from ..tag import extract_mention_counts

    def inflect(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        turn = np.asarray(batch["turn_idx"].to_pylist())
        forms = np.array(["worked", "working", "works"])[turn % 3]
        text = batch["text"].to_pylist()
        out = [
            t.replace("customer", f) if t is not None else None
            for t, f in zip(text, forms)
        ]
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "text",
            pa.array(out, type=pa.string()),
        )

    ds = read_transcripts(sf_dir).map_batches(inflect, batch_format="pyarrow")
    return extract_mention_counts(
        ds,
        [("Work", "work", "action")],
        _cfg(lemmatization=True, category_column="category"),
    )


def _tag_lemma_injected(sf_dir: str, language: str, forms, keyword: str,
                        tag: str, category: str):
    """Shared harness for the non-English lemma-mode oracles: every
    'customer' token is replaced by an inflected form (by turn_idx % 3)
    and the ontology carries only the base form — matches exist ONLY if
    the language's lookup table maps the inflections back.  Same design
    as q_tag_lemma; the injection rule IS the oracle."""
    from ..tag import extract_mention_counts

    forms_arr = np.array(forms)

    def inflect(batch: pa.Table) -> pa.Table:
        turn = np.asarray(batch["turn_idx"].to_pylist())
        fs = forms_arr[turn % 3]
        text = batch["text"].to_pylist()
        out = [
            t.replace("customer", f) if t is not None else None
            for t, f in zip(text, fs)
        ]
        return batch.set_column(
            batch.schema.get_field_index("text"),
            "text",
            pa.array(out, type=pa.string()),
        )

    ds = read_transcripts(sf_dir).map_batches(inflect, batch_format="pyarrow")
    return extract_mention_counts(
        ds,
        [(tag, keyword, category)],
        _cfg(language=language, lemmatization=True,
             category_column="category"),
    )


def q_tag_lemma_nl(sf_dir: str):
    """Dutch lemma-mode matching: paradigm-table depth in a second
    language family (round-2 verdict item 2) — gewerkt/werkt/werkten all
    lemmatize to 'werken' through the generated nl table.  (The form
    'werkte' is deliberately NOT used: the reference's own matrix pins it
    to identity — see REFERENCE_FIXTURE_PINS.)"""
    return _tag_lemma_injected(
        sf_dir, "nl", ["gewerkt", "werkt", "werkten"], "werken", "Werk",
        "actie",
    )


def q_tag_lemma_sv(sf_dir: str):
    """Swedish lemma-mode matching through the generated sv table:
    arbetade/arbetat/arbetar -> 'arbeta'."""
    return _tag_lemma_injected(
        sf_dir, "sv", ["arbetade", "arbetat", "arbetar"], "arbeta",
        "Arbete", "handling",
    )


def q_tag_lemma_pl(sf_dir: str):
    """Polish lemma-mode matching through the round-4 deepened pl table
    (the reference forces a spaCy *model* for pl,
    spacy_tokenizer.py:208-215): pracowałem (past 1sg) / pracuję
    (present -uję class) / pracowali (virile plural) -> 'pracować'."""
    return _tag_lemma_injected(
        sf_dir, "pl", ["pracowałem", "pracuję", "pracowali"],
        "pracować", "Praca", "czynność",
    )


def q_tag_lemma_ru(sf_dir: str):
    """Russian lemma-mode matching through the round-4 deepened ru table
    (model-forced language in the reference): работал / работаю /
    работая (gerund) -> 'работать'."""
    return _tag_lemma_injected(
        sf_dir, "ru", ["работал", "работаю", "работая"],
        "работать", "Работа", "действие",
    )


def q_tag_match_ja(sf_dir: str):
    """Japanese dictionary-segmentation matching end-to-end (round-4
    verdict item 8): every 'customer' token is replaced by the unspaced
    phrase その会社です and the ontology carries the keyword 会社 —
    matches exist ONLY if the greedy segmenter (core/segdict.py) splits
    the phrase その|会社|です so the keyword aligns on token boundaries.
    The injection rule IS the oracle: one match per original 'customer'
    occurrence."""
    from ..tag import extract_mention_counts

    def inject(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        text2 = pc.replace_substring(batch["text"], "customer", "その会社です")
        return batch.set_column(
            batch.schema.get_field_index("text"), "text", text2
        )

    ds = read_transcripts(sf_dir).map_batches(inject, batch_format="pyarrow")
    return extract_mention_counts(
        ds,
        [("Kaisha", "会社", "組織")],
        _cfg(language="ja", category_column="category"),
    )


def q_distinct_langs(sf_dir: str):
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"])
    return docs.groupby("lang").aggregate(Count(alias_name="n_docs"))


def q_top_tags(sf_dir: str):
    """Top-3 concepts by mention count — sort/limit/top-k coverage via
    `ops/topk.global_topk` (per-block partial top-3 + one tiny final
    reduce, no global sort).  Deterministic tie-break on tag."""
    from ...ops.topk import global_topk

    scores = concept_scores(_mentions(sf_dir)).select_columns(["tag", "n_mentions"])
    return global_topk(scores, "n_mentions", k=3, descending=True, tiebreak=["tag"])


def q_conv_top_tags(sf_dir: str):
    """Top-2 tags per conversation by mention count (ties: tag asc) — the
    per-group top-k operator over a corpus-scaled key set."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.topk import group_topk
    from ..tag import extract_mention_counts

    mc = extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())

    def per_conv(df):
        return (
            df.groupby(["conv_id", "tag"], sort=False)["n_matches"]
            .sum()
            .reset_index(name="n_mentions")
        )

    conv_tag = sharded_groupby_apply(mc, ["conv_id", "tag"], per_conv)
    return group_topk(
        conv_tag, ["conv_id"], "n_mentions", k=2, tiebreak=["tag"]
    ).select_columns(["conv_id", "tag", "n_mentions", "rank"])


def q_concept_lifespan(sf_dir: str):
    """Entity lifespan: each concept's first/last mention time and total
    occurrences — the mention actor's ``ts`` passthrough (no join), then
    per-batch (min, max, sum) partials into one bounded tag-sharded
    fold."""
    from raykg.ops.agg import sharded_groupby_apply
    from ..tag import extract_mention_counts

    counts = extract_mention_counts(
        read_transcripts(sf_dir), ONTOLOGY, _cfg(), extra_columns=("ts",)
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tag", sort=False).agg(
            first_ts=("ts", "min"), last_ts=("ts", "max"),
            n=("n_matches", "sum"),
        )
        return g.reset_index()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("tag", sort=False).agg(
            first_ts=("first_ts", "min"), last_ts=("last_ts", "max"),
            n=("n", "sum"),
        )
        return g.reset_index()

    out = sharded_groupby_apply(
        counts.map_batches(partial, batch_format="pandas"),
        ["tag"],
        fold,
        num_shards=4,
    )

    def typed(df):
        return pa.table(
            {
                "tag": pa.array(df["tag"], type=pa.string()),
                "first_ts": pa.array(df["first_ts"], type=pa.timestamp("us")),
                "last_ts": pa.array(df["last_ts"], type=pa.timestamp("us")),
                "n": pa.array(df["n"].to_numpy(), type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


FEATURE_DIMS = 64


def q_conv_features(sf_dir: str):
    """Feature-hashing (hashing-trick, Weinberger et al. 2009)
    conversation vectors: every token maps to ``md5(tok) % 64`` with a
    ``md5('s:'+tok) % 2`` sign, summed per conversation — long-form
    ``(conv_id, dim, c)`` nonzero counts, integer-exact.  Per-batch
    distinct-token memo + (conv, dim) partials; one conv-sharded fold;
    the md5-per-distinct-token cost class of the samplers."""
    import hashlib

    from raykg.ops.agg import sharded_groupby_apply

    t = read_transcripts(sf_dir)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        import re

        rx = re.compile(r"\S+")
        memo: dict = {}
        convs, dims, sgns = [], [], []
        for conv, text in zip(df["conv_id"], df["text"]):
            for tok in rx.findall(text or ""):
                got = memo.get(tok)
                if got is None:
                    d = int(hashlib.md5(tok.encode()).hexdigest()[:15], 16) % FEATURE_DIMS
                    s = 1 if int(
                        hashlib.md5(b"s:" + tok.encode()).hexdigest()[:15], 16
                    ) % 2 == 0 else -1
                    memo[tok] = got = (d, s)
                convs.append(conv)
                dims.append(got[0])
                sgns.append(got[1])
        out = pd.DataFrame({"conv_id": convs, "dim": dims, "c": sgns})
        return out.groupby(["conv_id", "dim"], as_index=False)["c"].sum()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["conv_id", "dim"], as_index=False)["c"].sum()
        return g[g["c"] != 0]

    out = sharded_groupby_apply(
        t.select_columns(["conv_id", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["conv_id"],
        fold,
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "conv_id": pa.array(df["conv_id"], type=pa.string()),
                "dim": pa.array(df["dim"].to_numpy(), type=pa.int64()),
                "c": pa.array(df["c"].to_numpy(), type=pa.int64()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_concept_trends(sf_dir: str):
    """Temporal KG: per-(concept, 10-second window) mention volumes with
    integer-exact trend flags.  The mention actor passes the turn's event
    time through (``extra_columns=("ts",)`` — no downstream join to recover
    turn metadata), a per-batch pre-aggregated (tag, window) exchange forms
    window counts, and a tiny per-tag second exchange flags each window:
    ``above_mean`` iff cnt * n_windows > total (all-integer, no float mean)
    and ``is_peak`` iff cnt equals the tag's max window count."""
    from raykg.ops.agg import sharded_groupby_apply
    from ..tag import extract_mention_counts

    counts = extract_mention_counts(
        read_transcripts(sf_dir), ONTOLOGY, _cfg(), extra_columns=("ts",)
    )

    def bucket(batch: pa.Table) -> pa.Table:
        us = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = us // 10_000_000  # 10-second windows, epoch-relative
        df = pd.DataFrame(
            {
                "tag": batch["tag"].to_pylist(),
                "window_id": win,
                "cnt": batch["n_matches"].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby(["tag", "window_id"], sort=False)["cnt"].sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    def win_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["tag", "window_id"], sort=False)["cnt"].sum().reset_index()

    wins = sharded_groupby_apply(
        counts.map_batches(bucket, batch_format="pyarrow"),
        ["tag", "window_id"],
        win_sum,
        num_shards=8,
    )

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby("tag", sort=False):
            total = int(g["cnt"].sum())
            n = len(g)
            mx = int(g["cnt"].max())
            out.append(
                pd.DataFrame(
                    {
                        "tag": g["tag"],
                        "window_id": g["window_id"].astype("int64"),
                        "cnt": g["cnt"].astype("int64"),
                        "above_mean": (g["cnt"] * n > total).astype("int64"),
                        "is_peak": (g["cnt"] == mx).astype("int64"),
                    }
                )
            )
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame(
                {
                    "tag": pd.Series(dtype="object"),
                    "window_id": pd.Series(dtype="int64"),
                    "cnt": pd.Series(dtype="int64"),
                    "above_mean": pd.Series(dtype="int64"),
                    "is_peak": pd.Series(dtype="int64"),
                }
            )
        )

    return sharded_groupby_apply(wins, ["tag"], flags, num_shards=4)


def q_tag_assoc(sf_dir: str):
    """Association-rule confidence between co-mentioned concepts:
    directed (a -> b) with conf = n_co / n_turns(a) — composes
    `ops/comention.co_mention_edges` with a broadcast per-tag turn count
    (concept cardinality is ontology-sized, so the denominator ships
    once); exact integer division makes the SQL mirror bit-equal."""
    from ...ops.agg import sharded_groupby_apply
    from ...ops.comention import co_mention_edges

    # materialized: the mention extraction feeds BOTH the per-tag
    # denominators and the co-mention pair build
    m = _mentions(sf_dir).materialize()

    def turn_tag(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"conv_id": batch["conv_id"], "turn_idx": batch["turn_idx"],
             "tag": batch["tag"]}
        )
        return t.group_by(["conv_id", "turn_idx", "tag"]).aggregate([])

    d = m.map_batches(turn_tag, batch_format="pyarrow")

    def count_tag(df):
        g = (
            df.drop_duplicates(["conv_id", "turn_idx", "tag"])
            .groupby("tag", sort=False, as_index=False)
            .size()
        )
        return g.rename(columns={"size": "n"})

    per_tag = sharded_groupby_apply(d, ["tag"], count_tag, 8).to_pandas()
    counts = dict(zip(per_tag["tag"], per_tag["n"]))
    cref = ray.put(counts)

    pairs = co_mention_edges(m, num_shards=16)

    def directed(df):
        import pandas as pd

        cnt = ray.get(cref)
        fwd = pd.DataFrame(
            {"tag_a": df["tag_a"], "tag_b": df["tag_b"], "n_co": df["n_turns"]}
        )
        rev = pd.DataFrame(
            {"tag_a": df["tag_b"], "tag_b": df["tag_a"], "n_co": df["n_turns"]}
        )
        out = pd.concat([fwd, rev], ignore_index=True)
        na = out["tag_a"].map(cnt).to_numpy(dtype=np.int64)
        out["conf"] = out["n_co"].to_numpy(dtype=np.float64) / na
        return pa.table(
            {
                "tag_a": pa.array(out["tag_a"], type=pa.string()),
                "tag_b": pa.array(out["tag_b"], type=pa.string()),
                "n_co": pa.array(out["n_co"], type=pa.int64()),
                "conf": pa.array(np.round(out["conf"], 8), type=pa.float64()),
            }
        )

    return pairs.map_batches(directed, batch_format="pandas")


def q_conv_json(sf_dir: str):
    """SFT chat-format builder: each conversation as the byte-exact JSON
    array [{"role": ..., "content": ...}, ...] in turn order (the
    training-example serialization step; same byte-exact JSON contract
    as tag_doc_json).  One conv-sharded exchange."""
    import json

    from ...ops.agg import sharded_groupby_apply

    t = read_transcripts(sf_dir).select_columns(
        ["conv_id", "turn_idx", "role", "text"]
    )

    def fold(df):
        import pandas as pd

        df = df[df["text"].notna()].sort_values(
            ["conv_id", "turn_idx"], kind="stable"
        )
        rows = []
        for conv, g in df.groupby("conv_id", sort=False):
            msgs = [
                {"role": r, "content": x}
                for r, x in zip(g["role"], g["text"])
            ]
            rows.append(
                {"conv_id": conv, "n_msgs": len(msgs),
                 "messages": json.dumps(msgs, ensure_ascii=False)}
            )
        return pd.DataFrame(rows, columns=["conv_id", "n_msgs", "messages"])

    out = sharded_groupby_apply(t, ["conv_id"], fold, 16)

    def typed(df):
        return pa.table(
            {
                "conv_id": pa.array(df["conv_id"], type=pa.string()),
                "n_msgs": pa.array(df["n_msgs"], type=pa.int64()),
                "messages": pa.array(df["messages"], type=pa.string()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_conv_text(sf_dir: str):
    """Conversation assembly — turns rejoined into one role-tagged
    document per conversation (the LM-training document-build step):
    `ops/reshape.collect_strings`, one conv-sharded exchange with a
    vectorized sort + grouped join per shard."""
    from ...ops.reshape import collect_strings

    t = read_transcripts(sf_dir)
    out = collect_strings(
        t, "conv_id", "text", ["turn_idx"], prefix_col="role",
        num_shards=16,
    )

    def typed(df):
        return pa.table(
            {
                "conv_id": pa.array(df["conv_id"], type=pa.string()),
                "n_items": pa.array(df["n_items"], type=pa.int64()),
                "full_text": pa.array(df["full_text"], type=pa.string()),
            }
        )

    return out.map_batches(typed, batch_format="pandas")


def q_tag_pivot(sf_dir: str):
    """Per-turn tag-count matrix (one column per ontology concept) —
    `ops/reshape.pivot` applied to the mention-count long table with the
    ontology's pinned category schema."""
    from ...ops.reshape import pivot

    mc = q_mention_counts(sf_dir)

    def keyed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        key = pc.binary_join_element_wise(
            batch["conv_id"],
            pc.cast(batch["turn_idx"], pa.string()),
            "#",
        )
        return pa.table(
            {"turn_key": key, "tag": batch["tag"],
             "n_matches": pc.cast(batch["n_matches"], pa.int64())}
        )

    tags = sorted({t for t, _k, _c in ONTOLOGY})
    out = pivot(
        mc.map_batches(keyed, batch_format="pyarrow"),
        index="turn_key",
        columns_from="tag",
        categories=tags,
        values_from="n_matches",
        agg="sum",
        num_shards=16,
    )

    def typed(df):
        cols = {"turn_key": pa.array(df["turn_key"], type=pa.string())}
        for t in tags:
            cols[t] = pa.array(df[t], type=pa.int64())
        return pa.table(cols)

    return out.map_batches(typed, batch_format="pandas")
QUERIES["transcripts"] = q_transcripts
QUERIES["mention_context"] = q_mention_context
QUERIES["topic_shifts"] = q_topic_shifts
QUERIES["tool_stats"] = q_tool_stats
QUERIES["concept_lifespan"] = q_concept_lifespan
QUERIES["conv_features"] = q_conv_features
QUERIES["conv_splits"] = q_conv_splits
QUERIES["tag_match"] = q_tag_match
QUERIES["tag_doc"] = q_tag_doc
QUERIES["tag_doc_json"] = q_tag_doc_json
QUERIES["mention_counts"] = q_mention_counts
QUERIES["concept_scores"] = q_concept_scores
QUERIES["tag_pivot"] = q_tag_pivot
QUERIES["conv_text"] = q_conv_text
QUERIES["conv_json"] = q_conv_json
QUERIES["tag_assoc"] = q_tag_assoc
QUERIES["doc_tags"] = q_doc_tags
QUERIES["conv_stats"] = q_conv_stats
QUERIES["tag_overlap"] = q_tag_overlap
QUERIES["tag_casefold"] = q_tag_casefold
QUERIES["tag_lemma"] = q_tag_lemma
QUERIES["tag_lemma_nl"] = q_tag_lemma_nl
QUERIES["tag_lemma_sv"] = q_tag_lemma_sv
QUERIES["tag_lemma_pl"] = q_tag_lemma_pl
QUERIES["tag_lemma_ru"] = q_tag_lemma_ru
QUERIES["tag_match_ja"] = q_tag_match_ja
QUERIES["tag_diacritics"] = q_tag_diacritics
QUERIES["distinct_langs"] = q_distinct_langs
QUERIES["top_tags"] = q_top_tags
QUERIES["conv_top_tags"] = q_conv_top_tags
QUERIES["concept_trends"] = q_concept_trends

def _overlap_oracle_sql() -> str:
    """Exact SQL replay of ``filter_longest`` (spaCy filter_spans) for the
    overlap ontology: enumerate every token-level match per turn, rank by
    (length DESC, start ASC), then a RECURSIVE CTE walks the ranks carrying
    the kept-interval list and keeps a span iff it overlaps none kept so
    far — the same greedy the engine runs, including the chain case where a
    span survives because its dominator was itself dominated.  Spans are
    encoded as start*1000+end ints (turns are far below 1000 tokens)."""
    span_cases = []
    for tag, kw, _cat in OVERLAP_ONTOLOGY:
        toks = kw.split(" ")
        length = len(toks)
        cond = " AND ".join(f"ws[i+{j}]='{t}'" for j, t in enumerate(toks))
        span_cases.append(
            f"SELECT conv_id, turn_idx, '{tag}' AS tag, '{kw}' AS keyword, "
            f"u.i AS s, u.i + {length} AS e "
            f"FROM w, unnest(list_filter(generate_series(1, len(ws)-{length-1}), "
            f"i -> {cond})) AS u(i)"
        )
    spans_sql = " UNION ALL ".join(span_cases)
    return f"""
        WITH RECURSIVE t AS ({TRANSCRIPTS_SQL}),
        w AS (SELECT conv_id, turn_idx, str_split(text, ' ') AS ws FROM t),
        spans AS ({spans_sql}),
        ranked AS (SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                                ORDER BY (e - s) DESC, s ASC, tag ASC) AS rn
                   FROM spans),
        greedy AS (
          SELECT conv_id, turn_idx, CAST(0 AS BIGINT) AS rn, CAST([] AS BIGINT[]) AS kept,
                 CAST(NULL AS VARCHAR) AS tag, CAST(NULL AS VARCHAR) AS keyword, FALSE AS is_kept
          FROM (SELECT DISTINCT conv_id, turn_idx FROM ranked)
          UNION ALL
          SELECT r.conv_id, r.turn_idx, r.rn,
                 CASE WHEN len(list_filter(g.kept, k -> (k // 1000) < r.e AND r.s < (k % 1000))) = 0
                      THEN list_append(g.kept, r.s * 1000 + r.e) ELSE g.kept END,
                 r.tag, r.keyword,
                 len(list_filter(g.kept, k -> (k // 1000) < r.e AND r.s < (k % 1000))) = 0
          FROM greedy g JOIN ranked r
            ON r.conv_id = g.conv_id AND r.turn_idx = g.turn_idx AND r.rn = g.rn + 1
        )
        SELECT conv_id, turn_idx, tag, keyword, CAST(COUNT(*) AS BIGINT) AS n_matches
        FROM greedy WHERE is_kept GROUP BY 1, 2, 3, 4
    """
ORACLE_SQL["transcripts"] = TRANSCRIPTS_SQL
ORACLE_SQL["tag_match"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE},
        m AS (SELECT t.conv_id, t.turn_idx, onto.category AS tag_category,
                     onto.tag, onto.keyword AS tag_keyword, t.text AS tag_sentence
              FROM t, onto
              WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b'))
        SELECT t.conv_id, t.turn_idx, t.role, t.text,
               m.tag_category, m.tag, m.tag_keyword, m.tag_sentence,
               t.tool, t.ts, t.lang
        FROM t LEFT JOIN m USING (conv_id, turn_idx)
    """
ORACLE_SQL["tag_doc"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE},
        occ AS (SELECT t.conv_id, t.turn_idx, onto.tag, onto.category, onto.keyword,
                       strpos(t.text, onto.keyword) AS p
                FROM t, onto
                WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b')),
        tagpos AS (SELECT conv_id, turn_idx, category, tag, MIN(p) AS minp
                   FROM occ GROUP BY 1,2,3,4),
        cat AS (SELECT conv_id, turn_idx, category,
                       '["' || string_agg(tag, '", "' ORDER BY minp) || '"]' AS tag_json
                FROM tagpos GROUP BY 1,2,3),
        catp AS (SELECT conv_id, turn_idx,
            MAX(CASE WHEN category='tech' THEN tag_json END) AS tag_list_tech,
            MAX(CASE WHEN category='op' THEN tag_json END) AS tag_list_op,
            MAX(CASE WHEN category='pattern' THEN tag_json END) AS tag_list_pattern,
            MAX(CASE WHEN category='buzz' THEN tag_json END) AS tag_list_buzz,
            MAX(CASE WHEN category='entity' THEN tag_json END) AS tag_list_entity
            FROM cat GROUP BY 1,2),
        kwpos AS (SELECT conv_id, turn_idx, keyword, MIN(p) AS p FROM occ GROUP BY 1,2,3),
        kw AS (SELECT conv_id, turn_idx,
                      '["' || string_agg(keyword, '", "' ORDER BY p) || '"]' AS tag_keywords
               FROM kwpos GROUP BY 1,2)
        SELECT t.conv_id, t.turn_idx, t.role, t.text,
               catp.tag_list_tech, catp.tag_list_op, catp.tag_list_pattern,
               catp.tag_list_buzz, catp.tag_list_entity,
               kw.tag_keywords,
               CASE WHEN kw.tag_keywords IS NOT NULL THEN t.text || chr(10) ELSE '' END AS tag_sentences,
               t.tool, t.ts, t.lang
        FROM t LEFT JOIN catp USING (conv_id, turn_idx) LEFT JOIN kw USING (conv_id, turn_idx)
    """
ORACLE_SQL["tag_doc_json"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE},
        occ AS (SELECT t.conv_id, t.turn_idx, onto.tag, onto.category, onto.keyword,
                       strpos(t.text, onto.keyword) AS p, t.text,
                       len(regexp_extract_all(t.text, '\\b' || onto.keyword || '\\b')) AS n
                FROM t, onto
                WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b')),
        perkw AS (SELECT conv_id, turn_idx, category, tag, keyword,
                         MIN(p) AS kwp, CAST(SUM(n) AS BIGINT) AS n, ANY_VALUE(text) AS text
                  FROM occ GROUP BY 1,2,3,4,5),
        pertag AS (SELECT conv_id, turn_idx, category, tag, MIN(kwp) AS tagp,
                          '"' || tag || '": ' ||
                          '{{"count": ' || CAST(CAST(SUM(n) AS BIGINT) AS VARCHAR) ||
                          ', "sentences": ["' || ANY_VALUE(text) ||
                          '"], "keywords": ["' || string_agg(keyword, '", "' ORDER BY kwp) || '"]}}' AS tag_entry
                   FROM perkw GROUP BY 1,2,3,4),
        percat AS (SELECT conv_id, turn_idx, category, MIN(tagp) AS catp,
            '"' || category || '": [' || string_agg('"' || tag || '"', ', ' ORDER BY tagp) || ']' AS cat_entry,
            '"' || category || '": {{' || string_agg(tag_entry, ', ' ORDER BY tagp) || '}}' AS cat_full
            FROM pertag GROUP BY 1,2,3),
        perturn AS (SELECT conv_id, turn_idx,
            '{{' || string_agg(cat_entry, ', ' ORDER BY catp) || '}}' AS tag_json_categories,
            '{{' || string_agg(cat_full, ', ' ORDER BY catp) || '}}' AS tag_json_full
            FROM percat GROUP BY 1,2)
        SELECT t.conv_id, t.turn_idx, t.role, t.text,
               p.tag_json_categories, p.tag_json_full, t.tool, t.ts, t.lang
        FROM t LEFT JOIN perturn p USING (conv_id, turn_idx)
    """
ORACLE_SQL["mention_counts"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT conv_id, turn_idx, tag, keyword, n_matches FROM occ
    """
ORACLE_SQL["concept_scores"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT tag, 'concept:' || tag AS concept_id,
               CAST(SUM(n_matches) AS BIGINT) AS n_mentions,
               CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs
        FROM occ GROUP BY tag
    """
ORACLE_SQL["doc_tags"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT conv_id, turn_idx,
               string_agg(DISTINCT tag, ',' ORDER BY tag) AS tags_sorted,
               string_agg(DISTINCT keyword, ',' ORDER BY keyword) AS keywords_sorted,
               CAST(COUNT(DISTINCT tag) AS BIGINT) AS n_tags
        FROM occ GROUP BY conv_id, turn_idx
    """
ORACLE_SQL["conv_stats"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT conv_id,
               CAST(SUM(n_matches) AS BIGINT) AS n_mentions,
               CAST(COUNT(DISTINCT turn_idx) AS BIGINT) AS n_turns,
               CAST(COUNT(DISTINCT tag) AS BIGINT) AS n_tags
        FROM occ GROUP BY conv_id
    """
ORACLE_SQL["tag_overlap"] = _overlap_oracle_sql()
ORACLE_SQL["tag_casefold"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE},
        t2 AS (SELECT conv_id, turn_idx,
                      CASE WHEN turn_idx % 3 = 1 THEN upper(text) ELSE text END AS text
               FROM t),
        occ AS (SELECT t2.conv_id, t2.turn_idx, onto.tag, onto.keyword,
                       len(regexp_extract_all(lower(t2.text), '\\b' || onto.keyword || '\\b')) AS n_matches
                FROM t2, onto
                WHERE regexp_matches(lower(t2.text), '\\b' || onto.keyword || '\\b'))
        SELECT conv_id, turn_idx, tag, keyword, n_matches FROM occ
    """
ORACLE_SQL["tag_lemma"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Work' AS tag,
               CASE WHEN turn_idx % 3 = 0 THEN 'worked'
                    WHEN turn_idx % 3 = 1 THEN 'working'
                    ELSE 'works' END AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_lemma_nl"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Werk' AS tag,
               CASE WHEN turn_idx % 3 = 0 THEN 'gewerkt'
                    WHEN turn_idx % 3 = 1 THEN 'werkt'
                    ELSE 'werkten' END AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_lemma_sv"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Arbete' AS tag,
               CASE WHEN turn_idx % 3 = 0 THEN 'arbetade'
                    WHEN turn_idx % 3 = 1 THEN 'arbetat'
                    ELSE 'arbetar' END AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_lemma_pl"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Praca' AS tag,
               CASE WHEN turn_idx % 3 = 0 THEN 'pracowałem'
                    WHEN turn_idx % 3 = 1 THEN 'pracuję'
                    ELSE 'pracowali' END AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_lemma_ru"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Работа' AS tag,
               CASE WHEN turn_idx % 3 = 0 THEN 'работал'
                    WHEN turn_idx % 3 = 1 THEN 'работаю'
                    ELSE 'работая' END AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_match_ja"] = f"""
        WITH {_T_CTE},
        occ AS (SELECT conv_id, turn_idx,
                       len(regexp_extract_all(text, '\\bcustomer\\b'))
                           AS n_matches
                FROM t
                WHERE regexp_matches(text, '\\bcustomer\\b'))
        SELECT conv_id, turn_idx, 'Kaisha' AS tag,
               '会社' AS keyword,
               CAST(n_matches AS BIGINT) AS n_matches
        FROM occ
    """
ORACLE_SQL["tag_diacritics"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE},
        t2 AS (SELECT conv_id, turn_idx,
                      strip_accents(lower(replace(text, 'a', 'á'))) AS text
               FROM t),
        occ AS (SELECT t2.conv_id, t2.turn_idx, onto.tag, onto.keyword,
                       len(regexp_extract_all(t2.text, '\\b' || onto.keyword || '\\b')) AS n_matches
                FROM t2, onto
                WHERE regexp_matches(t2.text, '\\b' || onto.keyword || '\\b'))
        SELECT conv_id, turn_idx, tag, keyword, n_matches FROM occ
    """
ORACLE_SQL["distinct_langs"] = """
        SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs FROM documents GROUP BY lang
    """
ORACLE_SQL["top_tags"] = f"""
        WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
        SELECT tag, CAST(SUM(n_matches) AS BIGINT) AS n_mentions
        FROM occ GROUP BY tag
        ORDER BY n_mentions DESC, tag LIMIT 3
    """

# concept_trends: the _OCC_CTE matcher mirror carrying ts, 10-second
# epoch-us windows, and the integer-exact flags (cnt*n > total; cnt == max)
ORACLE_SQL["concept_trends"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE},
    occ AS (SELECT t.ts, onto.tag,
                   len(regexp_extract_all(t.text, '\\b' || onto.keyword || '\\b'))
                       AS n_matches
            FROM t, onto
            WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b')),
    w AS (SELECT tag, epoch_us(ts) // 10000000 AS window_id,
                 CAST(SUM(n_matches) AS BIGINT) AS cnt
          FROM occ GROUP BY 1, 2),
    tot AS (SELECT tag, SUM(cnt) AS total, COUNT(*) AS n_windows,
                   MAX(cnt) AS mx
            FROM w GROUP BY tag)
    SELECT w.tag, CAST(w.window_id AS BIGINT) AS window_id, w.cnt,
           CAST(CASE WHEN w.cnt * tot.n_windows > tot.total THEN 1 ELSE 0 END
                AS BIGINT) AS above_mean,
           CAST(CASE WHEN w.cnt = tot.mx THEN 1 ELSE 0 END AS BIGINT) AS is_peak
    FROM w JOIN tot USING (tag)
"""

# top-2 tags per conversation: the mention_counts oracle as a derived
# table, then SQL's own windowed top-k
ORACLE_SQL["conv_top_tags"] = f"""
    WITH mc AS ({ORACLE_SQL["mention_counts"]}),
    ct AS (SELECT conv_id, tag, CAST(SUM(n_matches) AS BIGINT) AS n_mentions
           FROM mc GROUP BY 1, 2),
    r AS (SELECT conv_id, tag, n_mentions,
                 row_number() OVER (PARTITION BY conv_id
                                    ORDER BY n_mentions DESC, tag) AS rank
          FROM ct)
    SELECT conv_id, tag, n_mentions, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 2
"""

ORACLE_SQL["mention_context"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE},
    fp AS (SELECT t.conv_id, t.turn_idx, onto.keyword, t.text,
                  length(regexp_extract(
                      t.text,
                      '^((?s:.*?))\\b' || onto.keyword || '\\b', 1)) AS s0
           FROM t, onto
           WHERE regexp_matches(t.text, '\\b' || onto.keyword || '\\b'))
    SELECT conv_id, turn_idx, keyword,
           substr(text,
                  greatest(s0 - {KWIC_WINDOW}, 0) + 1,
                  least(length(text),
                        s0 + length(keyword) + {KWIC_WINDOW})
                  - greatest(s0 - {KWIC_WINDOW}, 0)) AS ctx
    FROM fp
"""

ORACLE_SQL["conv_features"] = rf"""
    WITH {_T_CTE},
    w AS (SELECT conv_id,
                 unnest(regexp_extract_all(COALESCE(text, ''), '\S+')) AS tok
          FROM t),
    h AS (SELECT conv_id,
                 CAST(('0x' || substr(md5(tok), 1, 15)) AS BIGINT)
                 % {FEATURE_DIMS} AS dim,
                 CASE WHEN CAST(('0x' || substr(md5('s:' || tok), 1, 15))
                           AS BIGINT) % 2 = 0
                      THEN 1 ELSE -1 END AS sgn
          FROM w)
    SELECT conv_id, dim, CAST(SUM(sgn) AS BIGINT) AS c
    FROM h GROUP BY 1, 2 HAVING SUM(sgn) <> 0
"""

ORACLE_SQL["concept_lifespan"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
    SELECT tag, MIN(ts) AS first_ts, MAX(ts) AS last_ts,
           CAST(SUM(n_matches) AS BIGINT) AS n
    FROM occ JOIN t USING (conv_id, turn_idx)
    GROUP BY tag
"""

ORACLE_SQL["tool_stats"] = f"""
    WITH {_T_CTE}
    SELECT tool, CAST(COUNT(*) AS BIGINT) AS n_turns,
           CAST(COUNT(DISTINCT conv_id) AS BIGINT) AS n_convs,
           CAST(SUM(turn_idx) AS BIGINT) AS sum_turn
    FROM t WHERE tool IS NOT NULL GROUP BY tool
"""

_CONV_MD5_PCT = "(('0x' || substr(md5(conv_id), 1, 8))::UBIGINT % 100)"
ORACLE_SQL["conv_splits"] = f"""
    WITH {_T_CTE}
    SELECT conv_id, turn_idx,
           CASE WHEN {_CONV_MD5_PCT} < 80 THEN 'train'
                WHEN {_CONV_MD5_PCT} < 90 THEN 'val'
                ELSE 'test' END AS split
    FROM t
"""

ORACLE_SQL["topic_shifts"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    dt AS (SELECT conv_id, turn_idx,
                  string_agg(DISTINCT tag, ',' ORDER BY tag) AS tags
           FROM occ GROUP BY 1, 2),
    w AS (SELECT conv_id, tags,
                 COALESCE(LAG(tags) OVER (PARTITION BY conv_id
                                          ORDER BY turn_idx), '') AS prev
          FROM dt)
    SELECT conv_id,
           CAST(SUM(CASE WHEN prev <> '' AND prev <> tags
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_shifts
    FROM w GROUP BY conv_id
"""

ORACLE_SQL["tag_assoc"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    d AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ),
    per AS (SELECT tag, CAST(COUNT(*) AS BIGINT) AS n FROM d GROUP BY tag),
    co AS (SELECT a.tag AS tag_a, b.tag AS tag_b,
                  CAST(COUNT(*) AS BIGINT) AS n_co
           FROM d a JOIN d b
             ON a.conv_id = b.conv_id AND a.turn_idx = b.turn_idx
            AND a.tag <> b.tag
           GROUP BY 1, 2)
    SELECT co.tag_a, co.tag_b, co.n_co,
           round(CAST(co.n_co AS DOUBLE) / per.n, 8) AS conf
    FROM co JOIN per ON per.tag = co.tag_a
"""

ORACLE_SQL["conv_json"] = f"""
    WITH {_T_CTE}
    SELECT conv_id, CAST(COUNT(text) AS BIGINT) AS n_msgs,
           '[' || string_agg(
               '{{"role": "' || role || '", "content": "' || text || '"}}',
               ', ' ORDER BY turn_idx) || ']' AS messages
    FROM t WHERE text IS NOT NULL GROUP BY conv_id
"""

ORACLE_SQL["conv_text"] = f"""
    WITH {_T_CTE}
    SELECT conv_id, CAST(COUNT(text) AS BIGINT) AS n_items,
           string_agg(role || ': ' || text, chr(10) ORDER BY turn_idx)
               AS full_text
    FROM t GROUP BY conv_id
"""

ORACLE_SQL["tag_pivot"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE}
    SELECT conv_id || '#' || turn_idx AS turn_key,
           {", ".join(
               'CAST(SUM(CASE WHEN tag = ' + repr(t) +
               ' THEN n_matches ELSE 0 END) AS BIGINT) AS "' + t + '"'
               for t in sorted({t for t, _k, _c in ONTOLOGY})
           )}
    FROM occ GROUP BY conv_id || '#' || turn_idx
"""


def q_mention_chains(sf_dir: str):
    """Coreference-chain / temporal-KG edges: each turn mentioning a
    concept links to the PREVIOUS turn of the same conversation mentioning
    that concept — the (turn, same_concept_as, turn) edge family a
    temporal KG builds per entity.  Mentions come turn-local from the
    actor pool (zero shuffle; a turn's keywords land in one batch, so the
    per-batch distinct on (conv, turn, tag) is globally exact); the chain
    itself is ONE (conv_id, tag)-sharded window pass (ops/window.window_over
    lag)."""
    import pyarrow.compute as pc

    from ..tag import extract_mention_counts
    from ...ops.window import window_over

    counts = extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())

    def distinct_turn_tags(batch: pa.Table) -> pa.Table:
        seen = set()
        conv, turn, tag = [], [], []
        for c, ti, tg in zip(
            batch["conv_id"].to_pylist(),
            batch["turn_idx"].to_pylist(),
            batch["tag"].to_pylist(),
        ):
            k = (c, ti, tg)
            if k not in seen:
                seen.add(k)
                conv.append(c)
                turn.append(ti)
                tag.append(tg)
        return pa.table(
            {"conv_id": pa.array(conv, type=pa.string()),
             "tag": pa.array(tag, type=pa.string()),
             "turn_idx": pa.array(turn, type=pa.int64())}
        )

    m = counts.map_batches(distinct_turn_tags, batch_format="pyarrow")
    chained = window_over(
        m, keys=["conv_id", "tag"], order_by=["turn_idx"],
        specs=[("lag", "turn_idx", "prev_turn_idx", (1, -1))],
    )

    def finish(batch: pa.Table) -> pa.Table:
        prev = batch["prev_turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = prev >= 0
        t = batch.filter(pa.array(keep))
        turn = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        prev = prev[keep]
        return pa.table(
            {"conv_id": t["conv_id"],
             "tag": t["tag"],
             "turn_idx": pa.array(turn, type=pa.int64()),
             "prev_turn_idx": pa.array(prev, type=pa.int64()),
             "gap": pa.array(turn - prev, type=pa.int64())}
        )

    return chained.map_batches(finish, batch_format="pyarrow")


QUERIES["mention_chains"] = q_mention_chains
ORACLE_SQL["mention_chains"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    m AS (SELECT DISTINCT conv_id, turn_idx, tag FROM occ),
    c AS (SELECT conv_id, tag, CAST(turn_idx AS BIGINT) AS turn_idx,
                 LAG(CAST(turn_idx AS BIGINT))
                     OVER (PARTITION BY conv_id, tag ORDER BY turn_idx)
                     AS prev_turn_idx
          FROM m)
    SELECT conv_id, tag, turn_idx, prev_turn_idx,
           CAST(turn_idx - prev_turn_idx AS BIGINT) AS gap
    FROM c WHERE prev_turn_idx IS NOT NULL
"""


def q_conv_latency(sf_dir: str):
    """Agent-transcript latency analytics: per conversation, the exact
    microsecond gap between each user turn and the assistant turn that
    immediately follows it (count / integer-mean / max).  ONE
    hash(conv_id)-sharded exchange; the lead + filter + per-conv fold run
    vectorized inside the shard (all turns of a conversation share a
    shard, so the fold is exact)."""
    from ...ops.agg import sharded_groupby_apply

    t = read_transcripts(sf_dir)

    def shard_latency(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        g = df.groupby("conv_id", sort=False)
        nrole = g["role"].shift(-1)
        nts = g["ts"].shift(-1)
        mask = (df["role"] == "user") & (nrole == "assistant")
        lat = (
            nts[mask].astype("datetime64[us]").astype("int64")
            - df.loc[mask, "ts"].astype("datetime64[us]").astype("int64")
        )
        out = pd.DataFrame({"conv_id": df.loc[mask, "conv_id"], "lat": lat})
        a = out.groupby("conv_id", sort=False)["lat"].agg(["count", "sum", "max"])
        return pd.DataFrame(
            {"conv_id": a.index.to_numpy(object),
             "n_responses": a["count"].to_numpy(np.int64),
             "mean_latency_us": (a["sum"].to_numpy(np.int64)
                                 // a["count"].to_numpy(np.int64)),
             "max_latency_us": a["max"].to_numpy(np.int64)}
        )

    out = sharded_groupby_apply(
        t.map_batches(
            lambda b: b.select(["conv_id", "turn_idx", "role", "ts"]),
            batch_format="pyarrow",
        ),
        ["conv_id"], shard_latency, num_shards=64,
    )

    def typed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"conv_id": pc.cast(batch["conv_id"], pa.string()),
             "n_responses": pc.cast(batch["n_responses"], pa.int64()),
             "mean_latency_us": pc.cast(batch["mean_latency_us"], pa.int64()),
             "max_latency_us": pc.cast(batch["max_latency_us"], pa.int64())}
        )

    return out.map_batches(typed, batch_format="pyarrow")


QUERIES["conv_latency"] = q_conv_latency
ORACLE_SQL["conv_latency"] = f"""
    WITH {_T_CTE},
    l AS (SELECT conv_id, role, ts,
                 LEAD(role) OVER w AS nrole, LEAD(ts) OVER w AS nts
          FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)),
    r AS (SELECT conv_id, epoch_us(nts) - epoch_us(ts) AS lat
          FROM l WHERE role = 'user' AND nrole = 'assistant')
    SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_responses,
           CAST(SUM(lat) // COUNT(*) AS BIGINT) AS mean_latency_us,
           CAST(MAX(lat) AS BIGINT) AS max_latency_us
    FROM r GROUP BY conv_id
"""


def q_onto_coverage(sf_dir: str):
    """Dictionary-coverage QA for the tagging pipeline: every ontology
    keyword with its total corpus match count, INCLUDING the
    never-matched (dead) entries an operator prunes or investigates.
    Mention counts stay turn-local in the actor pool; the reduce is a
    groupby over the keyword vocabulary (ontology-sized, bounded — the
    cheap side of the exchange dichotomy), then a driver-side left join
    against the broadcast ontology fills the zeros."""
    from ..tag import extract_mention_counts

    counts = extract_mention_counts(read_transcripts(sf_dir), ONTOLOGY, _cfg())

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table(
            {"keyword": batch["keyword"], "n": batch["n_matches"]}
        ).to_pandas()
        g = df.groupby("keyword", sort=False)["n"].sum()
        return pa.table(
            {"keyword": pa.array(g.index, type=pa.string()),
             "n": pa.array(g.to_numpy(np.int64), type=pa.int64())}
        )

    cells = (
        counts.map_batches(partial, batch_format="pyarrow")
        .groupby("keyword").sum("n").to_pandas()
    )
    got = dict(zip(cells["keyword"], cells["sum(n)"]))
    from ...core.ontology import clean_ontology as _co

    rows = _co(ONTOLOGY, has_category=True)
    kws = [r.keyword for r in rows] if hasattr(rows[0], "keyword") else [
        r[1] for r in rows
    ]
    tags = [r.tag for r in rows] if hasattr(rows[0], "tag") else [
        r[0] for r in rows
    ]
    n = [int(got.get(k, 0)) for k in kws]
    order = np.argsort(np.array(kws, dtype=object), kind="stable")
    return pa.table(
        {"keyword": pa.array(np.array(kws, object)[order], type=pa.string()),
         "tag": pa.array(np.array(tags, object)[order], type=pa.string()),
         "n_matches": pa.array(np.array(n)[order], type=pa.int64()),
         "is_dead": pa.array((np.array(n)[order] == 0), type=pa.bool_())}
    )


QUERIES["onto_coverage"] = q_onto_coverage
ORACLE_SQL["onto_coverage"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    c AS (SELECT keyword, SUM(n_matches) AS n FROM occ GROUP BY keyword)
    SELECT onto.keyword, onto.tag,
           CAST(COALESCE(c.n, 0) AS BIGINT) AS n_matches,
           COALESCE(c.n, 0) = 0 AS is_dead
    FROM onto LEFT JOIN c USING (keyword)
"""


# ---------------------------------------------------------------------------
# Recency-decayed concept mass: exponentially-decayed mention counts per
# concept — edge recency weighting for a temporal KG, exact in scaled
# integers (halving per fixed time bucket, no float pow)
# ---------------------------------------------------------------------------

DECAY_BUCKET_S = 256     # one halving per bucket
DECAY_SHIFT = 40         # weight = n_matches << (SHIFT - age_buckets); 0 past it


def q_concept_decay(sf_dir: str):
    """Per-concept recency-decayed mention mass: each mention contributes
    ``2^-(age//DECAY_BUCKET_S)`` of a unit, summed per tag — the decayed
    edge weight a temporal KG uses to rank currently-active concepts.
    Exact arithmetic: the unit is pre-scaled by 2^DECAY_SHIFT so the
    weight is an int64 left shift (mentions older than DECAY_SHIFT
    buckets contribute exactly 0 in both engines; at 100-TB scale
    DECAY_BUCKET_S is the knob that keeps the live window inside the
    shift budget).

    Plan, scale notes: the mention actor passes ts through turn-locally
    (``extra_columns`` — no downstream join to recover event time), the
    corpus max-ts is one tiny column-pruned aggregate, and every batch
    folds to at most |ontology| tag cells, so the final groupby runs
    over the broadcast-bounded tag domain."""
    from ..tag import extract_mention_counts

    counts = extract_mention_counts(
        read_transcripts(sf_dir), ONTOLOGY, _cfg(), extra_columns=("ts",)
    )
    mx = read_transcripts(sf_dir).max("ts")
    mx64 = np.datetime64(mx, "us")

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"tag": pa.array([], type=pa.string()),
                 "decayed_mass": pa.array([], type=pa.int64()),
                 "n_mentions": pa.array([], type=pa.int64())}
            )
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        age_s = ((mx64 - ts).astype("timedelta64[s]")).astype(np.int64)
        b = age_s // DECAY_BUCKET_S
        n = batch["n_matches"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.where(b <= DECAY_SHIFT,
                     n << np.minimum(DECAY_SHIFT - b, DECAY_SHIFT), 0)
        df = pd.DataFrame({"tag": batch["tag"].to_pandas(), "w": w, "n": n})
        g = df.groupby("tag", sort=False).agg(
            decayed_mass=("w", "sum"), n_mentions=("n", "sum")
        )
        return pa.table(
            {"tag": pa.array(g.index, type=pa.string()),
             "decayed_mass": pa.array(
                 g["decayed_mass"].to_numpy().astype(np.int64)),
             "n_mentions": pa.array(
                 g["n_mentions"].to_numpy().astype(np.int64))}
        )

    final = (
        counts.map_batches(partial, batch_format="pyarrow")
        .groupby("tag")
        .sum(["decayed_mass", "n_mentions"])
        .to_pandas()
        .rename(columns={"sum(decayed_mass)": "decayed_mass",
                         "sum(n_mentions)": "n_mentions"})
        .sort_values("tag")
    )
    return pa.table(
        {"tag": pa.array(final["tag"], type=pa.string()),
         "decayed_mass": pa.array(
             final["decayed_mass"].to_numpy().astype(np.int64)),
         "n_mentions": pa.array(
             final["n_mentions"].to_numpy().astype(np.int64))}
    )


QUERIES["concept_decay"] = q_concept_decay
ORACLE_SQL["concept_decay"] = f"""
    WITH {_T_CTE}, {_ONTO_CTE}, {_OCC_CTE},
    mx AS (SELECT MAX(ts) AS mx FROM t),
    w AS (SELECT occ.tag, occ.n_matches,
                 date_diff('second', t.ts, mx.mx) // {DECAY_BUCKET_S} AS b
          FROM occ
          JOIN t USING (conv_id, turn_idx), mx)
    SELECT tag,
           CAST(SUM(CASE WHEN b <= {DECAY_SHIFT}
                    THEN n_matches * (CAST(1 AS BIGINT) << ({DECAY_SHIFT} - b))
                    ELSE 0 END) AS BIGINT) AS decayed_mass,
           CAST(SUM(n_matches) AS BIGINT) AS n_mentions
    FROM w GROUP BY tag ORDER BY tag
"""


# ---------------------------------------------------------------------------
# Tool-transition matrix: first-order transitions between consecutive
# turns' tool usage within a conversation — the agent-behavior profile
# over transcripts (which tool follows which)
# ---------------------------------------------------------------------------


def q_tool_transitions(sf_dir: str):
    """(tool_from, tool_to, n) counts over consecutive turns of each
    conversation, with untooled turns as '(none)' — the first-order
    Markov profile of agent tool usage.

    Plan, scale notes: one hash(conv) exchange co-locates each
    conversation's (turn_idx, tool) rows; the in-shard kernel sorts once
    and resolves transitions with a vectorized shift+mask (no per-conv
    Python), emitting cells over the bounded tool x tool domain."""
    from ...ops.agg import sharded_groupby_apply

    t = read_transcripts(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        tool = pc.fill_null(batch["tool"], "(none)")
        return pa.table(
            {"conv_id": batch["conv_id"], "turn_idx": batch["turn_idx"],
             "tool": tool}
        )

    def in_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        conv = df["conv_id"].to_numpy()
        tool = df["tool"].to_numpy()
        same = conv[:-1] == conv[1:]
        out = pd.DataFrame(
            {"tool_from": tool[:-1][same], "tool_to": tool[1:][same]}
        )
        return (
            out.groupby(["tool_from", "tool_to"], sort=False)
            .size().reset_index(name="n")
        )

    cells = sharded_groupby_apply(
        t.map_batches(prep, batch_format="pyarrow"), ["conv_id"], in_shard
    )
    final = (
        cells.groupby(["tool_from", "tool_to"])
        .sum("n")
        .to_pandas()
        .rename(columns={"sum(n)": "n"})
        .sort_values(["tool_from", "tool_to"])
    )
    return pa.table(
        {"tool_from": pa.array(final["tool_from"], type=pa.string()),
         "tool_to": pa.array(final["tool_to"], type=pa.string()),
         "n": pa.array(final["n"].to_numpy().astype(np.int64))}
    )


QUERIES["tool_transitions"] = q_tool_transitions
ORACLE_SQL["tool_transitions"] = f"""
    WITH {_T_CTE},
    s AS (SELECT conv_id, turn_idx, COALESCE(tool, '(none)') AS tool FROM t),
    p AS (SELECT tool,
                 lead(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                     AS nxt
          FROM s)
    SELECT tool AS tool_from, nxt AS tool_to, COUNT(*) AS n
    FROM p WHERE nxt IS NOT NULL
    GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_turn_coherence(sf_dir: str):
    """Per-conversation topical coherence: token-set Jaccard between each
    ADJACENT turn pair (turn order, pairs where both texts are non-null),
    accumulated as the exact integer sum of floor(1e6 * i / u) — no float
    mean to reconcile across engines.  One conv-sharded exchange
    co-locates each conversation's turns; the pairwise set work is
    bounded by turns-per-conversation."""
    from ...ops.agg import sharded_groupby_apply

    t = read_transcripts(sf_dir).select_columns(["conv_id", "turn_idx", "text"])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
        out_conv, out_pairs, out_sum = [], [], []
        for conv, g in df.groupby("conv_id", sort=False):
            texts = g["text"].tolist()
            toks = [
                set(tx.split()) if isinstance(tx, str) else None for tx in texts
            ]
            n_pairs = 0
            s = 0
            for a, b in zip(toks, toks[1:]):
                if a is None or b is None:
                    continue
                n_pairs += 1
                u = len(a | b)
                if u:
                    s += (1_000_000 * len(a & b)) // u
            out_conv.append(conv)
            out_pairs.append(n_pairs)
            out_sum.append(s)
        return pd.DataFrame(
            {
                "conv_id": out_conv,
                "n_pairs": np.asarray(out_pairs, dtype=np.int64),
                "sum_jacc_x1e6": np.asarray(out_sum, dtype=np.int64),
            }
        )

    return sharded_groupby_apply(t, ["conv_id"], fold)


QUERIES["turn_coherence"] = q_turn_coherence
ORACLE_SQL["turn_coherence"] = rf"""
    WITH {_T_CTE},
    tok AS (SELECT conv_id, turn_idx,
                   list_distinct(regexp_extract_all(text, '\S+')) AS ws
            FROM t),
    p AS (SELECT conv_id, ws,
                 lead(ws) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS nxt
          FROM tok),
    j AS (SELECT conv_id,
                 len(list_intersect(ws, nxt)) AS i,
                 len(ws) + len(nxt) - len(list_intersect(ws, nxt)) AS u
          FROM p WHERE ws IS NOT NULL AND nxt IS NOT NULL)
    SELECT conv_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
           CAST(SUM(CASE WHEN u > 0 THEN (1000000 * i) // u ELSE 0 END)
                AS BIGINT) AS sum_jacc_x1e6
    FROM j GROUP BY conv_id
"""


def q_conv_lang_entropy(sf_dir: str):
    """Per-conversation language-mix entropy (code-switching profile):
    Shannon entropy of the turn-language distribution within each
    conversation — `ops/entropy.group_entropy` over (conv_id, lang)
    pair counts, one conv-sharded exchange, additive (Σc, Σc·ln c)
    partials."""
    from ...ops.entropy import group_entropy

    t = read_transcripts(sf_dir).select_columns(["conv_id", "lang"])
    return group_entropy(t, ["conv_id"], "lang")


QUERIES["conv_lang_entropy"] = q_conv_lang_entropy
ORACLE_SQL["conv_lang_entropy"] = f"""
    WITH {_T_CTE},
    c AS (SELECT conv_id, lang, COUNT(*) AS c FROM t GROUP BY 1, 2)
    SELECT conv_id,
           ROUND(LN(SUM(c)) - SUM(c * LN(c)) / SUM(c), 6) AS entropy
    FROM c GROUP BY conv_id
"""
