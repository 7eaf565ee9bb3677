"""The token-id matching kernel: the engine's one matcher, for every row and
every matching mode (README "Matcher kernel").

A batch is matched in two steps.  *Codes*: every token becomes its code in
the pattern-token vocabulary (token id + 1; 0 for a token no pattern
uses), all tokens of the batch in one flat array cut into segments (a row
or a sentence each) by an offset array.  Eligible rows (``eligible_rows``:
ASCII alnum words separated by single spaces, so one sentence whose tokens
are its space-split words) are coded by ``split_codes`` with Arrow and no
per-row Python; every other row is sentencized, normalized and tokenized
in Python (core/ontology.py ``match_documents``) and ``token_codes`` looks
each token, or lemma, up in the same vocabulary.  *Spans*: one ``spans``
call per batch extends candidate matches one token at a time through
sorted per-length tables of pattern prefixes (``np.searchsorted``) and
returns every (segment, start, end, pattern id) occurrence, overlapping
self-matches included ("bye bye" twice in "bye bye bye"); in category mode
each segment keeps its longest-first non-overlapping spans
(``filter_longest``).

Cost is O(tokens) for the codes plus O(candidates x log K) per pattern
length: the ontology size K enters only through the lookup tables.
``batch_hits`` reduces the spans of eligible rows to distinct (row,
pattern id, count); ``tag_keyword_counts`` resolves pattern ids to (tag,
keyword) pairs for the count-style actors.  ``tests/test_vector_match.py``
pins the spans to a brute-force span finder.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:
    from .ontology import CompiledMatcher


def filter_longest(matches: Iterable[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """spaCy ``util.filter_spans`` semantics for the EntityRuler/doc.ents path
    (reference ``ontology_tagger.py:251-266``): longest span wins, ties go to
    the earliest span, result is non-overlapping and sorted by start."""
    ordered = sorted(matches, key=lambda m: (-(m[1] - m[0]), m[0]))
    taken: set[int] = set()
    kept: List[Tuple[int, int, int]] = []
    for start, end, pid in ordered:
        if any(i in taken for i in range(start, end)):
            continue
        taken.update(range(start, end))
        kept.append((start, end, pid))
    kept.sort(key=lambda m: m[0])
    return kept


def reduce_hits(seg: np.ndarray, pid: np.ndarray, n: int):
    """Distinct (segment, pattern id) of spans with their counts, sorted by
    pattern id then segment; ``n`` bounds the segment numbers."""
    uniq, counts = np.unique(pid * max(n, 1) + seg, return_counts=True)
    return uniq % max(n, 1), uniq // max(n, 1), counts.astype(np.int64)


class VectorizedExactMatcher:
    """The prefix-table kernel of one compiled matcher."""

    def __init__(self, matcher: "CompiledMatcher"):
        self.ignore_case = matcher.config.ignore_case
        self.has_category = matcher.has_category
        # token text (or lemma) -> dense id over all pattern tokens
        self.token_ids: Dict[str, int] = {}
        self.pattern_id_seqs: List[Tuple[int, ...]] = []
        for toks in matcher.pattern_tokens:
            seq = []
            for t in toks:
                tid = self.token_ids.setdefault(t, len(self.token_ids))
                seq.append(tid)
            self.pattern_id_seqs.append(tuple(seq))
        # the kernel's token code is the index in this array: token id + 1,
        # so that 0 can stand for "no pattern token" — slot 0 holds " ",
        # which a split on " " never yields
        self._vocab = pa.array([" ", *self.token_ids], type=pa.string())
        self._build_prefix_tables()
        # pattern id -> id of its (tag, keyword) pair ("tk"), numbered in
        # pattern order; without categories the tag is the keyword's last
        # ontology row (keyword_to_tag), so a keyword listed twice is one tk
        tks: Dict[Tuple[str, str], int] = {}
        tk_of_pid = []
        for (tag, _cat), kw in zip(matcher.patterns, matcher.pattern_keywords):
            if not matcher.has_category:
                tag = matcher.keyword_to_tag.get(kw, tag)
            tk_of_pid.append(tks.setdefault((tag, kw), len(tks)))
        self._tk_of_pid = np.array(tk_of_pid, dtype=np.int64)
        self._tk_tags = pa.array([t for t, _ in tks], type=pa.string())
        self._tk_keywords = pa.array([k for _, k in tks], type=pa.string())

    def _build_prefix_tables(self) -> None:
        """Dense ids for every pattern prefix, one length at a time.

        A length-1 prefix id is the token code (token id + 1).  Length-L
        prefix ids number the distinct (length L-1 prefix id, L-th token
        code) pairs: ``_pair_keys[L]`` holds the pairs' keys
        ``prefix * W + code`` (W = V + 1 for a vocabulary of V tokens)
        sorted, with a trailing int64-max sentinel, and ``_pair_ids[L]``
        the matching ids.  A key stays below (#prefixes x W) for any L,
        where packing L codes as ``W**L`` would overflow int64 on long
        patterns over a large vocabulary.  A key built from code 0 is in no
        table.  ``_terminal[L][prefix]`` is the node (distinct pattern token
        sequence) a length-L prefix spells, or -1; node ``i`` lists its
        pattern ids at ``_node_pids[_node_first[i]:][:_node_npids[i]]``
        (more than one when a keyword is listed under several tags)."""
        seqs = self.pattern_id_seqs
        W = self._W = len(self.token_ids) + 1
        self._max_len = max(map(len, seqs), default=0)
        prefix = [seq[0] + 1 for seq in seqs]  # each pattern's prefix id
        sizes = [0, W]
        self._pair_keys: List[np.ndarray] = [np.empty(0, np.int64)] * 2
        self._pair_ids: List[np.ndarray] = [np.empty(0, np.int64)] * 2
        for length in range(2, self._max_len + 1):
            pairs: Dict[int, int] = {}
            for p, seq in enumerate(seqs):
                if len(seq) >= length:
                    key = prefix[p] * W + seq[length - 1] + 1
                    prefix[p] = pairs.setdefault(key, len(pairs))
            keys = sorted(pairs)
            self._pair_keys.append(
                np.array(keys + [np.iinfo(np.int64).max], dtype=np.int64)
            )
            self._pair_ids.append(np.array([pairs[k] for k in keys], dtype=np.int64))
            sizes.append(len(pairs))
        self._terminal = [np.full(s, -1, dtype=np.int64) for s in sizes]
        node_pids: Dict[Tuple[int, int], List[int]] = {}
        for p, seq in enumerate(seqs):
            node_pids.setdefault((len(seq), prefix[p]), []).append(p)
        for node, (length, pre) in enumerate(node_pids):
            self._terminal[length][pre] = node
        groups = list(node_pids.values())
        self._node_npids = np.array([len(g) for g in groups], dtype=np.int64)
        self._node_first = np.cumsum(self._node_npids) - self._node_npids
        self._node_pids = np.array([p for g in groups for p in g], dtype=np.int64)

    # -- row eligibility ----------------------------------------------------

    _ELIGIBLE_RE = r"^[a-zA-Z0-9]+( [a-zA-Z0-9]+)*$"

    @classmethod
    def eligible_rows(cls, texts) -> np.ndarray:
        """True where the row of the Arrow string column ``texts`` is simple:
        ASCII alnum words separated by single spaces (no punctuation -> no
        sentence boundaries, no affix tokenization).  One vectorized RE2
        pass, no per-row Python strings.  (A numpy byte-LUT variant was
        measured here and lost to RE2: the per-row segment reductions cost
        more than the single regex pass.)"""
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        m = pc.match_substring_regex(texts, cls._ELIGIBLE_RE)
        return pc.fill_null(m, False).to_numpy(zero_copy_only=False)

    # -- codes --------------------------------------------------------------

    def split_codes(self, texts) -> Tuple[np.ndarray, np.ndarray]:
        """Token codes and per-row token offsets of the Arrow string column
        ``texts`` of eligible rows, split on " " with no per-row Python."""
        arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        if self.ignore_case:
            arr = pc.ascii_lower(arr)
        lists = pc.split_pattern(arr, " ")
        # a sliced list array's offsets are not rebased to 0: cut the child
        # to the rows' own token range
        offs = lists.offsets.to_numpy().astype(np.int64)
        base = int(offs[0])
        offs -= base
        toks = lists.values.slice(base, int(offs[-1]))
        # 0 for a token no pattern uses (null from index_in).  Read straight
        # from the buffers: fill_null costs 5x more once a good share of the
        # tokens are pattern tokens.
        found = pc.index_in(toks, value_set=self._vocab)
        T, off = len(found), found.offset
        code = np.frombuffer(found.buffers()[1], np.int32, T, off * 4).astype(np.int64)
        if found.null_count:
            valid = np.unpackbits(
                np.frombuffer(found.buffers()[0], np.uint8),
                count=off + T,
                bitorder="little",
            )
            code *= valid[off:]
        return code, offs

    def token_codes(self, tokens: Sequence[str]) -> np.ndarray:
        """Token codes of Python tokens (texts, or lemmas in lemma mode):
        one dict lookup per token."""
        get = self.token_ids.get
        return np.fromiter(map(get, tokens, repeat(-1)), np.int64, len(tokens)) + 1

    # -- the kernel ---------------------------------------------------------

    def spans(self, code: np.ndarray, offs: np.ndarray):
        """Every pattern occurrence in the segments ``offs`` of the token
        codes ``code``, as parallel int64 arrays ``(seg, start, end, pid)``:
        segment number, start and end (exclusive) token within the segment,
        pattern id.  Ordered by (seg, start, end, pid); in category mode a
        segment keeps only its longest-first non-overlapping spans."""
        # candidate matches: (first token, prefix id so far)
        start = np.nonzero(code)[0]
        if not len(start) or not len(self._node_pids):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        prefix = code[start]
        # the code a match may extend into: none across a segment start,
        # and a 0 sentinel past the last token
        T = len(code)
        ext = np.zeros(T + 1, dtype=np.int64)
        ext[:T] = code
        ext[offs[:-1]] = 0
        hit_starts: List[np.ndarray] = []
        hit_nodes: List[np.ndarray] = []
        for length in range(1, self._max_len + 1):
            if length > 1:
                # extend by the next token if it is a pattern token of the
                # same segment and the pair is some pattern's prefix
                nxt = ext[start + (length - 1)]
                keep = np.nonzero(nxt)[0]
                key = prefix[keep] * self._W + nxt[keep]
                keys = self._pair_keys[length]
                j = np.searchsorted(keys, key)
                hit = keys[j] == key
                start = start[keep[hit]]
                prefix = self._pair_ids[length][j[hit]]
            node = self._terminal[length][prefix]
            m = node >= 0
            hit_starts.append(start[m])
            hit_nodes.append(node[m])
            if not len(start):
                break
        # hits come ordered by (length, start): a stable sort by start
        # orders them by (start, end)
        lengths = np.repeat(
            np.arange(1, len(hit_starts) + 1), [len(h) for h in hit_starts]
        )
        starts = np.concatenate(hit_starts)
        order = np.argsort(starts, kind="stable")
        starts, lengths, nodes = starts[order], lengths[order], np.concatenate(hit_nodes)[order]
        # a node listed under several pattern ids emits each of them, in
        # pattern id order
        cnt = self._node_npids[nodes]
        starts, lengths = np.repeat(starts, cnt), np.repeat(lengths, cnt)
        within = np.arange(len(starts)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        pid = self._node_pids[np.repeat(self._node_first[nodes], cnt) + within]
        seg = np.searchsorted(offs, starts, side="right") - 1
        start = starts - offs[seg]
        end = start + lengths
        if self.has_category and len(seg) > 1:
            keep = self._longest(seg, start, end)
            seg, start, end, pid = seg[keep], start[keep], end[keep], pid[keep]
        return seg, start, end, pid

    @staticmethod
    def _longest(seg, start, end) -> np.ndarray:
        """Mask of the spans ``filter_longest`` keeps in each segment; only
        segments with two or more spans need the filter."""
        first = np.flatnonzero(np.diff(seg, prepend=-1))
        n = np.diff(np.append(first, len(seg)))
        keep = np.ones(len(seg), dtype=bool)
        for lo, k in zip(first[n > 1].tolist(), n[n > 1].tolist()):
            spans = zip(start[lo:lo + k].tolist(), end[lo:lo + k].tolist(), range(lo, lo + k))
            keep[lo:lo + k] = False
            keep[[i for _, _, i in filter_longest(spans)]] = True
        return keep

    def batch_hits(self, texts):
        """Per-batch distinct (row, pattern) hits as parallel numpy arrays
        ``(rows, pids, counts)``, sorted by pattern id then row — the
        fully-vectorized form downstream stages can consume without
        per-hit Python objects.  ``texts`` is an Arrow string column of
        eligible rows only."""
        if not len(texts):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        seg, _start, _end, pid = self.spans(*self.split_codes(texts))
        return reduce_hits(seg, pid, len(texts))

    def tag_keyword_counts(self, hits):
        """Distinct (row, tag, keyword) of the ``(rows, pids, counts)``
        ``hits`` as ``(rows, tags, keywords, counts)``: numpy row indices
        and counts, Arrow string tags and keywords.  Pattern ids resolve to
        their (tag, keyword) pair as a mention does; pattern ids that
        resolve to the same pair (a keyword listed under two tags without
        categories) fold into one hit whose count is their sum."""
        rows, tk, counts = hits  # tk == pid when no folds
        if len(self._tk_tags) < len(self._tk_of_pid) and len(rows):
            n = int(rows.max()) + 1
            uniq, inv = np.unique(self._tk_of_pid[tk] * n + rows, return_inverse=True)
            rows, tk = uniq % n, uniq // n
            counts = np.bincount(inv, weights=counts).astype(np.int64)
        take = pa.array(tk, type=pa.int64())
        return rows, self._tk_tags.take(take), self._tk_keywords.take(take), counts
