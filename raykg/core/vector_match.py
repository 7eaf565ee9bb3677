"""Vectorized batch matcher for simple text.

The general path tokenizes row by row in Python.  For the overwhelmingly
common large-corpus shape — ASCII text whose tokens are plain alphanumeric
words separated by single spaces — tokenizing is a split on " ", so a whole
batch is matched with Arrow and numpy kernels over token ids, with no
per-row Python and no per-pattern loop:

    (if ignore_case) ASCII-lower the Arrow string column once
      -> split on " " into one flat token column + per-row offsets
      -> each token -> its code in the pattern-token vocabulary
         (``pc.index_in``: token id + 1; 0 for a token no pattern uses)
      -> candidates = tokens with a code; for L = 2, 3, ... extend each by
         the next token of the same row and look (prefix id, token code)
         up in a sorted per-length table of pattern prefixes
         (``np.searchsorted``); a miss drops the candidate
      -> a prefix that spells a whole pattern is a (row, pattern) hit; a
         keyword listed under several tags emits each of its pattern ids
      -> one ``np.unique`` reduces to distinct (row, pattern id, count)
      -> (``tag_keyword_counts``) pattern ids resolve to (tag, keyword)
         pairs through a table built once per matcher; ids that resolve to
         the same pair fold into one hit

Pattern prefixes get dense ids one length at a time, so a lookup key stays
below (#prefixes x vocabulary size) for any pattern length; packing L ids
into one ``V**L`` integer would overflow int64 on long patterns over a large
vocabulary.  Cost is O(tokens) for the split and the id lookup plus
O(candidates x log K) per pattern length: the ontology size K enters only
through the lookup tables.  Kernel rate on one 2048-row batch of the
perfbench ``triples`` input (``perfbench/run.py --workload triples --seed N
--trace 1``, seeds 1-3, 4-CPU host, median of five runs), against the
general per-row path:

    K (keywords)      6           512         4096
    this kernel       91.4 MB/s   87.4 MB/s   50.4 MB/s
    general path      3.5 MB/s    3.6 MB/s    3.4 MB/s

Eligibility is per row (``isascii`` + alnum-and-space only + whole text is
one sentence) so mixed batches split into a vectorized majority and a
per-row remainder with identical semantics.  Because eligible rows are
single-space separated alnum words with no leading/trailing space, their
space-split tokens are exactly the tokenizer's tokens, and every run of
consecutive tokens equal to a pattern is a match — including overlapping
self-matches, which the all-matches mode counts.  Pattern tokens holding
punctuation or non-ASCII text are in the vocabulary but never occur in an
eligible row.  Lemma mode always takes the general path; category
(longest-match) mode is vectorizable only when no two patterns share a token
(overlaps impossible), checked at build time.  The fuzz suite
(tests/test_vector_match.py) pins the kernel equal to the per-row engine.

The count-style actors (triples, per-turn counts, per-turn tag rollups) need
(tag, keyword) occurrence counts per row but no character offsets.  They all
tag a batch through one function, ``TagActor._tag_keyword_counts``
(pipeline/tag.py): eligible rows come here whenever ``get_vectorized``
allows the matching mode, every other row goes through the per-row engine.
There is no switch to turn the kernel off; ``strict_reference`` runs the
reference per-row path everywhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .ontology import CompiledMatcher


class VectorizedExactMatcher:
    """Batch (pattern_id -> count) counting for eligible rows."""

    def __init__(self, matcher: CompiledMatcher):
        self.matcher = matcher
        cfg = matcher.config
        self.ignore_case = cfg.ignore_case
        # eligibility of the MODE (rows are checked separately):
        # - lemma mode rewrites tokens -> general path only
        # - category mode filters overlaps; safe to vectorize only if no
        #   token occurs in two patterns and no pattern repeats another's
        #   prefix (disjoint token sets make overlap impossible)
        self.mode_ok = not cfg.lemmatization and not cfg.strict_reference
        if matcher.has_category and self.mode_ok:
            seen: set = set()
            for toks in matcher.pattern_tokens:
                # a pattern with a repeated token can have a nontrivial
                # border and therefore self-overlap ("bye bye" in
                # "bye bye bye": the kernel counts 2, longest-wins keeps
                # 1) — such patterns force the general path
                if len(set(toks)) != len(toks):
                    self.mode_ok = False
                    break
                if any(t in seen for t in toks):
                    self.mode_ok = False
                    break
                seen.update(toks)
        # token text -> dense id over all pattern tokens
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

    # -- the kernel ---------------------------------------------------------

    def batch_hits(self, texts):
        """Per-batch distinct (row, pattern) hits as parallel numpy arrays
        ``(rows, pids, counts)``, sorted by pattern id then row — the
        fully-vectorized form downstream stages can consume without
        per-hit Python objects.  ``texts`` is an Arrow string column of
        eligible rows only."""
        n = len(texts)
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        if n == 0 or not len(self._node_pids):
            return empty

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
        # token codes, 0 for a token no pattern uses (null from index_in),
        # plus a 0 sentinel.  Read straight from the buffers: fill_null costs
        # 5x more once a good share of the tokens are pattern tokens.
        found = pc.index_in(toks, value_set=self._vocab)
        T, off = len(found), found.offset
        code = np.zeros(T + 1, dtype=np.int64)
        code[:-1] = np.frombuffer(found.buffers()[1], np.int32, T, off * 4)
        if found.null_count:
            valid = np.unpackbits(
                np.frombuffer(found.buffers()[0], np.uint8),
                count=off + T,
                bitorder="little",
            )
            code[:-1] *= valid[off:]
        # the code a match may extend into: none across a row start
        ext = code.copy()
        ext[offs[:-1]] = 0

        # candidate matches: (first token, prefix id so far)
        start = np.nonzero(code)[0]
        prefix = code[start]
        hit_starts: List[np.ndarray] = []
        hit_nodes: List[np.ndarray] = []
        for length in range(1, self._max_len + 1):
            if length > 1:
                # extend by the next token if it is a pattern token of the
                # same row and the pair is some pattern's prefix
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
        rows = np.searchsorted(offs, np.concatenate(hit_starts), side="right") - 1
        nodes = np.concatenate(hit_nodes)
        # a node listed under several pattern ids emits each of them
        cnt = self._node_npids[nodes]
        rows = np.repeat(rows, cnt)
        within = np.arange(len(rows)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        pids = self._node_pids[np.repeat(self._node_first[nodes], cnt) + within]
        uniq, counts = np.unique(pids * n + rows, return_counts=True)
        return uniq % n, uniq // n, counts.astype(np.int64)

    def tag_keyword_counts(self, texts):
        """Distinct (row, tag, keyword) hits of the eligible rows ``texts``
        as ``(rows, tags, keywords, counts)``: numpy row indices and counts,
        Arrow string tags and keywords.  Pattern ids resolve to their
        (tag, keyword) pair as the per-row path resolves a mention; pattern
        ids that resolve to the same pair (a keyword listed under two tags
        without categories) fold into one hit whose count is their sum."""
        rows, tk, counts = self.batch_hits(texts)  # tk == pid when no folds
        if len(self._tk_tags) < len(self._tk_of_pid):
            n = len(texts)
            uniq, inv = np.unique(self._tk_of_pid[tk] * n + rows, return_inverse=True)
            rows, tk = uniq % n, uniq // n
            counts = np.bincount(inv, weights=counts).astype(np.int64)
        take = pa.array(tk, type=pa.int64())
        return rows, self._tk_tags.take(take), self._tk_keywords.take(take), counts

def get_vectorized(matcher: CompiledMatcher) -> Optional[VectorizedExactMatcher]:
    """Build (and cache on the matcher) the vectorized kernel; None when the
    matching mode can't be vectorized."""
    vm = getattr(matcher, "_vectorized", None)
    if vm is None:
        vm = VectorizedExactMatcher(matcher)
        matcher._vectorized = vm  # type: ignore[attr-defined]
    return vm if vm.mode_ok else None
