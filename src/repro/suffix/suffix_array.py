"""The string index: suffix array + LCP over a multi-sequence text.

Sequences are concatenated with *unique* per-sequence sentinel symbols
(values ``ALPHABET_SIZE + seq_index``), so no longest-common-prefix can
ever span a sequence boundary — two distinct sentinels never compare
equal.  This gives the enhanced-suffix-array equivalent of a generalized
suffix tree without per-string bookkeeping.

Construction is array passes only: the prefix-doubling sort (one
``argsort`` of a single int64 key per round + vectorised rank
assignment, O(N log^2 N) with tiny constants) and an LCP that compares
all adjacent suffix pairs one text column at a time.

The sentinels also make the index of a *sub-collection* a filter of the
full one: a suffix's rank depends only on the suffix up to its own
sentinel and on the sentinels' relative order, and an LCP never crosses
one — so dropping whole sequences drops slots and changes nothing else.
That is why one index serves every phase of a run, each reading the
match stream masked to its sub-collection
(:class:`~repro.suffix.matches.MaximalMatchFinder`'s ``labels``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.sequence.alphabet import ALPHABET_SIZE


def suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array of an integer text via vectorised prefix doubling.

    Returns the permutation ``sa`` with ``text[sa[0]:] < text[sa[1]:] < ...``
    in lexicographic order.  Ranks are dense (``0 .. n-1``), so a round
    sorts the one key ``rank * (n + 1) + next`` of each suffix, where
    ``next`` is the rank ``k`` symbols on plus one, and 0 past the end —
    "shorter is smaller".  The round of ``k`` ranks every suffix by its
    first ``2k`` symbols, so by the round where ``2k >= n`` every two
    suffixes have been compared over their full length and all ranks
    differ: the loop always ends on distinct ranks.
    """
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    rank = np.unique(text, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key)
        ranked = key[order]
        rank[order] = np.cumsum(np.append(0, ranked[1:] != ranked[:-1]))
        if rank[order[-1]] == n - 1:
            return order
        k *= 2


def lcp_array(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array: ``lcp[i]`` is the length of the longest common prefix
    of suffixes ``sa[i-1]`` and ``sa[i]``; ``lcp[0] = 0``.

    All adjacent pairs are compared one column at a time and a pair
    leaves at its first mismatch, so the passes number the longest LCP
    + 1 and their total width is ``N + sum(lcp)``.  The -1 appended (as
    :func:`suffix_array` pads ranks) gives the longer suffix of a pair a
    column to mismatch on when the shorter one runs out.
    """
    text = np.asarray(text, dtype=np.int64)
    lcp = np.zeros(len(text), dtype=np.int64)
    padded = np.append(text, -1)
    slot = np.arange(1, len(text))
    a, b = sa[:-1], sa[1:]
    column = 0
    while len(slot):
        same = padded[a + column] == padded[b + column]
        lcp[slot[~same]] = column
        slot, a, b = slot[same], a[same], b[same]
        column += 1
    return lcp


class GeneralizedSuffixArray:
    """Suffix array + LCP over a collection of encoded sequences.

    ``text`` / ``starts`` describe the concatenation (``starts[k]`` is
    the global offset of sequence k; one sentinel follows each), ``sa``
    / ``lcp`` index it, and ``seq`` / ``off`` say, per SA slot, which
    sequence the suffix lies in and where.  Sentinel-starting suffixes
    are retained (they sort uniquely and contribute no matches) so index
    arithmetic stays trivial.  All six are int64.
    """

    def __init__(self, sequences: Sequence[np.ndarray]):
        parts: list[np.ndarray] = []
        for idx, seq in enumerate(sequences):
            arr = np.asarray(seq, dtype=np.int64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"sequence {idx} must be non-empty 1-D")
            if arr.max() >= ALPHABET_SIZE or arr.min() < 0:
                raise ValueError(f"sequence {idx} contains non-residue symbols")
            parts += [arr, np.array([ALPHABET_SIZE + idx], dtype=np.int64)]
        # No sequence is a collection too: six empty arrays, no match.
        self.text = np.concatenate([np.empty(0, dtype=np.int64), *parts])
        lengths = np.array([len(arr) + 1 for arr in parts[::2]], dtype=np.int64)
        self.starts = np.append(0, np.cumsum(lengths))
        with obs.span("index.build", cat="master", sequences=len(sequences),
                      symbols=len(self.text)):
            obs.count("suffix.index_builds")
            self.sa = suffix_array(self.text)
            self.lcp = lcp_array(self.text, self.sa)
            self.seq = np.searchsorted(self.starts, self.sa, side="right") - 1
            self.off = self.sa - self.starts[self.seq]

    @property
    def n_sequences(self) -> int:
        return len(self.starts) - 1
