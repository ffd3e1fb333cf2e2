"""k-mer seeding prefilter — the stand-in for BLAST's word heuristic.

The GOS baseline (Section II) runs BLASTP all-versus-all.  BLAST's first
stage is word seeding: only pairs sharing a fixed-length word proceed to
alignment.  :class:`KmerPrefilter` implements that stage over encoded
sequences so the baseline's pair shortlist matches BLAST's behaviour
without the proprietary binary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.sequence.alphabet import ALPHABET_SIZE


def kmer_codes(seq: np.ndarray, k: int) -> np.ndarray:
    """Pack every k-mer of ``seq`` into one integer code, vectorised.

    Codes are base-20 polynomial rollups; for k <= 13 they fit in int64.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > 13:
        raise ValueError(f"k={k} overflows the int64 packing (max 13)")
    arr = np.asarray(seq, dtype=np.int64)
    if len(arr) < k:
        return np.empty(0, dtype=np.int64)
    weights = ALPHABET_SIZE ** np.arange(k - 1, -1, -1, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    return windows @ weights


class KmerPrefilter:
    """Inverted k-mer index over a sequence collection.

    Build once, then stream candidate pairs that share at least
    ``min_shared`` distinct k-mers.  Pairs are emitted with ``i < j`` and
    each pair exactly once.
    """

    def __init__(self, k: int = 4, min_shared: int = 1):
        if min_shared < 1:
            raise ValueError(f"min_shared must be >= 1, got {min_shared}")
        self.k = k
        self.min_shared = min_shared
        self._postings: dict[int, list[int]] = defaultdict(list)
        self._n = 0

    def add(self, seq: np.ndarray) -> int:
        """Index a sequence; returns its assigned index."""
        idx = self._n
        self._n += 1
        for code in np.unique(kmer_codes(seq, self.k)):
            self._postings[int(code)].append(idx)
        return idx

    def candidate_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield each (i, j), i < j, sharing >= min_shared distinct k-mers."""
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for posting in self._postings.values():
            if len(posting) < 2:
                continue
            for x in range(len(posting)):
                for y in range(x + 1, len(posting)):
                    counts[(posting[x], posting[y])] += 1
        for pair, count in counts.items():
            if count >= self.min_shared:
                yield pair

    def __len__(self) -> int:
        return self._n
