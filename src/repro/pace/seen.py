"""The seen-pair map of the masters that only deduplicate (RR, B_d).

A set of the pairs ``a < b`` of ``n`` items as a triangular bit map, bit
``b(b - 1)/2 + a``: ``n(n - 1)/16`` bytes — 16 KB at 500 items and
2.2 MB at 6,000, but 625 MB at 100,000, so quadratic in ``n`` where a
set of the admitted pairs grows with the pairs.  RR keeps one over the
``n`` sequences; bipartite generation one per component over its local
indices.
"""

from __future__ import annotations

import numpy as np


class SeenPairs:
    """Pairs ``a < b`` of ``n`` items, added a column block at a time."""

    def __init__(self, n: int):
        self._bits = np.zeros((n * (n - 1) // 2 + 7) // 8, dtype=np.uint8)
        self.size = 0

    def add(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add the pairs ``(a[r], b[r])``, ``a < b``; returns those not in
        the map before, first sightings only, as columns in the order
        given — what a set of seen pairs lets through row by row."""
        keys, first = np.unique(b * (b - 1) // 2 + a, return_index=True)
        byte = keys >> 3
        bit = np.left_shift(1, keys & 7).astype(np.uint8)
        fresh = (self._bits[byte] & bit) == 0
        byte, bit, rows = byte[fresh], bit[fresh], np.sort(first[fresh])
        if len(rows):
            # Keys ascend, so the bits of one byte are one run.
            runs = np.flatnonzero(np.diff(byte, prepend=-1))
            self._bits[byte[runs]] |= np.bitwise_or.reduceat(bit, runs)
            self.size += len(rows)
        return a[rows], b[rows]
