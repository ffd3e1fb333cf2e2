"""The seen-pair map of the masters that only deduplicate (RR, B_d).

A set of the pairs ``a < b`` of ``n`` items as a triangular bit map, bit
``b(b - 1)/2 + a``: ``n(n - 1)/16`` bytes — 16 KB at 500 items and
2.2 MB at 6,000, but 625 MB at 100,000, so quadratic in ``n`` where a
set of the admitted pairs grows with the pairs.  The items may come in
groups, a pair lying inside one, each group a triangle of its own after
the ones before it.  RR keeps one group of the ``n`` sequences;
bipartite generation a group per component, over its local indices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class SeenPairs:
    """Pairs ``a < b`` inside groups of ``sizes[g]`` items, added a
    column block at a time."""

    def __init__(self, sizes: Sequence[int]):
        triangles = np.asarray(sizes, dtype=np.int64)
        triangles = triangles * (triangles - 1) // 2
        self._base = np.cumsum(triangles) - triangles
        self._bits = np.zeros((int(triangles.sum()) + 7) // 8, dtype=np.uint8)
        self.size = 0

    def add(self, a: np.ndarray, b: np.ndarray, group: np.ndarray | int = 0) -> np.ndarray:
        """Add the pairs ``(a[r], b[r])``, ``a < b``, of group
        ``group[r]`` (or one group for all); returns the rows ``r`` of
        those not in the map before, first sightings only, ascending —
        what a set of seen pairs lets through row by row."""
        keys, first = np.unique(self._base[group] + b * (b - 1) // 2 + a, return_index=True)
        byte = keys >> 3
        bit = np.left_shift(1, keys & 7).astype(np.uint8)
        fresh = (self._bits[byte] & bit) == 0
        byte, bit, rows = byte[fresh], bit[fresh], np.sort(first[fresh])
        if len(rows):
            # Keys ascend, so the bits of one byte are one run.
            runs = np.flatnonzero(np.diff(byte, prepend=-1))
            self._bits[byte[runs]] |= np.bitwise_or.reduceat(bit, runs)
            self.size += len(rows)
        return rows
