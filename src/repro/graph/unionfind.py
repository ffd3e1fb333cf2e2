"""Disjoint-set (union-find) with union by rank and path compression.

The paper's master processor maintains clusters with this structure
(citing Tarjan [29]) for near-constant-time ``find``/``union`` — the
transitive-closure filter that discards >99.9% of promising pairs is a
pair of ``find`` calls.  The Shingle algorithm's final dense-subgraph
enumeration has all of its edges at once and takes the array form,
:func:`connected_labels`.
"""

from __future__ import annotations

import numpy as np


def _roots(parent: np.ndarray) -> np.ndarray:
    """The root of every node of a parent-pointer forest, by pointer
    jumping: ``parent = parent[parent]`` halves every path per round."""
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            return parent
        parent = jumped


def connected_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes ``0..n-1`` with edges
    ``a[i] -- b[i]``: ``labels[x]`` is the smallest node of x's component.

    Every round hooks, for each edge joining two trees, the larger root
    under the smallest root such an edge offers it, then flattens;
    parents only point at smaller nodes, so it stays a forest, and a
    round that hooks nothing has one tree per component.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        joins = la != lb
        if not joins.any():
            return label
        lo, hi = np.minimum(la, lb)[joins], np.maximum(la, lb)[joins]
        np.minimum.at(label, hi, lo)
        label = _roots(label)


class UnionFind:
    """Array-backed union-find over the integers ``0..n-1``.

    ``n`` may grow on demand via :meth:`ensure`.  Operations are
    amortised inverse-Ackermann.  :meth:`merge_count` tracks how many
    unions actually merged two distinct sets, which the clustering phase
    reports as its progress metric.
    """

    def __init__(self, n: int = 0):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._parent = list(range(n))
        self._rank = [0] * n
        self.merge_count = 0

    def __len__(self) -> int:
        return len(self._parent)

    def copy(self) -> "UnionFind":
        """An independent union–find over the same partition."""
        other = UnionFind()
        other._parent, other._rank = list(self._parent), list(self._rank)
        other.merge_count = self.merge_count
        return other

    def ensure(self, n: int) -> None:
        """Grow the universe to at least ``n`` elements (amortised O(1))."""
        current = len(self._parent)
        if n > current:
            self._parent.extend(range(current, n))
            self._rank.extend([0] * (n - current))

    def find(self, x: int) -> int:
        """Representative of x's set, with path halving."""
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def root(self, x: int) -> int:
        """Representative of x's set, *without* path halving.

        :meth:`find` writes parent pointers as a side effect, which
        makes it a mutation even for pure queries.  Lock-free readers
        (the serve planner walks the structure while only holding it
        stable against unions, not against other finds) use this
        compression-free walk instead.
        """
        parent = self._parent
        while parent[x] != x:
            x = parent[x]
        return x

    def labels(self) -> np.ndarray:
        """:meth:`root` of every element at once, as an array — a
        snapshot of the partition for bulk ``labels[a] == labels[b]``
        tests.  Read-only like :meth:`root`: the parents are copied and
        the copy is pointer-jumped (``label = label[label]`` halves
        every path, so union by rank needs O(log log n) rounds)."""
        return _roots(np.array(self._parent, dtype=np.int64))

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; returns True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        self.merge_count += 1
        return True

    def same(self, x: int, y: int) -> bool:
        """True if x and y are currently in the same set."""
        return self.find(x) == self.find(y)

    def groups(self) -> dict[int, list[int]]:
        """Map representative -> sorted members, for all elements."""
        out: dict[int, list[int]] = {}
        for x in range(len(self._parent)):
            out.setdefault(self.find(x), []).append(x)
        return out
