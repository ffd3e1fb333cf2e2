"""Disjoint-set (union-find) with union by rank and path compression.

The paper's master processor maintains clusters with this structure
(citing Tarjan [29]) for near-constant-time ``find``/``union`` — the
transitive-closure filter that discards >99.9% of promising pairs is a
pair of ``find`` calls.  The same structure also powers the Shingle
algorithm's final dense-subgraph enumeration.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np


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
        label = np.array(self._parent, dtype=np.int64)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                return label
            label = jumped

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

    def n_sets(self) -> int:
        """Number of disjoint sets."""
        parent = self._parent
        return sum(1 for x, p in enumerate(parent) if x == p)


class KeyedUnionFind:
    """Union-find over arbitrary hashable keys (used by the Shingle pass,
    where elements are 64-bit shingle hashes rather than dense indices)."""

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []
        self._uf = UnionFind()

    def _intern(self, key: Hashable) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = len(self._keys)
            self._index[key] = idx
            self._keys.append(key)
            self._uf.ensure(idx + 1)
        return idx

    def union(self, a: Hashable, b: Hashable) -> bool:
        return self._uf.union(self._intern(a), self._intern(b))

    def add(self, key: Hashable) -> None:
        self._intern(key)

    def same(self, a: Hashable, b: Hashable) -> bool:
        if a not in self._index or b not in self._index:
            return False
        return self._uf.same(self._index[a], self._index[b])

    def groups(self) -> list[list[Hashable]]:
        """All disjoint sets as lists of original keys."""
        by_root: dict[int, list[Hashable]] = {}
        for key, idx in self._index.items():
            by_root.setdefault(self._uf.find(idx), []).append(key)
        return list(by_root.values())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)


def connected_components_from_edges(
    n: int, edges: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Connected components of an n-vertex graph given an edge stream."""
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    return sorted(uf.groups().values(), key=len, reverse=True)
