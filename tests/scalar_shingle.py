"""The dict-and-union-find Shingle loop, kept as the reference for the
tuple-column statement.

This is ``repro.shingle.algorithm.shingle_dense_subgraphs`` as it ran
before it was restated as passes over ``<shingle, vertex>`` columns: a
Python loop per left vertex into ``dict.setdefault`` lists, a second
loop per first-level shingle, and a :class:`KeyedUnionFind` over the
64-bit shingle hashes that links shingles sharing a second-level
shingle or a vertex; each shingle is drawn one set and one permutation
at a time by :func:`min_sample`.  It *defines* every
:class:`DenseSubgraph` and every :class:`ShingleResult` field, so
``test_shingle_oracle.py`` holds the column passes to it field for
field.  ``KeyedUnionFind`` left
``repro.graph.unionfind`` with the loop and lives here, verbatim, with
its own tests still in ``test_graph.py`` / ``test_properties.py``.

The scalar definitions the hashing kernels are held to left
``repro.util.hashing`` the same way, once nothing under ``src/`` called
them: :func:`hash_int_tuple` (one row of ``hash_rows``),
:func:`min_sample` (one member's shingle of one set) and
:func:`min_samples_matrix` (every member's, through the draw kernel's
rank table and slab cut); ``test_hashing.py`` and ``test_properties.py``
state the kernels against them.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.graph.unionfind import UnionFind
from repro.shingle.algorithm import DenseSubgraph, ShingleParams, ShingleResult
from repro.util.hashing import (
    _MASK64,
    UniversalHashFamily,
    _ranks,
    _slab,
    hash_rows,
    splitmix64,
)


def hash_int_tuple(values: Iterable[int], *, seed: int = 0) -> int:
    """Stable 64-bit hash of a tuple of non-negative integers.

    The Shingle algorithm maps each *s*-element shingle (a sorted tuple of
    vertex ids) to a single integer with this function.
    """
    h = splitmix64(seed ^ 0xA076_1D64_78BD_642F)
    for v in values:
        h = splitmix64(h ^ (v & _MASK64))
    return h


def min_sample(family: UniversalHashFamily, k: int,
               values: Sequence[int] | np.ndarray, s: int) -> tuple[int, ...]:
    """Return the ``s`` values whose ``h_k`` images are smallest.

    This is one *shingle*: an s-element subset of ``values`` selected
    by the k-th min-wise permutation.  Ties break on the pre-image for
    determinism.  The tuple is sorted by original value so equal
    subsets compare equal.
    """
    x = np.asarray(values, dtype=np.uint64)
    if len(x) < s:
        raise ValueError(f"cannot draw {s}-element shingle from {len(x)} values")
    hashed = family.apply_all(x)[k]
    order = np.lexsort((x, hashed))
    picked = x[order[:s]]
    return tuple(sorted(int(v) for v in picked))


def min_samples_matrix(family: UniversalHashFamily,
                       values: Sequence[int] | np.ndarray, s: int) -> np.ndarray:
    """All ``count`` shingles of one set of distinct ``values``: a ``(count, s)``
    uint64 matrix, row ``k`` equal to ``min_sample(k, values, s)``."""
    x = np.asarray(values, dtype=np.uint64)
    if len(x) < s:
        raise ValueError(f"cannot draw {s}-element shingle from {len(x)} values")
    universe, member = np.unique(x, return_inverse=True)
    order = np.argsort(family.apply_all(universe), axis=1)
    one = np.zeros(1, dtype=np.int64), np.array([len(x)])
    return universe[_slab(_ranks(order), order, np.append(member, len(universe)), *one, s)[0]]


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


def scalar_samples(family: UniversalHashFamily, values: np.ndarray, s: int) -> np.ndarray:
    """Every member's shingle of ``values`` by the scalar definition,
    ``min_sample`` — not by the batched draw the column passes use."""
    rows = [min_sample(family, k, values, s) for k in range(family.count)]
    return np.array(rows, dtype=np.uint64).reshape(family.count, s)


def scalar_shingle_dense_subgraphs(
    graph: BipartiteGraph,
    params: ShingleParams | None = None,
    *,
    min_size: int = 1,
    expand_b: bool = True,
) -> ShingleResult:
    """Run the two-pass Shingle algorithm on a bipartite graph.

    Parameters
    ----------
    graph:
        The bipartite input; ``gamma(v)`` supplies out-links per left
        vertex.
    params:
        ``(s1, c1, s2, c2)`` and the permutation seed.
    min_size:
        Report only subgraphs with ``|A| >= min_size`` (the paper uses 5).
    expand_b:
        If True (default), ``right`` is the union of ``Gamma(v)`` over
        ``v in A`` — the subgraph's actual right-side neighbourhood, which
        the A~=B test of the global-similarity reduction needs.  If
        False, ``right`` equals ``right_sampled``.

    Returns a :class:`ShingleResult`; subgraphs are sorted by descending
    size then by smallest left label for determinism.
    """
    if params is None:
        params = ShingleParams()
    family1 = UniversalHashFamily(params.c1, seed=params.seed)
    family2 = UniversalHashFamily(params.c2, seed=params.seed + 1)

    result = ShingleResult(subgraphs=[], parameters=params)

    # ------------------------------------------------------------- Pass I
    # shingle hash -> vertices of Vl that produced it
    first_level: dict[int, list[int]] = {}
    # shingle hash -> the s1-subset of Vr it denotes (for B reporting)
    shingle_elements: dict[int, tuple[int, ...]] = {}
    for v in range(graph.n_left):
        gamma = graph.gamma(v)
        if len(gamma) < params.s1:
            result.skipped_low_degree += 1
            continue
        rows = scalar_samples(family1, gamma, params.s1)
        hashes = hash_rows(rows, seed=params.seed)
        # Dedupe identical samples drawn by different permutations.
        uniq, first_idx = np.unique(hashes, return_index=True)
        for h, idx in zip(uniq.tolist(), first_idx.tolist()):
            first_level.setdefault(h, []).append(v)
            if h not in shingle_elements:
                shingle_elements[h] = tuple(int(u) for u in rows[idx])
            result.n_tuples_pass1 += 1
    result.n_first_level_shingles = len(first_level)
    # Peak memory proxy: every <shingle, v> tuple is two 8-byte words.
    result.peak_tuple_bytes = 16 * result.n_tuples_pass1

    # ------------------------------------------------------------ Pass II
    uf = KeyedUnionFind()
    for h in first_level:
        uf.add(h)
    second_level: dict[int, list[int]] = {}
    for h, vertices in first_level.items():
        arr = np.asarray(sorted(set(vertices)), dtype=np.uint64)
        if len(arr) < params.s2:
            # Too few vertices to sample: still link all its vertices via
            # the shingle itself (handled in reporting), no second pass.
            continue
        rows2 = scalar_samples(family2, arr, params.s2)
        hashes2 = np.unique(hash_rows(rows2, seed=params.seed + 1))
        for h2 in hashes2.tolist():
            second_level.setdefault(h2, []).append(h)
            result.n_tuples_pass2 += 1
    result.n_second_level_shingles = len(second_level)
    result.peak_tuple_bytes = max(
        result.peak_tuple_bytes, 16 * result.n_tuples_pass2
    )

    # Union first-level shingles sharing a second-level shingle.
    for shingles in second_level.values():
        for other in shingles[1:]:
            uf.union(shingles[0], other)

    # Additionally, first-level shingles sharing a *vertex* belong to the
    # same subgraph (the vertex's whole shingle set describes one A-side
    # vertex); group them so A-side membership is transitive.
    by_vertex: dict[int, int] = {}
    for h, vertices in first_level.items():
        for v in vertices:
            if v in by_vertex:
                uf.union(by_vertex[v], h)
            else:
                by_vertex[v] = h

    # --------------------------------------------------------- Reporting
    for component in uf.groups():
        members: set[int] = set()
        sampled: set[int] = set()
        for h in component:
            members.update(first_level[h])
            sampled.update(shingle_elements[h])
        if len(members) < min_size:
            continue
        if expand_b:
            right: set[int] = set()
            for v in members:
                right.update(int(u) for u in graph.gamma(v))
        else:
            right = sampled
        left_labels = tuple(sorted(graph.left_labels[v] for v in members))
        right_labels = tuple(sorted(graph.right_labels[u] for u in right))
        sampled_labels = tuple(sorted(graph.right_labels[u] for u in sampled))
        result.subgraphs.append(
            DenseSubgraph(left=left_labels, right=right_labels, right_sampled=sampled_labels)
        )
    result.subgraphs.sort(key=lambda sg: (-sg.size, sg.left[:1]))
    obs.count("dsd.first_shingles", result.n_first_level_shingles)
    obs.count("dsd.second_shingles", result.n_second_level_shingles)
    obs.count("dsd.tuples_pass1", result.n_tuples_pass1)
    obs.count("dsd.tuples_pass2", result.n_tuples_pass2)
    obs.count("dsd.skipped_low_degree", result.skipped_low_degree)
    return result
