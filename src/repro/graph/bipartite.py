"""Bipartite graph model and the paper's two reductions (Section III).

* :func:`duplicate_bipartite` — the **global-similarity** reduction B_d:
  every vertex of an undirected similarity graph G is duplicated on both
  sides, and each undirected edge (i, j) yields directed incidences
  (i -> j) and (j -> i).  Dense subgraphs of G become dense bipartite
  subgraphs of B_d with A ~= B.
* :func:`wmer_bipartite` — the **domain-based** reduction B_m: the left
  side is the set of shared w-mers, the right side the sequences, and a
  w-mer links to every sequence containing it.

Both produce a :class:`BipartiteGraph`, the structure the Shingle
algorithm consumes (out-link sets Gamma(v) for every left vertex).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.suffix.wmer import WmerIndex


class BipartiteGraph:
    """Adjacency-list bipartite graph B = (V_l, V_r, E).

    Left vertices are ``0..n_left-1``, right vertices ``0..n_right-1``
    (separate id spaces).  ``gamma(v)`` is the sorted out-link array of
    left vertex v — the Shingle algorithm's Gamma(v).

    ``left_labels`` / ``right_labels`` map local vertex ids back to the
    caller's domain (sequence indices, w-mer codes); they default to the
    identity.
    """

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int]],
        *,
        left_labels: Sequence[int] | None = None,
        right_labels: Sequence[int] | None = None,
    ):
        if n_left < 0 or n_right < 0:
            raise ValueError("vertex counts must be non-negative")
        self.n_left = n_left
        self.n_right = n_right
        adjacency: list[list[int]] = [[] for _ in range(n_left)]
        n_edges = 0
        for left, right in edges:
            if not 0 <= left < n_left:
                raise ValueError(f"left vertex {left} out of range [0, {n_left})")
            if not 0 <= right < n_right:
                raise ValueError(f"right vertex {right} out of range [0, {n_right})")
            adjacency[left].append(right)
            n_edges += 1
        self._gamma: list[np.ndarray] = [
            np.unique(np.asarray(links, dtype=np.int64)) for links in adjacency
        ]
        self.n_edges = n_edges
        self.left_labels = (
            list(left_labels) if left_labels is not None else list(range(n_left))
        )
        self.right_labels = (
            list(right_labels) if right_labels is not None else list(range(n_right))
        )
        if len(self.left_labels) != n_left:
            raise ValueError("left_labels length mismatch")
        if len(self.right_labels) != n_right:
            raise ValueError("right_labels length mismatch")

    def gamma(self, left_vertex: int) -> np.ndarray:
        """Sorted distinct out-links of a left vertex."""
        return self._gamma[left_vertex]

    def out_degree(self, left_vertex: int) -> int:
        return len(self._gamma[left_vertex])

    def memory_bytes(self) -> int:
        """Adjacency storage footprint — the quantity the paper budgets
        against a 512 MB node (up to ~16K total vertices per component)."""
        return sum(g.nbytes for g in self._gamma)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BipartiteGraph(|Vl|={self.n_left}, |Vr|={self.n_right}, "
            f"|E|={self.n_edges})"
        )


def duplicate_bipartite(
    n: int,
    edges: Iterable[tuple[int, int]],
    *,
    labels: Sequence[int] | None = None,
    include_self_loop: bool = True,
) -> BipartiteGraph:
    """Global-similarity reduction B_d of an undirected graph G(V, E).

    ``|Vl| = |Vr| = n`` and each undirected edge (i, j) contributes
    (i -> j) and (j -> i).  With ``include_self_loop`` every vertex also
    links to its own duplicate — each sequence trivially belongs to its
    own family, and the self-link makes Gamma(v) of a clique member equal
    the full clique, sharpening the A ~= B signal.
    """
    directed: list[tuple[int, int]] = []
    for i, j in edges:
        if i == j:
            continue
        directed.append((i, j))
        directed.append((j, i))
    if include_self_loop:
        directed.extend((v, v) for v in range(n))
    return BipartiteGraph(
        n, n, directed, left_labels=labels, right_labels=labels
    )


def wmer_bipartite(
    sequences: Sequence[np.ndarray],
    *,
    w: int = 10,
    min_sequences: int = 2,
    sequence_labels: Sequence[int] | None = None,
) -> BipartiteGraph:
    """Domain-based reduction B_m over encoded sequences.

    Left vertices are the w-mers shared by >= min_sequences sequences
    (labelled by packed w-mer code); right vertices the sequences.
    """
    index = WmerIndex(sequences, w=w, min_sequences=min_sequences)
    return BipartiteGraph(
        index.n_wmers,
        len(sequences),
        index.edges(),
        left_labels=[int(c) for c in index.codes],
        right_labels=sequence_labels,
    )
