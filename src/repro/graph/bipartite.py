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


def _edge_rows(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array of ``(left, right)`` rows."""
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


class BipartiteGraph:
    """Bipartite graph B = (V_l, V_r, E) as CSR columns.

    Left vertices are ``0..n_left-1``, right vertices ``0..n_right-1``
    (separate id spaces).  ``targets[offsets[v]:offsets[v + 1]]`` is
    ``gamma(v)``, the sorted distinct out-links of left vertex v — the
    Shingle algorithm's Gamma(v); both columns are int64, built by one
    lexsort of the edge rows with repeats dropped.  ``n_edges`` counts
    the rows given, repeats included.

    ``left_labels`` / ``right_labels`` map local vertex ids back to the
    caller's domain (sequence indices, w-mer codes); they default to the
    identity.
    """

    def __init__(
        self,
        n_left: int,
        n_right: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        *,
        left_labels: Sequence[int] | None = None,
        right_labels: Sequence[int] | None = None,
    ):
        if n_left < 0 or n_right < 0:
            raise ValueError("vertex counts must be non-negative")
        self.n_left = n_left
        self.n_right = n_right
        rows = _edge_rows(edges)
        for side, column, n in (("left", rows[:, 0], n_left), ("right", rows[:, 1], n_right)):
            outside = (column < 0) | (column >= n)
            if outside.any():
                raise ValueError(
                    f"{side} vertex {column[outside][0]} out of range [0, {n})"
                )
        left, right = rows[np.lexsort((rows[:, 1], rows[:, 0]))].T
        first = np.ones(len(left), dtype=bool)
        first[1:] = (left[1:] != left[:-1]) | (right[1:] != right[:-1])
        self.targets = right[first]
        self.offsets = np.searchsorted(left[first], np.arange(n_left + 1)).astype(np.int64)
        self.n_edges = len(rows)
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
        return self.targets[self.offsets[left_vertex] : self.offsets[left_vertex + 1]]

    def out_degree(self, left_vertex: int) -> int:
        return int(self.offsets[left_vertex + 1] - self.offsets[left_vertex])

    def memory_bytes(self) -> int:
        """Adjacency storage footprint — the quantity the paper budgets
        against a 512 MB node (up to ~16K total vertices per component):
        8 bytes per distinct edge."""
        return self.targets.nbytes

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
) -> BipartiteGraph:
    """Global-similarity reduction B_d of an undirected graph G(V, E).

    ``|Vl| = |Vr| = n`` and each undirected edge (i, j) contributes
    (i -> j) and (j -> i).  Every vertex also links to its own
    duplicate — each sequence trivially belongs to its own family, and
    the self-link makes Gamma(v) of a clique member equal the full
    clique, sharpening the A ~= B signal; so v's degree in G is
    ``out_degree(v) - 1``.  Self edges in ``edges`` are dropped.
    """
    rows = _edge_rows(edges)
    rows = rows[rows[:, 0] != rows[:, 1]]
    loops = np.repeat(np.arange(n, dtype=np.int64), 2).reshape(-1, 2)
    return BipartiteGraph(n, n, np.concatenate([rows, rows[:, ::-1], loops]),
                          left_labels=labels, right_labels=labels)


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
        index.incidence,
        left_labels=index.codes.tolist(),
        right_labels=sequence_labels,
    )
