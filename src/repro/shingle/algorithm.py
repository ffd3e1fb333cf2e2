"""The two-pass Shingle algorithm (Gibson, Kumar & Tomkins, VLDB 2005)
as adapted by the paper for protein-family dense subgraphs, stated as
passes over a ``<shingle, vertex>`` tuple file held as NumPy columns.

Pass I (:func:`pass_one`)
    For every left vertex ``v`` with ``|Gamma(v)| >= s1``, draw an
    ``(s1, c1)``-shingle set: ``c1`` min-wise permutation samples of
    ``Gamma(v)``, each an ``s1``-subset hashed to one 64-bit integer.
    Emit one ``<shingle, v>`` tuple per distinct shingle of ``v``.

Pass II (:func:`pass_two`)
    Reverse direction: sorted by shingle, the file gives each first-level
    shingle the run of left vertices that produced it; draw an
    ``(s2, c2)``-shingle set of that run, emitting ``<second-level
    shingle, first-level shingle>`` tuples.

Reporting (:func:`report`)
    The two files are the edge list of one graph on left vertices and
    first- and second-level shingles, and each connected component is a
    dense subgraph: ``A`` = its left vertices, ``B`` = the union of its
    first-level shingles' element sets, optionally expanded to the full
    out-link union (see ``expand_b``).

Parameter effects (Section IV-D): smaller ``s`` raises the chance two
vertices share a shingle (catches sparser subgraphs); larger ``c`` draws
more permutations (catches larger subgraphs, costs linearly more time —
the Figure 7b sweep).  ``tests/scalar_shingle.py`` keeps the
dict-and-union-find loop this replaced as the field-for-field oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
from repro.graph.bipartite import BipartiteGraph
from repro.graph.unionfind import connected_labels
from repro.util.hashing import UniversalHashFamily


@dataclass(frozen=True)
class ShingleParams:
    """Shingle algorithm parameters ``(s1, c1)`` / ``(s2, c2)``.

    The paper's fine-tuned setting is ``(s, c) = (5, 300)`` for the first
    pass; the second pass traditionally uses a smaller sample count.
    """

    s1: int = 5
    c1: int = 300
    s2: int = 5
    c2: int = 100
    seed: int = 2008

    def __post_init__(self) -> None:
        for name in ("s1", "c1", "s2", "c2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class DenseSubgraph:
    """One reported dense bipartite subgraph.

    ``left`` / ``right`` are *labels* (the caller's vertex names — e.g.
    global sequence indices for B_d, packed w-mer codes on the left for
    B_m).  ``right_sampled`` is the subset of ``right`` directly
    evidenced by first-level shingles.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    right_sampled: tuple[int, ...]

    @property
    def size(self) -> int:
        """Vertex count of A (the paper's dense-subgraph size for B_d)."""
        return len(self.left)


@dataclass
class ShingleResult:
    """Output of one Shingle run plus instrumentation counters."""

    subgraphs: list[DenseSubgraph]
    n_first_level_shingles: int = 0
    n_second_level_shingles: int = 0
    n_tuples_pass1: int = 0
    n_tuples_pass2: int = 0
    skipped_low_degree: int = 0
    peak_tuple_bytes: int = 0
    parameters: ShingleParams = field(default_factory=ShingleParams)


def _draw(c: int, s: int, seed: int, offsets: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """One pass's draw over the sets ``values[offsets[i] : offsets[i + 1]]``:
    ``[owner set, shingle, elements]`` rows, and the work it took, counted."""
    *columns, drawn, hashes = UniversalHashFamily(c, seed=seed).draw(offsets, values, s)
    obs.count("dsd.sets", int(np.count_nonzero(np.diff(offsets) >= s)))
    obs.count("dsd.sets_drawn", drawn)
    obs.count("dsd.hashes", hashes)
    return columns


def pass_one(
    graph: BipartiteGraph, vertices: Iterable[int], params: ShingleParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass I over ``vertices``: the ``<shingle, vertex>`` tuples as two
    columns (uint64, int64) plus, row for row, the ``s1`` right vertices
    each shingle denotes (for reporting B).  Vertices with fewer than
    ``s1`` out-links emit nothing."""
    ids = np.fromiter(vertices, dtype=np.int64)
    start, degree = graph.offsets[ids], np.diff(graph.offsets)[ids]
    offsets = np.concatenate([[0], np.cumsum(degree)])
    # The vertices' CSR slices, gathered in ``ids`` order.
    values = graph.targets[np.arange(offsets[-1]) + np.repeat(start - offsets[:-1], degree)]
    owner, shingle, elements = _draw(params.c1, params.s1, params.seed, offsets, values)
    return shingle, ids[owner], elements


def pass_two(
    shingle: np.ndarray, vertex: np.ndarray, params: ShingleParams
) -> tuple[np.ndarray, np.ndarray]:
    """Pass II over pass-I tuples: ``<second-level, first-level>`` shingle
    tuples as two uint64 columns.  A first-level shingle with fewer than
    ``s2`` vertices emits nothing (its vertices stay linked through the
    shingle itself)."""
    order = np.lexsort((vertex, shingle))
    firsts, start = np.unique(shingle[order], return_index=True)
    offsets = np.append(start, len(order))
    owner, shingle2, _ = _draw(params.c2, params.s2, params.seed + 1, offsets, vertex[order])
    return shingle2, firsts[owner]


def _grouped(label: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """``values`` split into one array per distinct label, in ascending
    label order."""
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return np.split(values[order], cuts) if len(order) else []


def report(
    graph: BipartiteGraph,
    params: ShingleParams,
    shingle: np.ndarray,
    vertex: np.ndarray,
    elements: np.ndarray,
    shingle2: np.ndarray,
    shingle1: np.ndarray,
    *,
    min_size: int,
    expand_b: bool,
) -> ShingleResult:
    """Enumerate the dense subgraphs of the complete tuple files: nodes
    are left vertices, then first-level, then second-level shingles; a
    pass-I tuple is an edge vertex -- shingle, a pass-II tuple an edge
    first-level -- second-level shingle."""
    lefts, left_id = np.unique(vertex, return_inverse=True)
    firsts, first_row, first_id = np.unique(shingle, return_index=True, return_inverse=True)
    seconds, second_id = np.unique(shingle2, return_inverse=True)
    n_left, n_first = len(lefts), len(firsts)
    label = connected_labels(
        n_left + n_first + len(seconds),
        np.concatenate([left_id, n_left + np.searchsorted(firsts, shingle1)]),
        np.concatenate([n_left + first_id, n_left + n_first + second_id]),
    )
    result = ShingleResult(
        subgraphs=[],
        n_first_level_shingles=n_first,
        n_second_level_shingles=len(seconds),
        n_tuples_pass1=len(shingle),
        n_tuples_pass2=len(shingle2),
        skipped_low_degree=graph.n_left - n_left,
        # Peak memory proxy: every tuple is two 8-byte words.
        peak_tuple_bytes=16 * max(len(shingle), len(shingle2)),
        parameters=params,
    )
    # Every component holds a vertex and a first-level shingle, so the
    # two groupings line up, ordered by each component's smallest vertex.
    for members, rows in zip(
        _grouped(label[:n_left], lefts),
        _grouped(label[n_left : n_left + n_first], first_row),
        strict=True,
    ):
        if len(members) < min_size:
            continue
        sampled = right = np.unique(elements[rows])
        if expand_b:
            right = np.unique(np.concatenate([graph.gamma(v) for v in members]))
        result.subgraphs.append(
            DenseSubgraph(
                left=tuple(sorted(graph.left_labels[v] for v in members.tolist())),
                right=tuple(sorted(graph.right_labels[u] for u in right.tolist())),
                right_sampled=tuple(sorted(graph.right_labels[u] for u in sampled.tolist())),
            )
        )
    result.subgraphs.sort(key=lambda sg: (-sg.size, sg.left[:1]))
    return result


def shingle_dense_subgraphs(
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
    shingle, vertex, elements = pass_one(graph, range(graph.n_left), params)
    shingle2, shingle1 = pass_two(shingle, vertex, params)
    result = report(
        graph, params, shingle, vertex, elements, shingle2, shingle1,
        min_size=min_size, expand_b=expand_b,
    )
    obs.count("dsd.first_shingles", result.n_first_level_shingles)
    obs.count("dsd.second_shingles", result.n_second_level_shingles)
    obs.count("dsd.tuples_pass1", result.n_tuples_pass1)
    obs.count("dsd.tuples_pass2", result.n_tuples_pass2)
    obs.count("dsd.skipped_low_degree", result.skipped_low_degree)
    return result
