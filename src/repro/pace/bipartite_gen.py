"""Phase 3 — Bipartite Graph Generation (Section IV-C).

For each connected component (>= min size), build the bipartite graph
the dense-subgraph phase consumes:

* **global reduction** (B_d): align every promising pair inside the
  component (maximal-match heuristic only, no clustering filter) and
  draw an edge when the pair meets the user's edge-similarity cutoff;
  then duplicate vertices per Section III.
* **domain reduction** (B_m): index the component's shared w-mers
  (alignment-free; see
  :func:`repro.runtime.phases.backend_generate_component_graphs`).

Components are independent, so the phase is embarrassingly parallel; a
component's bipartite graph must fit on one node (the paper handles up
to 16K total vertices in 512 MB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.align.predicates import overlaps
from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.pace.seen import SeenPairs
from repro.sequence.record import SequenceSet
from repro.suffix import GeneralizedSuffixArray, MaximalMatchFinder


@dataclass
class ComponentGraphs:
    """Bipartite graphs per connected component; a B_d graph is the one
    copy of its component's similarity edges, which Table I reads too."""

    components: list[list[int]]
    graphs: list[BipartiteGraph]
    n_alignments: int = 0
    n_edges: int = 0
    reduction: str = "global"


class BipartiteMaster:
    """Master-side state of B_d generation.

    Owns the qualifying components (``members``, each sorted; per
    sequence its ``component`` and ``local`` index there, -1 outside
    them), the pair source (``finder``, the match stream of the string
    index of ``sequences`` labelled by ``component``, so its rows are
    exactly the components' own streams, interleaved), the admission
    filter (the master only deduplicates — "we apply only the maximal
    matching heuristic (and skip clustering)"), the edge columns and the
    result construction.  :meth:`admit` takes a match block's columns
    and admits each row against its component's triangle of one
    :class:`~repro.pace.seen.SeenPairs` bit map; :meth:`add_edges` keeps
    an absorbed table's edges as columns, which :meth:`result` turns
    into the per-component B_d graphs.
    :func:`repro.runtime.phases.backend_generate_component_graphs`
    streams the admitted columns through an execution backend.
    """

    def __init__(
        self,
        sequences: SequenceSet,
        components: Sequence[Sequence[int]],
        index: GeneralizedSuffixArray,
        *,
        psi: int,
        edge_similarity: float,
        edge_coverage: float,
        min_size: int,
        max_pairs_per_node: int | None = None,
    ):
        self.encoded = [record.encoded for record in sequences]
        self.lengths = np.array([len(e) for e in self.encoded], dtype=np.int64)
        self.members = [sorted(c) for c in components if len(c) >= min_size]
        # Components are disjoint, so each column is single-valued.
        self.component = np.full(len(self.encoded), -1, dtype=np.int64)
        self.local = np.full(len(self.encoded), -1, dtype=np.int64)
        for ci, members in enumerate(self.members):
            self.component[members], self.local[members] = ci, np.arange(len(members))
        self.finder = MaximalMatchFinder(
            index, min_length=psi, max_pairs_per_node=max_pairs_per_node,
            labels=self.component,
        )
        self.edge_similarity = edge_similarity
        self.edge_coverage = edge_coverage
        self._edges: list[np.ndarray] = []
        self._admitted = SeenPairs([len(members) for members in self.members])

    def admit(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs ``(a[r], b[r])``, ``a < b`` and both in one
        component, sighted for the first time in that component, as
        columns in stream order.  Every admitted pair is aligned."""
        rows = self._admitted.add(self.local[a], self.local[b], self.component[a])
        a, b = a[rows], b[rows]
        if len(a):
            obs.count("bipartite.pairs", len(a))
        return a, b

    def is_edge(self, ia: np.ndarray, ib: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The user's edge cutoff on the local alignment table of the
        global pairs ``(ia[r], ib[r])``: one boolean per row."""
        return overlaps(table, self.lengths[ia], self.lengths[ib],
                        self.edge_similarity, self.edge_coverage)

    def add_edges(self, ia: np.ndarray, ib: np.ndarray) -> None:
        """The global pairs ``(ia[r], ib[r])``, each inside one component,
        passed the edge cutoff."""
        if len(ia):
            obs.count("bipartite.edges", len(ia))
            self._edges.append(np.stack([ia, ib]))

    def result(self) -> ComponentGraphs:
        """Build the graphs from the edge columns, one sort by
        component.  A graph sorts its edges, so the order verdicts
        arrived in cannot leak into the output."""
        edges = np.concatenate([np.empty((2, 0), dtype=np.int64), *self._edges], axis=1)
        edges = edges[:, np.argsort(self.component[edges[0]], kind="stable")]
        cuts = np.searchsorted(self.component[edges[0]], np.arange(1, len(self.members)))
        out = ComponentGraphs(components=self.members, graphs=[], reduction="global",
                              n_alignments=self._admitted.size, n_edges=edges.shape[1])
        for members, (ga, gb) in zip(self.members, np.split(edges, cuts, axis=1)):
            out.graphs.append(duplicate_bipartite(
                len(members), np.stack([self.local[ga], self.local[gb]], axis=1),
                labels=members,
            ))
            obs.count("bipartite.graphs")
        return out
