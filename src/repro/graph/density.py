"""Dense-subgraph quality statistics.

The paper reports, per dense subgraph with m nodes: the mean vertex
degree *within the subgraph* and the observed "density"
``mean_degree / (m - 1)`` — 100% for a clique.  Table I aggregates these
over all reported subgraphs, read from the B_d graph that holds the
similarity edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graph.bipartite import BipartiteGraph


@dataclass(frozen=True)
class DenseSubgraphStats:
    """Per-subgraph statistics in the paper's terms."""

    size: int
    mean_degree: float
    density: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("subgraph must be non-empty")


def subgraph_density(members: Sequence[int], graph: BipartiteGraph | None) -> DenseSubgraphStats:
    """Statistics of the similarity subgraph induced by ``members``,
    vertex ids of its B_d graph ``graph`` (None: there is no similarity
    graph, as under the domain reduction, and every degree is 0).

    B_d links each vertex to itself, so a member's degree inside S is
    |Gamma(v) ∩ S| - 1.  Density follows the paper: mean degree /
    (m - 1); a singleton reports density 1.0 by convention.
    """
    member_set = set(members)
    m = len(member_set)
    if m == 0:
        raise ValueError("empty subgraph")
    if m == 1:
        return DenseSubgraphStats(size=1, mean_degree=0.0, density=1.0)
    total_degree = 0
    if graph is not None:
        total_degree = sum(len(member_set.intersection(graph.gamma(v).tolist())) - 1
                           for v in member_set)
    mean_degree = total_degree / m
    return DenseSubgraphStats(size=m, mean_degree=mean_degree, density=mean_degree / (m - 1))


def size_histogram(sizes: Iterable[int], *, bucket: int = 5) -> dict[str, int]:
    """Bucketed size distribution as in Figure 5 ("5-9", "10-14", ...)."""
    if bucket < 1:
        raise ValueError("bucket must be >= 1")
    out: dict[str, int] = {}
    for size in sizes:
        lo = (size // bucket) * bucket
        key = f"{lo}-{lo + bucket - 1}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0].split("-")[0])))
