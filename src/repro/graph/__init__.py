"""Graph substrates: union-find, connected components, bipartite builders."""

from repro.graph.unionfind import UnionFind
from repro.graph.bipartite import (
    BipartiteGraph,
    duplicate_bipartite,
    wmer_bipartite,
)
from repro.graph.density import DenseSubgraphStats, subgraph_density

__all__ = [
    "UnionFind",
    "BipartiteGraph",
    "duplicate_bipartite",
    "wmer_bipartite",
    "DenseSubgraphStats",
    "subgraph_density",
]
