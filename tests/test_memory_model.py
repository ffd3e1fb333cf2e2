"""The paper's Section IV-C memory claim, checked against our model.

"Our implementation can handle a bipartite graph with up to a total of
16K vertices on a 512 MB RAM, or equivalently connected components with
up to 8K vertices."  A worst-case component of 8K sequences duplicates
into a B_d with 16K vertices whose dense adjacency is 8K * 8K int64
out-links = exactly 512 MB — the arithmetic behind the paper's number.
"""

from __future__ import annotations

import pytest

from repro.graph.bipartite import duplicate_bipartite
from repro.parallel.machine import BLUEGENE_L


def clique_bd(n: int):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return duplicate_bipartite(n, edges)


class TestAdjacencyFootprint:
    @pytest.mark.parametrize("n", [4, 10, 50])
    def test_clique_bd_memory_is_8_n_squared(self, n):
        """A clique component's B_d adjacency stores n int64 out-links per
        duplicated vertex: 8 * n^2 bytes."""
        graph = clique_bd(n)
        assert graph.memory_bytes() == 8 * n * n

    def test_paper_16k_vertex_claim(self):
        """Extrapolating the verified formula: an 8K-sequence component
        (16K bipartite vertices) needs exactly 512 MB — the paper's
        stated single-node limit on BlueGene/L."""
        n = 8192
        worst_case_bytes = 8 * n * n
        assert worst_case_bytes == BLUEGENE_L.memory_per_node == 512 * 1024 * 1024

    def test_one_more_vertex_exceeds_the_node(self):
        n = 8192 + 64
        assert 8 * n * n > BLUEGENE_L.memory_per_node

