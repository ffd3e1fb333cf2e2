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
from repro.parallel.machine import BLUEGENE_L, MachineModel
from repro.parallel.simulator import MemoryExceededError, VirtualCluster
from repro.pace.bipartite_gen import ComponentGraphs
from repro.pace.densesub import parallel_dense_subgraph_detection
from repro.runtime.phases import backend_generate_component_graphs
from repro.shingle.algorithm import ShingleParams
from repro.sequence.generator import MetagenomeSpec, generate_metagenome


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


class TestMemoryEnforcement:
    @pytest.fixture(scope="class")
    def small_component(self):
        data = generate_metagenome(
            MetagenomeSpec(
                n_families=1,
                mean_family_size=8,
                mean_length=80,
                identity_low=0.85,
                identity_high=0.95,
                redundant_fraction=0.0,
                noise_fraction=0.0,
                seed=13,
            )
        )
        return data.sequences, [list(range(len(data.sequences)))]

    # The per-node limit is enforced where the simulator allocates a
    # component's graph: the DSD rank's ``comm.alloc``.
    SHINGLE = ShingleParams(s1=3, c1=10, s2=2, c2=5, seed=1)

    def test_generation_rejects_oversized_component(
        self, small_component, serial_session
    ):
        sequences, components = small_component
        cg = backend_generate_component_graphs(
            sequences, components, *serial_session(sequences), min_size=4
        )
        tiny = MachineModel(
            name="tiny", compute_rate=1e6, alpha=1e-6, beta=1e-8,
            memory_per_node=64,  # far below any real graph
        )
        with pytest.raises(MemoryExceededError):
            parallel_dense_subgraph_detection(
                cg, VirtualCluster(2, tiny), params=self.SHINGLE, min_size=4
            )

    def test_generation_passes_on_adequate_node(
        self, small_component, serial_session
    ):
        sequences, components = small_component
        cg = backend_generate_component_graphs(
            sequences, components, *serial_session(sequences), min_size=4
        )
        assert len(cg.graphs) == 1
        dsd = parallel_dense_subgraph_detection(
            cg, VirtualCluster(2, BLUEGENE_L), params=self.SHINGLE, min_size=4
        )
        assert dsd.sim.elapsed > 0

    def test_dsd_alloc_rejects_graph_bigger_than_node(self):
        graph = clique_bd(40)  # 12,800 bytes of adjacency
        tiny = MachineModel(
            name="tiny", compute_rate=1e6, alpha=1e-6, beta=1e-8,
            memory_per_node=graph.memory_bytes() - 1,
        )
        cg = ComponentGraphs(
            components=[list(range(40))], graphs=[graph], reduction="global"
        )
        with pytest.raises(MemoryExceededError):
            parallel_dense_subgraph_detection(
                cg,
                VirtualCluster(2, tiny),
                params=self.SHINGLE,
                min_size=5,
            )
