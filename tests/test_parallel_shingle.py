"""Distributed Shingle algorithm (the paper's Section VI future work)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.parallel.simulator import SimComm, VirtualCluster
from repro.shingle import (
    ShingleParams,
    parallel_shingle_dense_subgraphs,
    shingle_dense_subgraphs,
)

PARAMS = ShingleParams(s1=3, c1=80, s2=2, c2=30, seed=9)


def clique_graph():
    edges = []
    for base, size in ((0, 10), (10, 8), (24, 8)):
        grp = list(range(base, base + size))
        edges += [(i, j) for i in grp for j in grp if i < j]
    return duplicate_bipartite(32, edges)


class TestAlltoall:
    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_personalised_exchange(self, p):
        def program(comm: SimComm):
            payloads = [f"{comm.rank}->{dest}" for dest in range(comm.size)]
            received = yield from comm.alltoall(payloads)
            return received

        res = VirtualCluster(p).run(program)
        for rank, received in enumerate(res.rank_results):
            assert received == [f"{src}->{rank}" for src in range(p)]

    def test_wrong_length_rejected(self):
        def program(comm: SimComm):
            yield from comm.alltoall([1])

        with pytest.raises(ValueError, match="one payload per rank"):
            VirtualCluster(3).run(program)

    def test_cost_grows_with_p(self):
        def program(comm: SimComm):
            yield from comm.alltoall([b"x" * 1000] * comm.size)

        t2 = VirtualCluster(2).run(program).elapsed
        t8 = VirtualCluster(8).run(program).elapsed
        assert t8 > t2


def fields_but_peak(result):
    """Every ShingleResult field except ``peak_tuple_bytes``, which is
    per node in the distributed run and whole-file in the serial one."""
    fields = dataclasses.asdict(result)
    del fields["peak_tuple_bytes"]
    return fields


class TestParallelShingle:
    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_identical_to_serial(self, p):
        graph = clique_graph()
        serial = shingle_dense_subgraphs(graph, PARAMS, min_size=2)
        par, sim = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(p), PARAMS, min_size=2
        )
        assert serial.n_tuples_pass2 > 0 and serial.n_second_level_shingles > 0
        assert fields_but_peak(par) == fields_but_peak(serial)
        assert sim.elapsed > 0

    def test_more_ranks_than_vertices(self):
        """Ranks that own no vertex, and ranks that own no shingle, ship
        empty columns through both shuffles and the gather."""
        edges = [(wm, s) for wm in range(3) for s in range(4)]
        graph = BipartiteGraph(3, 4, edges)
        serial = shingle_dense_subgraphs(graph, PARAMS, min_size=1)
        par, sim = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(9), PARAMS, min_size=1
        )
        assert serial.subgraphs and serial.n_first_level_shingles < 9
        assert fields_but_peak(par) == fields_but_peak(serial)
        # ... and some rank never holds a tuple of either level.
        assert 0 in [s.mem_peak_bytes for s in sim.rank_stats]

    def test_memory_divides_with_p(self):
        """The point of the parallelisation: per-node peak tuple memory
        shrinks as ranks are added."""
        graph = clique_graph()
        peaks = {}
        for p in (1, 4, 8):
            par, _ = parallel_shingle_dense_subgraphs(
                graph, VirtualCluster(p), PARAMS, min_size=2
            )
            peaks[p] = par.peak_tuple_bytes
        assert peaks[4] < peaks[1]
        assert peaks[8] < peaks[4]

    def test_min_size_filter(self):
        graph = clique_graph()
        par, _ = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(3), PARAMS, min_size=100
        )
        assert par.subgraphs == []

    def test_expand_b_false(self):
        graph = clique_graph()
        serial = shingle_dense_subgraphs(graph, PARAMS, min_size=2, expand_b=False)
        par, _ = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(3), PARAMS, min_size=2, expand_b=False
        )
        assert par.subgraphs == serial.subgraphs

    def test_web_community_shape(self):
        """Asymmetric (B_m-style) graphs work distributed too."""
        edges = [(wm, s) for wm in range(9) for s in range(5)]
        graph = BipartiteGraph(9, 5, edges)
        serial = shingle_dense_subgraphs(graph, PARAMS, min_size=1)
        par, _ = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(4), PARAMS, min_size=1
        )
        assert par.subgraphs == serial.subgraphs
