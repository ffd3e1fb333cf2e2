"""Shingle algorithm tests: clique recovery, determinism, parameters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.shingle.algorithm import (
    DenseSubgraph,
    ShingleParams,
    shingle_dense_subgraphs,
)
from repro.shingle.postprocess import (
    domain_output,
    global_similarity_output,
    jaccard_ab,
    passes_ab_test,
)


def clique_edges(vertices):
    return [(i, j) for i in vertices for j in vertices if i < j]


SMALL = ShingleParams(s1=3, c1=60, s2=2, c2=25, seed=5)


class TestShingleParams:
    def test_defaults_match_paper(self):
        p = ShingleParams()
        assert (p.s1, p.c1) == (5, 300)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShingleParams(s1=0)


class TestCliqueRecovery:
    def test_single_clique(self):
        g = duplicate_bipartite(6, clique_edges(range(6)))
        res = shingle_dense_subgraphs(g, SMALL, min_size=2)
        assert len(res.subgraphs) == 1
        assert res.subgraphs[0].left == tuple(range(6))
        assert jaccard_ab(res.subgraphs[0]) == 1.0

    def test_two_cliques_disjoint(self):
        edges = clique_edges(range(5)) + clique_edges(range(5, 12))
        g = duplicate_bipartite(12, edges)
        res = shingle_dense_subgraphs(g, SMALL, min_size=2)
        lefts = sorted(sg.left for sg in res.subgraphs)
        assert lefts == [tuple(range(5)), tuple(range(5, 12))]

    def test_sparse_vertices_skipped(self):
        # vertex 6 has degree 1 (< s1): cannot shingle.
        edges = clique_edges(range(5)) + [(0, 6)]
        g = duplicate_bipartite(7, edges)
        res = shingle_dense_subgraphs(g, SMALL, min_size=2)
        assert res.skipped_low_degree >= 1
        biggest = res.subgraphs[0]
        assert 6 not in biggest.left

    def test_min_size_filter(self):
        g = duplicate_bipartite(4, clique_edges(range(4)))
        res = shingle_dense_subgraphs(g, SMALL, min_size=10)
        assert res.subgraphs == []

    def test_labels_propagate(self):
        labels = [100, 200, 300, 400, 500]
        g = duplicate_bipartite(5, clique_edges(range(5)), labels=labels)
        res = shingle_dense_subgraphs(g, SMALL, min_size=2)
        assert res.subgraphs[0].left == tuple(labels)
        assert res.subgraphs[0].right == tuple(labels)


class TestDeterminism:
    def test_same_seed_same_result(self):
        g = duplicate_bipartite(8, clique_edges(range(8)))
        a = shingle_dense_subgraphs(g, SMALL, min_size=2)
        b = shingle_dense_subgraphs(g, SMALL, min_size=2)
        assert a.subgraphs == b.subgraphs
        assert a.n_tuples_pass1 == b.n_tuples_pass1

    def test_different_seed_may_change_internals_not_cliques(self):
        g = duplicate_bipartite(8, clique_edges(range(8)))
        a = shingle_dense_subgraphs(g, ShingleParams(s1=3, c1=60, s2=2, c2=25, seed=1), min_size=2)
        b = shingle_dense_subgraphs(g, ShingleParams(s1=3, c1=60, s2=2, c2=25, seed=2), min_size=2)
        assert [sg.left for sg in a.subgraphs] == [sg.left for sg in b.subgraphs]


class TestParameters:
    def test_more_permutations_more_tuples(self):
        """Instrumented counters must grow ~linearly in c1 (Figure 7b's
        mechanism: run-time grows with c)."""
        g = duplicate_bipartite(10, clique_edges(range(10)))
        tuples = []
        for c1 in (20, 40, 80):
            res = shingle_dense_subgraphs(
                g, ShingleParams(s1=3, c1=c1, s2=2, c2=10, seed=3), min_size=2
            )
            tuples.append(res.n_tuples_pass1)
        assert tuples[0] < tuples[1] < tuples[2]

    def test_large_s_skips_small_gamma(self):
        g = duplicate_bipartite(4, clique_edges(range(4)))  # degree 4 with self-loop
        res = shingle_dense_subgraphs(
            g, ShingleParams(s1=5, c1=10, s2=2, c2=5, seed=1), min_size=1
        )
        assert res.skipped_low_degree == 4

    def test_expand_b_false_uses_samples(self):
        g = duplicate_bipartite(6, clique_edges(range(6)))
        res = shingle_dense_subgraphs(g, SMALL, min_size=2, expand_b=False)
        sg = res.subgraphs[0]
        assert set(sg.right) == set(sg.right_sampled)


class TestPostprocess:
    def test_jaccard_identical(self):
        sg = DenseSubgraph(left=(1, 2, 3), right=(1, 2, 3), right_sampled=(1, 2))
        assert jaccard_ab(sg) == 1.0
        assert passes_ab_test(sg, 0.9)

    def test_jaccard_disjoint(self):
        sg = DenseSubgraph(left=(1, 2), right=(3, 4), right_sampled=(3,))
        assert jaccard_ab(sg) == 0.0
        assert not passes_ab_test(sg, 0.1)

    def test_tau_validation(self):
        sg = DenseSubgraph(left=(1,), right=(1,), right_sampled=(1,))
        with pytest.raises(ValueError):
            passes_ab_test(sg, 0.0)

    def test_global_output_filters_and_merges(self):
        good = DenseSubgraph(left=(1, 2, 3, 4, 5), right=(1, 2, 3, 4, 5), right_sampled=())
        lopsided = DenseSubgraph(left=(1, 2, 3, 4, 5), right=(10, 11, 12, 13, 14), right_sampled=())
        out = global_similarity_output([good, lopsided], tau=0.5, min_size=5)
        assert out == [(1, 2, 3, 4, 5)]

    def test_domain_output_reports_b(self):
        sg = DenseSubgraph(left=(991, 992), right=(1, 2, 3, 4, 5), right_sampled=())
        assert domain_output([sg], min_size=5) == [(1, 2, 3, 4, 5)]
        assert domain_output([sg], min_size=6) == []

    def test_outputs_are_disjoint_largest_first(self):
        """Both reductions report through one rule: the larger set claims
        contested vertices, the smaller keeps the rest or is dropped."""
        big = DenseSubgraph(left=(1, 2, 3, 4), right=(1, 2, 3, 4), right_sampled=())
        small = DenseSubgraph(left=(3, 4, 5, 6), right=(4, 5, 6), right_sampled=())
        assert domain_output([small, big], min_size=2) == [(1, 2, 3, 4), (5, 6)]
        assert domain_output([small, big], min_size=3) == [(1, 2, 3, 4)]
        assert global_similarity_output([small, big], tau=0.5, min_size=2) == [
            (1, 2, 3, 4), (5, 6)
        ]

    def test_web_community_asymmetric_subgraph(self):
        """The B_m-style case: left vertices (w-mers) all point at the same
        right set — detected as one subgraph whose B is the right set."""
        edges = [(wm, s) for wm in range(6) for s in range(4)]
        g = BipartiteGraph(6, 4, edges, right_labels=[40, 41, 42, 43])
        res = shingle_dense_subgraphs(
            g, ShingleParams(s1=3, c1=30, s2=2, c2=10, seed=2), min_size=1
        )
        assert len(res.subgraphs) == 1
        assert res.subgraphs[0].right == (40, 41, 42, 43)
