"""Quality metric (eqs 1-4) and Table-I report tests."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import (
    PairConfusion,
    compare_clusterings,
    pair_confusion,
    quality_scores,
)
from repro.eval.report import Table1Row, table1_row
from repro.graph.bipartite import duplicate_bipartite
from repro.pace.bipartite_gen import ComponentGraphs
from tests.scalar_density import adjacency, table1_oracle


class TestPairConfusion:
    def test_identical_clusterings(self):
        clusters = [["a", "b", "c"], ["d", "e"]]
        c = pair_confusion(clusters, clusters)
        assert c.tp == 3 + 1
        assert c.fp == 0 and c.fn == 0
        assert c.tn == math.comb(5, 2) - 4

    def test_hand_computed_example(self):
        test = [["a", "b"], ["c", "d"]]
        bench = [["a", "b", "c"], ["d"]]
        c = pair_confusion(test, bench)
        # universe = a,b,c,d; together_test = {ab, cd}; together_bench = {ab,ac,bc}
        assert c.tp == 1  # ab
        assert c.fp == 1  # cd
        assert c.fn == 2  # ac, bc
        assert c.tn == 6 - 4

    def test_universe_restricted_to_both(self):
        test = [["a", "b", "x"]]
        bench = [["a", "b"]]  # x unclustered in benchmark
        c = pair_confusion(test, bench)
        assert c.n_items == 2
        assert c.tp == 1 and c.fp == 0 and c.fn == 0 and c.tn == 0

    def test_duplicate_item_rejected(self):
        with pytest.raises(ValueError, match="two Test clusters"):
            pair_confusion([["a"], ["a"]], [["a"]])
        with pytest.raises(ValueError, match="two Benchmark clusters"):
            pair_confusion([["a"]], [["a"], ["a"]])

    def test_fragmentation_lowers_sensitivity_not_precision(self):
        """The paper's signature: our DS fragments a GOS cluster -> high
        PR, low SE."""
        bench = [list(range(12))]
        test = [list(range(0, 4)), list(range(4, 8)), list(range(8, 12))]
        s = quality_scores(pair_confusion(test, bench))
        assert s.precision == 1.0
        assert s.sensitivity < 0.5

    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=1, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_counts_consistent(self, raw):
        # Build a valid partition out of raw data.
        seen = set()
        clusters = []
        for group in raw:
            members = []
            for x in group:
                if x not in seen:
                    seen.add(x)
                    members.append(x)
            if members:
                clusters.append(members)
        if not clusters:
            return
        c = pair_confusion(clusters, clusters)
        assert c.fp == 0 and c.fn == 0
        assert c.tp + c.fp + c.fn + c.tn == math.comb(c.n_items, 2)


class TestQualityScores:
    def test_perfect(self):
        s = quality_scores(PairConfusion(tp=10, fp=0, fn=0, tn=5, n_items=6))
        assert s.precision == s.sensitivity == s.overlap_quality == 1.0
        assert s.correlation == pytest.approx(1.0)

    def test_zero_division_safe(self):
        s = quality_scores(PairConfusion(tp=0, fp=0, fn=0, tn=0, n_items=0))
        assert s.precision == 0.0 and s.correlation == 0.0

    def test_oq_bounded_by_pr_and_se(self):
        s = quality_scores(PairConfusion(tp=6, fp=2, fn=3, tn=20, n_items=9))
        assert s.overlap_quality <= min(s.precision, s.sensitivity)

    def test_as_dict_keys(self):
        s = quality_scores(PairConfusion(tp=1, fp=1, fn=1, tn=1, n_items=3))
        assert set(s.as_dict()) == {"PR", "SE", "OQ", "CC"}

    def test_compare_clusterings_convenience(self):
        s = compare_clusterings([["a", "b"]], [["a", "b"]])
        assert s.precision == 1.0


class TestTable1:
    def test_aggregation(self):
        clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        graphs = ComponentGraphs(
            components=[[0, 1, 2, 3, 4]],
            graphs=[duplicate_bipartite(5, clique, labels=[0, 1, 2, 3, 4])],
        )
        row = table1_row(
            n_input=100,
            n_nonredundant=90,
            components=[[0, 1, 2, 3, 4], [5, 6]],
            subgraphs=[(0, 1, 2, 3, 4)],
            graphs=graphs,
            min_component_size=5,
        )
        assert row.n_components == 1  # the size-2 component is excluded
        assert row.n_dense_subgraphs == 1
        assert row.n_sequences_in_ds == 5
        assert row.largest_ds == 5
        assert row.mean_density == pytest.approx(1.0)

    def test_empty_subgraphs(self):
        row = table1_row(
            n_input=10,
            n_nonredundant=10,
            components=[],
            subgraphs=[],
            graphs=ComponentGraphs(components=[], graphs=[]),
        )
        assert row.mean_degree == 0.0 and row.largest_ds == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_dict_of_sets_oracle(self, data):
        """Several components with labels out of order, random edges and
        subgraphs inside them (singletons too): the B_d reader is the
        neighbour-set count."""
        sizes = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
        labels = data.draw(st.permutations(range(sum(sizes))))
        components, graphs, subgraphs, edges = [], [], [], []
        for n in sizes:
            members, labels = sorted(labels[:n]), labels[n:]
            local = data.draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
            components.append(members)
            graphs.append(duplicate_bipartite(n, local, labels=members))
            edges += [(members[a], members[b]) for a, b in local if a != b]
            subgraphs += [tuple(sorted(sg)) for sg in data.draw(st.lists(
                st.sets(st.sampled_from(members), min_size=1), max_size=2))]
        reduction = data.draw(st.sampled_from(["global", "domain"]))
        kwargs = dict(n_input=40, n_nonredundant=30, components=components,
                      subgraphs=subgraphs, min_component_size=3)
        row = table1_row(**kwargs, graphs=ComponentGraphs(
            components=components, graphs=graphs, reduction=reduction))
        neighbors = adjacency(edges) if reduction == "global" else {}
        assert row == table1_oracle(**kwargs, neighbors=neighbors)

    def test_formatting(self):
        row = Table1Row(
            n_input=160000,
            n_nonredundant=138633,
            n_components=1861,
            n_dense_subgraphs=850,
            n_sequences_in_ds=66083,
            mean_degree=26.0,
            mean_density=0.76,
            largest_ds=13263,
        )
        text = row.formatted()
        assert "160,000" in text and "76%" in text
        assert len(Table1Row.header().split()) == 8
