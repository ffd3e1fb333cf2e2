"""Union-find, bipartite graph, and density statistic tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import (
    BipartiteGraph,
    duplicate_bipartite,
    wmer_bipartite,
)
from repro.graph.density import DenseSubgraphStats, size_histogram, subgraph_density
from repro.graph.unionfind import UnionFind, connected_labels
from repro.sequence.alphabet import encode
from tests.scalar_shingle import KeyedUnionFind
from tests.scalar_wmer import wmer_incidence


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert len(uf.groups()) == 5
        assert not uf.same(0, 1)

    def test_union_and_find(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.same(0, 1)
        assert not uf.union(1, 0)  # already merged
        assert uf.merge_count == 1

    def test_transitivity(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.same(0, 2)
        assert len(uf.groups()) == 4

    def test_groups_partition(self):
        uf = UnionFind(6)
        uf.union(0, 3)
        uf.union(4, 5)
        groups = uf.groups()
        all_members = sorted(m for g in groups.values() for m in g)
        assert all_members == list(range(6))
        assert sorted(len(g) for g in groups.values()) == [1, 1, 2, 2]

    def test_ensure_grows(self):
        uf = UnionFind(2)
        uf.ensure(5)
        assert len(uf) == 5
        assert uf.find(4) == 4

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            UnionFind(-1)

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60))
    @settings(max_examples=50)
    def test_matches_naive_partition(self, edges):
        """Union-find components equal a reachability-based oracle."""
        uf = UnionFind(20)
        adj = {i: {i} for i in range(20)}
        for a, b in edges:
            uf.union(a, b)
        # naive: iterate merging until fixpoint
        parent = list(range(20))

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
        for i in range(20):
            for j in range(20):
                assert uf.same(i, j) == (root(i) == root(j))

    def test_connected_components_from_edges(self):
        labels = connected_labels(6, np.array([1, 2, 5]), np.array([0, 1, 4]))
        assert labels.tolist() == [0, 0, 0, 3, 4, 4]
        assert connected_labels(3, np.empty(0, np.int64), np.empty(0, np.int64)).tolist() == [0, 1, 2]
        assert connected_labels(0, np.empty(0, np.int64), np.empty(0, np.int64)).tolist() == []

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80),
    )))
    @settings(max_examples=200, deadline=None)
    def test_connected_labels_equal_union_find(self, case):
        """The array form, given all edges at once (self-loops, repeats,
        long chains), finds UnionFind's partition and names every
        component by its smallest node."""
        n, edges = case
        uf = UnionFind(n)
        for x, y in edges:
            uf.union(x, y)
        a = np.array([x for x, _ in edges], dtype=np.int64)
        b = np.array([y for _, y in edges], dtype=np.int64)
        labels = connected_labels(n, a, b)
        assert labels.tolist() == [min(uf.groups()[uf.find(x)]) for x in range(n)]

    def test_connected_labels_long_path(self):
        """A path numbered to hook one tree per round if rounds did not
        flatten: still the one component."""
        order = np.random.default_rng(5).permutation(500)
        assert connected_labels(500, order[:-1], order[1:]).tolist() == [0] * 500


class TestKeyedUnionFind:
    """The Shingle oracle's union-find (``tests/scalar_shingle.py``)."""

    def test_arbitrary_keys(self):
        uf = KeyedUnionFind()
        uf.union("a", "b")
        uf.union((1, 2), "c")
        assert uf.same("a", "b")
        assert not uf.same("a", "c")
        assert "a" in uf and "zzz" not in uf

    def test_groups(self):
        uf = KeyedUnionFind()
        uf.union(10, 20)
        uf.add(30)
        groups = sorted(sorted(g) for g in uf.groups())
        assert groups == [[10, 20], [30]]

    def test_same_on_unknown_keys(self):
        uf = KeyedUnionFind()
        assert not uf.same("x", "y")


def random_edge_columns(seed: int, n_left: int = 9, n_right: int = 7, m: int = 60):
    """Random ``(left, right)`` rows with repeats, in no order."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, n_left, m), rng.integers(0, n_right, m)], axis=1)


class TestBipartiteGraph:
    def test_gamma_sorted_unique(self):
        g = BipartiteGraph(2, 4, [(0, 3), (0, 1), (0, 3), (1, 2)])
        assert g.gamma(0).tolist() == [1, 3]
        assert g.out_degree(0) == 2
        assert g.n_edges == 4  # raw edge count

    @pytest.mark.parametrize("seed", range(4))
    def test_csr_keeps_the_adjacency_semantics(self, seed):
        """Edge columns with repeats: ``n_edges`` counts every row,
        ``gamma`` is the sorted distinct set of a vertex's out-links and
        ``memory_bytes`` is 8 bytes per distinct edge — what a per-vertex
        ``np.unique`` array held."""
        rows = random_edge_columns(seed)
        if seed == 3:
            rows = rows[rows[:, 0] != 4]  # a vertex with no out-link
        g = BipartiteGraph(9, 7, rows)
        want = {v: sorted({r for left, r in rows.tolist() if left == v}) for v in range(9)}
        assert g.n_edges == len(rows)
        for v in range(9):
            assert g.gamma(v).dtype == np.int64
            assert g.gamma(v).tolist() == want[v]
            assert g.out_degree(v) == len(want[v])
        distinct = len({tuple(r) for r in rows.tolist()})
        assert g.memory_bytes() == 8 * distinct
        assert g.offsets.dtype == g.targets.dtype == np.int64
        # Tuples, a generator and the array build the same graph.
        for edges in (rows.tolist(), (tuple(r) for r in rows.tolist())):
            other = BipartiteGraph(9, 7, edges)
            assert other.offsets.tolist() == g.offsets.tolist()
            assert other.targets.tolist() == g.targets.tolist()

    def test_vertex_range_validation(self):
        with pytest.raises(ValueError):
            BipartiteGraph(1, 1, [(1, 0)])
        with pytest.raises(ValueError):
            BipartiteGraph(1, 1, [(0, 5)])
        with pytest.raises(ValueError, match="left vertex -1"):
            BipartiteGraph(2, 2, np.array([[0, 1], [-1, 0]]))
        with pytest.raises(ValueError, match="right vertex 7 out of range"):
            BipartiteGraph(9, 7, np.vstack([random_edge_columns(0), [[0, 7]]]))
        with pytest.raises(ValueError, match="non-negative"):
            BipartiteGraph(-1, 2, [])

    def test_label_length_validation(self):
        with pytest.raises(ValueError, match="left_labels"):
            BipartiteGraph(2, 2, [], left_labels=[7])

    def test_memory_bytes_positive(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert g.memory_bytes() > 0

    def test_empty(self):
        g = BipartiteGraph(3, 2, [])
        assert g.n_edges == g.memory_bytes() == 0
        assert [g.gamma(v).tolist() for v in range(3)] == [[], [], []]


class TestDuplicateBipartite:
    def test_clique_gamma_is_whole_clique(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = duplicate_bipartite(4, edges)
        for v in range(4):
            assert g.gamma(v).tolist() == [0, 1, 2, 3]

    def test_self_edges_ignored(self):
        """A self edge given is dropped; the self loops are always added,
        one a vertex."""
        g = duplicate_bipartite(3, [(0, 0), (1, 2)])
        assert g.n_edges == 2 + 3  # (1, 2) both ways and three self loops
        assert [g.gamma(v).tolist() for v in range(3)] == [[0], [1, 2], [1, 2]]

    def test_labels_carried(self):
        g = duplicate_bipartite(2, [(0, 1)], labels=[100, 200])
        assert g.left_labels == [100, 200]
        assert g.right_labels == [100, 200]


class TestWmerBipartite:
    def test_basic(self):
        seqs = [encode("WWARNDCQEGHIKK"), encode("YYARNDCQEGHIVV")]
        g = wmer_bipartite(seqs, w=10, min_sequences=2, sequence_labels=[5, 9])
        assert g.n_right == 2
        assert g.right_labels == [5, 9]
        assert g.n_left >= 1
        assert g.n_edges >= 2

    @pytest.mark.parametrize("min_sequences", [1, 2, 3])
    @pytest.mark.parametrize("case", ["family", "short", "unshared"])
    def test_equals_the_per_sequence_index(self, case, min_sequences):
        rng = np.random.default_rng(len(case) * 10 + min_sequences)
        base = rng.integers(0, 20, 60).astype(np.uint8)
        if case == "family":
            # Shared blocks at shifted offsets, a repeat inside one
            # sequence, a short one and an unrelated one.
            seqs = [base, np.concatenate([base[5:40], base[5:40]]),
                    np.concatenate([rng.integers(0, 20, 9).astype(np.uint8), base[20:]]),
                    base[:7], rng.integers(0, 20, 50).astype(np.uint8)]
        elif case == "short":
            seqs = [base[:5], base[:3], base[:0]]  # every one shorter than w
        else:
            seqs = [rng.integers(0, 20, 40).astype(np.uint8) for _ in range(4)]
        w = 6
        codes, edges = wmer_incidence(seqs, w, min_sequences)
        g = wmer_bipartite(seqs, w=w, min_sequences=min_sequences)
        assert g.left_labels == codes
        assert (g.n_left, g.n_right, g.n_edges) == (len(codes), len(seqs), len(edges))
        got = [(v, int(s)) for v in range(g.n_left) for s in g.gamma(v)]
        assert got == edges
        assert g.memory_bytes() == 8 * len(edges)
        if case != "family":
            assert min_sequences == 1 or g.n_left == 0
        if case == "family" and min_sequences == 3:
            assert 0 < g.n_left < len(wmer_incidence(seqs, w, 2)[0])


class TestDensity:
    """Degrees inside S read from the B_d graph: |Gamma(v) ∩ S| - 1."""

    def test_clique_density_100(self):
        g = duplicate_bipartite(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        stats = subgraph_density([0, 1, 2, 3], g)
        assert stats.density == pytest.approx(1.0)
        assert stats.mean_degree == pytest.approx(3.0)

    def test_path_density(self):
        g = duplicate_bipartite(3, [(0, 1), (1, 2)])
        stats = subgraph_density([0, 1, 2], g)
        assert stats.mean_degree == pytest.approx(4 / 3)
        assert stats.density == pytest.approx((4 / 3) / 2)

    def test_singleton(self):
        stats = subgraph_density([7], duplicate_bipartite(8, []))
        assert stats.density == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            subgraph_density([], duplicate_bipartite(2, []))

    def test_external_edges_ignored(self):
        g = duplicate_bipartite(4, [(0, 1), (0, 3), (1, 2)])
        stats = subgraph_density([0, 1], g)
        assert stats.mean_degree == pytest.approx(1.0)

    def test_no_similarity_graph_reads_degree_zero(self):
        """The domain reduction has no similarity graph."""
        stats = subgraph_density([3, 5, 9], None)
        assert (stats.size, stats.mean_degree, stats.density) == (3, 0.0, 0.0)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            DenseSubgraphStats(size=0, mean_degree=0, density=0)


class TestSizeHistogram:
    def test_buckets_like_figure5(self):
        hist = size_histogram([5, 6, 9, 10, 14, 23], bucket=5)
        assert hist == {"5-9": 3, "10-14": 2, "20-24": 1}

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            size_histogram([1], bucket=0)
