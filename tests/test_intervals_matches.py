"""LCP intervals and maximal-match generation versus their oracles: the
stack-built interval tree for the interval columns, the GST and a brute
force for the *set* of matches, the scalar node walk for their *order*
(both scalar references live in ``tests/scalar_finder.py``)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import encode
from repro.suffix import matches as matches_module
from repro.suffix.intervals import lcp_intervals
from repro.suffix.matches import MaximalMatchFinder, MaximalMatch
from repro.suffix.suffix_array import GeneralizedSuffixArray
from tests.oracle_gst import GeneralizedSuffixTree
from tests.scalar_finder import ScalarMatchFinder, interval_columns, lcp_interval_tree

encoded_seqs = st.lists(
    st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=20).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    min_size=2,
    max_size=5,
)


def naive_maximal_matches(seqs, min_length):
    """O(total^3)-ish brute force: all (i, pi, j, pj) maximal matches."""
    out = set()
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            a, b = seqs[i], seqs[j]
            for pi in range(len(a)):
                for pj in range(len(b)):
                    # left-maximal?
                    if pi > 0 and pj > 0 and a[pi - 1] == b[pj - 1]:
                        continue
                    length = 0
                    while (
                        pi + length < len(a)
                        and pj + length < len(b)
                        and a[pi + length] == b[pj + length]
                    ):
                        length += 1
                    if length >= min_length:
                        out.add((i, pi, j, pj, length))
    return out


def _columns(lcp, min_depth):
    return list(zip(*(column.tolist() for column in lcp_intervals(lcp, min_depth))))


class TestLcpIntervalTree:
    """The oracle's stack walk on hand-checked arrays (it is the
    reference :class:`TestLcpIntervals` holds the columns to)."""

    def test_empty(self):
        assert lcp_interval_tree(np.array([], dtype=np.int64)) == []

    def test_flat_lcp_no_intervals(self):
        lcp = np.array([0, 0, 0, 0], dtype=np.int64)
        assert lcp_interval_tree(lcp, min_depth=1) == []

    def test_single_interval(self):
        # suffixes 1 and 2 share a prefix of 3
        lcp = np.array([0, 3, 0], dtype=np.int64)
        nodes = lcp_interval_tree(lcp, min_depth=1)
        assert len(nodes) == 1
        assert (nodes[0].depth, nodes[0].lb, nodes[0].rb) == (3, 0, 1)

    def test_nested_intervals_child_links(self):
        # depths: deep interval [1..2] at 5 inside shallow [0..3] at 2
        lcp = np.array([0, 2, 5, 2], dtype=np.int64)
        nodes = lcp_interval_tree(lcp, min_depth=1)
        by_depth = {n.depth: n for n in nodes}
        assert set(by_depth) == {2, 5}
        deep, shallow = by_depth[5], by_depth[2]
        assert (deep.lb, deep.rb) == (1, 2)
        assert (shallow.lb, shallow.rb) == (0, 3)
        assert deep in shallow.children

    def test_child_ranges_partition(self):
        lcp = np.array([0, 2, 5, 2], dtype=np.int64)
        nodes = lcp_interval_tree(lcp, min_depth=1)
        shallow = [n for n in nodes if n.depth == 2][0]
        ranges = shallow.child_ranges()
        covered = sorted(p for lo, hi in ranges for p in range(lo, hi + 1))
        assert covered == list(range(shallow.lb, shallow.rb + 1))

    def test_min_depth_filters_output_not_structure(self):
        lcp = np.array([0, 2, 5, 2], dtype=np.int64)
        nodes = lcp_interval_tree(lcp, min_depth=3)
        assert [n.depth for n in nodes] == [5]

    def test_root_only_at_min_depth_zero(self):
        lcp = np.array([0, 0], dtype=np.int64)
        nodes = lcp_interval_tree(lcp, min_depth=0)
        assert len(nodes) == 1 and nodes[0].depth == 0


def _saw_tooth(n):
    return np.tile(np.arange(1, 9), n // 8 + 1)[:n]


#: LCP arrays (``lcp[0] = 0`` then the shape) on which a nearest-smaller
#: scan by pointer jumping has the furthest to go.
LCP_SHAPES = {
    "all_equal": lambda n: np.full(n, 4),
    "rising": lambda n: np.arange(1, n + 1),
    "falling": lambda n: np.arange(n, 0, -1),
    "saw_tooth": _saw_tooth,
    "falling_teeth": lambda n: _saw_tooth(n)[::-1],
    "stair_then_drop": lambda n: np.append(np.arange(1, n), 1),
    "plateaus": lambda n: np.repeat(np.arange(1, n // 4 + 2), 4)[:n],
}


class TestLcpIntervals:
    """``lcp_intervals`` is the stack walk's node list as columns, in
    stream order."""

    @given(
        st.lists(st.integers(0, 6), max_size=80).map(lambda xs: np.array([0] + xs)),
        st.sampled_from([1, 3, "max"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_arrays_equal_the_stack_walk(self, lcp, min_depth):
        if min_depth == "max":
            min_depth = max(int(lcp.max()), 1)
        assert _columns(lcp, min_depth) == interval_columns(lcp, min_depth)

    @pytest.mark.parametrize("shape", LCP_SHAPES)
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
    def test_worst_case_shapes_equal_the_stack_walk(self, shape, n):
        lcp = np.append(0, LCP_SHAPES[shape](n))
        for min_depth in (1, 3, int(lcp.max())):
            assert _columns(lcp, min_depth) == interval_columns(lcp, min_depth)

    def test_columns_are_int64_and_empty_when_nothing_is_deep(self):
        for lcp in (np.array([], dtype=np.int64), np.array([0]), np.array([0, 2, 1])):
            columns = lcp_intervals(lcp, 3)
            assert [c.dtype for c in columns] == [np.int64] * 3
            assert [len(c) for c in columns] == [0, 0, 0]

    def test_the_virtual_root_is_not_a_node(self):
        with pytest.raises(ValueError):
            lcp_intervals(np.array([0, 0]), 0)

    @given(encoded_seqs, st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_index_lcp_arrays_equal_the_stack_walk(self, seqs, min_depth):
        lcp = GeneralizedSuffixArray(seqs).lcp
        assert _columns(lcp, min_depth) == interval_columns(lcp, min_depth)


class TestMaximalMatchFinder:
    def test_simple_shared_word(self):
        seqs = [encode("ARNDW"), encode("KARND")]
        finder = MaximalMatchFinder(seqs, min_length=4)
        matches = list(finder.matches())
        assert MaximalMatch(0, 0, 1, 1, 4) in matches

    def test_decreasing_order(self):
        seqs = [encode("ARNDCQEG"), encode("ARNDCQEG"), encode("ARNDWWWW")]
        lengths = [m.length for m in MaximalMatchFinder(seqs, min_length=2).matches()]
        assert lengths == sorted(lengths, reverse=True)

    def test_unique_pairs_takes_longest(self):
        seqs = [encode("ARNDCQEGWWWARN"), encode("ARNDCQEGKKKARN")]
        finder = MaximalMatchFinder(seqs, min_length=3)
        uniques = list(finder.unique_pairs())
        assert len(uniques) == 1
        assert uniques[0].length == 8

    def test_no_same_sequence_pairs(self):
        seqs = [encode("ARNDARND"), encode("WYVK")]
        for m in MaximalMatchFinder(seqs, min_length=3).matches():
            assert m.seq_a != m.seq_b

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            MaximalMatchFinder([encode("AR")], min_length=0)

    def test_cap_limits_pairs(self):
        """The capped stream is the uncapped one truncated per node."""
        seqs = [encode("ARNDCQ").copy() for _ in range(6)]
        capped = MaximalMatchFinder(seqs, min_length=3, max_pairs_per_node=5)
        walk = ScalarMatchFinder(seqs, min_length=3)
        per_node = [list(walk.node_matches(node)) for node in walk.nodes]
        assert any(len(rows) > 5 for rows in per_node)
        assert list(capped.matches()) == [m for rows in per_node for m in rows[:5]]

    @given(encoded_seqs)
    @settings(max_examples=30, deadline=None)
    def test_matches_equal_gst_oracle(self, seqs):
        finder = MaximalMatchFinder(seqs, min_length=2)
        sa_matches = {
            (m.seq_a, m.pos_a, m.seq_b, m.pos_b, m.length) for m in finder.matches()
        }
        gst_matches = GeneralizedSuffixTree(seqs).maximal_match_pairs(2)
        assert sa_matches == gst_matches

    @given(encoded_seqs)
    @settings(max_examples=20, deadline=None)
    def test_matches_equal_bruteforce(self, seqs):
        finder = MaximalMatchFinder(seqs, min_length=2)
        sa_matches = {
            (m.seq_a, m.pos_a, m.seq_b, m.pos_b, m.length) for m in finder.matches()
        }
        assert sa_matches == naive_maximal_matches(seqs, 2)


def _rows(block):
    return list(block.matches())


def _renamed(match, ids):
    """``match`` with its sequence indices read through ``ids``."""
    return MaximalMatch(ids[match.seq_a], match.pos_a, ids[match.seq_b], match.pos_b,
                        match.length)


#: Small alphabets and short sequences make what the generator has to
#: get right common: long repeats (deep, wide nodes with non-singleton
#: children), identical sequences, matches touching sequence starts and
#: ends, one-residue sequences.
repetitive_seqs = st.builds(
    lambda seqs, copies: seqs + [seqs[i % len(seqs)].copy() for i in copies],
    st.lists(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=14).map(
            lambda xs: np.array(xs, dtype=np.uint8)
        ),
        min_size=2,
        max_size=5,
    ),
    st.lists(st.integers(min_value=0, max_value=4), max_size=2),
)
budgets = st.sampled_from([1, 2, 5, 16, matches_module.CANDIDATE_BUDGET])


class TestBlockStreamOrder:
    """The concatenated blocks are the scalar walk, element for element —
    whatever the candidate budget cuts them into."""

    @given(repetitive_seqs, st.integers(1, 4), budgets)
    @settings(max_examples=120, deadline=None)
    def test_blocks_equal_scalar_walk(self, seqs, min_length, budget):
        walk = ScalarMatchFinder(seqs, min_length=min_length)
        finder = MaximalMatchFinder(seqs, min_length=min_length)
        expected = list(walk.matches())
        # The same sequences labelled inside a larger index stream what
        # the finder's own index over them does, ids shifted.
        padded = GeneralizedSuffixArray([seqs[-1][:1], *seqs, seqs[0]])
        labelled = MaximalMatchFinder(
            padded, min_length=min_length, labels=[-1] + [0] * len(seqs) + [1]
        )
        assert [_renamed(m, range(-1, len(seqs))) for m in labelled.matches()] == expected
        with mock.patch.object(matches_module, "CANDIDATE_BUDGET", budget):
            blocks = list(finder.match_blocks())
            assert [m for block in blocks for m in _rows(block)] == expected
            assert list(finder.matches()) == expected
            assert list(finder.unique_pairs()) == list(walk.unique_pairs())
        assert sum(block.candidates for block in blocks) == walk.cross_child_pairs()
        for block in blocks:
            assert len(block) <= block.candidates
            if block.candidates > budget:
                # Only a single split row x may exceed the budget: every
                # match of the block then has the suffix x on one side.
                shared = set.intersection(
                    *({(m.seq_a, m.pos_a), (m.seq_b, m.pos_b)} for m in _rows(block))
                ) if len(block) else {None}
                assert shared

    @given(repetitive_seqs, st.integers(1, 4), budgets, st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_capped_blocks_equal_capped_walk(self, seqs, min_length, budget, cap):
        walk = ScalarMatchFinder(seqs, min_length=min_length, max_pairs_per_node=cap)
        finder = MaximalMatchFinder(seqs, min_length=min_length, max_pairs_per_node=cap)
        uncapped = [list(walk.node_matches(node)) for node in walk.nodes]
        with mock.patch.object(matches_module, "CANDIDATE_BUDGET", budget):
            stream = list(finder.matches())
        assert stream == list(walk.matches())
        assert stream == [m for rows in uncapped for m in rows[:cap]]

    @given(repetitive_seqs, st.integers(1, 3), budgets, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_bucket_streams_are_the_walks_subsequences(
        self, seqs, min_length, budget, rng
    ):
        walk = ScalarMatchFinder(seqs, min_length=min_length)
        finder = MaximalMatchFinder(seqs, min_length=min_length)
        symbols = finder.bucket_symbols()
        assert symbols == walk.bucket_symbols()
        assert finder.bucket_sizes() == walk.bucket_sizes()
        parts: list[set[int]] = [set(), set(), set()]
        for symbol in symbols:
            rng.choice(parts).add(symbol)
        with mock.patch.object(matches_module, "CANDIDATE_BUDGET", budget):
            for part in parts:
                assert list(finder.matches_for_symbols(part)) == list(
                    walk.matches_for_symbols(part)
                )

    def test_first_per_pair_keeps_stream_order(self):
        seqs = [encode("ARNDCQEGWWWARN"), encode("ARNDCQEGKKKARN"), encode("WWARNDC")]
        for block in MaximalMatchFinder(seqs, min_length=3).match_blocks():
            seen, firsts = set(), []
            for match in _rows(block):
                if match.pair not in seen:
                    seen.add(match.pair)
                    firsts.append(match)
            assert _rows(block.first_per_pair()) == firsts


#: A tiny alphabet and short sequences, then planted on top: exact
#: duplicates, a piece contained in another, one-residue sequences — the
#: cases where suffixes tie up to their sentinels and only the
#: sentinels' order decides.
hostile_seqs = st.builds(
    lambda seqs, copies, pieces, singles: [
        np.array(xs, dtype=np.uint8)
        for xs in (
            seqs
            + [seqs[i % len(seqs)] for i in copies]
            + [seqs[i % len(seqs)][lo : lo + width] or seqs[0][:1] for i, lo, width in pieces]
            + [[x] for x in singles]
        )
    ],
    st.lists(
        st.lists(st.integers(0, 2), min_size=1, max_size=12), min_size=1, max_size=5
    ),
    st.lists(st.integers(0, 4), max_size=3),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(1, 6)), max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
)




@st.composite
def labelled_collections(draw):
    """A collection and a label column: random labels with -1 among
    them, one shared label, or every sequence its own."""
    seqs = draw(st.one_of(repetitive_seqs, hostile_seqs))
    n = len(seqs)
    labels = draw(st.one_of(
        st.lists(st.integers(-1, 2), min_size=n, max_size=n),
        st.just([0] * n),
        st.just(list(range(n))),
    ))
    return seqs, labels


class TestLabelledStream:
    """A labelled stream of the full index is, label by label, the
    stream of an index rebuilt over that label's sequences: the rows in
    order, ids mapped, capped or not, however the budget cuts blocks."""

    @staticmethod
    def assert_each_label_is_its_rebuild(seqs, labels, min_length, cap):
        finder = MaximalMatchFinder(
            seqs, min_length=min_length, max_pairs_per_node=cap, labels=labels
        )
        rows = [m for block in finder.match_blocks() for m in _rows(block)]
        assert all(labels[m.seq_a] == labels[m.seq_b] >= 0 for m in rows)
        unique = list(finder.unique_pairs())
        for label in sorted(set(labels) - {-1}):
            members = [k for k, mine in enumerate(labels) if mine == label]
            rebuilt = MaximalMatchFinder(
                [seqs[k] for k in members], min_length=min_length,
                max_pairs_per_node=cap,
            )
            assert [m for m in rows if labels[m.seq_a] == label] == [
                _renamed(m, members) for m in rebuilt.matches()
            ]
            assert [m for m in unique if labels[m.seq_a] == label] == [
                _renamed(m, members) for m in rebuilt.unique_pairs()
            ]
        return rows

    @given(labelled_collections(), st.integers(1, 4), budgets,
           st.one_of(st.none(), st.integers(1, 6)))
    @settings(max_examples=150, deadline=None)
    def test_each_label_streams_its_rebuild(self, case, min_length, budget, cap):
        seqs, labels = case
        with mock.patch.object(matches_module, "CANDIDATE_BUDGET", budget):
            self.assert_each_label_is_its_rebuild(seqs, labels, min_length, cap)

    @pytest.mark.parametrize("cap", [None, 7])
    def test_a_node_wider_than_the_budget(self, cap):
        """260 copies of one word: a node of 33,670 slot pairs, split
        into pieces, each label's cap carried across them."""
        seqs = [encode("ARNDC")] * 260
        labels = np.random.default_rng(3).integers(-1, 3, len(seqs)).tolist()
        rows = self.assert_each_label_is_its_rebuild(seqs, labels, 5, cap)
        assert len(rows) == (
            3 * cap if cap else sum(labels.count(k) * (labels.count(k) - 1) // 2
                                    for k in range(3))
        )

    def test_a_label_column_must_cover_the_collection(self):
        seqs = [encode("ARND"), encode("ARNDC")]
        with pytest.raises(ValueError):
            MaximalMatchFinder(seqs, labels=[0])
        with pytest.raises(ValueError):
            MaximalMatchFinder(seqs, labels=[[0, 0]])


class TestBucketPartition:
    def _finder(self):
        seqs = [encode("ARNDCQEGARWW"), encode("ARNDKKCQEG"), encode("RNDCQWYV")]
        return MaximalMatchFinder(seqs, min_length=3)

    def test_bucket_union_equals_all_matches(self):
        finder = self._finder()
        symbols = finder.bucket_symbols()
        all_matches = sorted(
            (m.seq_a, m.pos_a, m.seq_b, m.pos_b, m.length) for m in finder.matches()
        )
        union = []
        for s in symbols:
            union.extend(
                (m.seq_a, m.pos_a, m.seq_b, m.pos_b, m.length)
                for m in finder.matches_for_symbols({s})
            )
        assert sorted(union) == all_matches

    def test_bucket_sizes_positive(self):
        finder = self._finder()
        assert all(v > 0 for v in finder.bucket_sizes().values())
