"""Ukkonen linear-time suffix tree tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import decode, encode
from tests.oracle_ukkonen import SuffixTree

small_seq = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=50
).map(lambda xs: np.array(xs, dtype=np.uint8))


def naive_occurrences(seq, pat):
    n, l = len(seq), len(pat)
    return [k for k in range(n - l + 1) if np.array_equal(seq[k : k + l], pat)]


class TestConstruction:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SuffixTree(np.array([], dtype=np.uint8))
        with pytest.raises(ValueError):
            SuffixTree(np.array([30], dtype=np.uint8))

    @given(small_seq)
    @settings(max_examples=60, deadline=None)
    def test_leaf_count_is_n_plus_one(self, seq):
        """Every suffix (including the sentinel-only one) ends at a leaf."""
        tree = SuffixTree(seq)
        leaves = sum(1 for node in tree.iter_nodes() if not node.children)
        assert leaves == len(seq) + 1

    @given(small_seq)
    @settings(max_examples=60, deadline=None)
    def test_node_count_linear(self, seq):
        """A suffix tree has at most 2n nodes (plus root and sentinel leaf)."""
        tree = SuffixTree(seq)
        assert tree.n_nodes() <= 2 * (len(seq) + 1) + 1

    @given(small_seq)
    @settings(max_examples=40, deadline=None)
    def test_suffix_indices_are_a_permutation(self, seq):
        tree = SuffixTree(seq)
        indices = sorted(
            node.suffix_index for node in tree.iter_nodes() if not node.children
        )
        assert indices == list(range(len(seq) + 1))


class TestQueries:
    def test_contains(self):
        tree = SuffixTree(encode("ARNDARND"))
        assert tree.contains(encode("NDAR"))
        assert tree.contains(encode("ARNDARND"))
        assert not tree.contains(encode("RR"))
        assert tree.contains(np.array([], dtype=np.uint8))

    def test_occurrences(self):
        tree = SuffixTree(encode("ARNDARND"))
        assert tree.occurrences(encode("ARND")) == [0, 4]
        assert tree.occurrences(encode("D")) == [3, 7]
        assert tree.occurrences(encode("W")) == []
        assert tree.count_occurrences(encode("ND")) == 2

    @given(small_seq, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_occurrences_match_naive(self, seq, probe_seed):
        tree = SuffixTree(seq)
        rng = np.random.default_rng(probe_seed)
        for _ in range(5):
            l = int(rng.integers(1, len(seq) + 1))
            start = int(rng.integers(0, len(seq) - l + 1))
            pat = seq[start : start + l]
            assert tree.occurrences(pat) == naive_occurrences(seq, pat)
        absent = rng.integers(0, 4, size=6).astype(np.uint8)
        assert tree.contains(absent) == (len(naive_occurrences(seq, absent)) > 0)

    def test_longest_repeated_substring(self):
        tree = SuffixTree(encode("ARNDARNDCQ"))
        assert decode(tree.longest_repeated_substring().astype(np.uint8)) == "ARND"

    def test_no_repeat(self):
        tree = SuffixTree(encode("ARND"))
        assert tree.longest_repeated_substring().size == 0

    @given(small_seq)
    @settings(max_examples=40, deadline=None)
    def test_lrs_occurs_twice(self, seq):
        tree = SuffixTree(seq)
        lrs = tree.longest_repeated_substring()
        if lrs.size:
            assert len(naive_occurrences(seq, lrs.astype(np.uint8))) >= 2
