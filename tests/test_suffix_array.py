"""Suffix array + LCP versus naive oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import encode
from repro.suffix.matches import MaximalMatchFinder
from repro.suffix.suffix_array import GeneralizedSuffixArray, lcp_array, suffix_array
from tests.scalar_finder import is_sentinel_position, kasai_lcp, locate, preceding_symbol

small_text = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=60
).map(lambda xs: np.array(xs, dtype=np.int64))

encoded_seqs = st.lists(
    st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=25).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    min_size=1,
    max_size=5,
)


def naive_suffix_array(text):
    suffixes = sorted(range(len(text)), key=lambda i: list(text[i:]))
    return np.array(suffixes, dtype=np.int64)


def naive_lcp(text, sa):
    n = len(text)
    lcp = np.zeros(n, dtype=np.int64)
    for r in range(1, n):
        i, j = sa[r - 1], sa[r]
        h = 0
        while i + h < n and j + h < n and text[i + h] == text[j + h]:
            h += 1
        lcp[r] = h
    return lcp


class TestSuffixArray:
    def test_empty(self):
        assert suffix_array(np.array([], dtype=np.int64)).size == 0

    def test_banana_like(self):
        # "banana" with b=1,a=0,n=2 -> suffixes of 102020
        text = np.array([1, 0, 2, 0, 2, 0], dtype=np.int64)
        assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()

    def test_all_equal_symbols(self):
        text = np.zeros(10, dtype=np.int64)
        assert suffix_array(text).tolist() == list(range(9, -1, -1))

    @given(small_text)
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, text):
        assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()

    @given(small_text)
    @settings(max_examples=60, deadline=None)
    def test_kasai_matches_naive(self, text):
        """The column-pass LCP, and the scalar Kasai loop the oracle
        keeps, both equal the definition — on texts with no sentinel."""
        sa = suffix_array(text)
        assert lcp_array(text, sa).tolist() == naive_lcp(text, sa).tolist()
        assert kasai_lcp(text, sa).tolist() == naive_lcp(text, sa).tolist()

    @pytest.mark.parametrize(
        "text",
        [
            np.arange(30)[::-1].copy(),  # no symbol twice: every LCP is 0
            np.arange(30),
            np.zeros(1, dtype=np.int64),
            np.zeros(40, dtype=np.int64),  # one pass per residue
        ],
        ids=["no_repeat_falling", "no_repeat_rising", "one_symbol", "all_equal"],
    )
    def test_lcp_extremes(self, text):
        sa = suffix_array(text)
        lcp = lcp_array(text, sa)
        assert lcp.dtype == np.int64
        assert lcp.tolist() == naive_lcp(text, sa).tolist()

    def test_lcp_of_one_sequence_repeated_40_times(self):
        gsa = GeneralizedSuffixArray([encode("ARNDARNDCQ")] * 40)
        assert gsa.lcp.tolist() == naive_lcp(gsa.text, gsa.sa).tolist()
        assert gsa.lcp.max() == 10

    def test_is_permutation(self):
        rng = np.random.default_rng(4)
        text = rng.integers(0, 5, 200)
        sa = suffix_array(text)
        assert sorted(sa.tolist()) == list(range(200))

    @given(st.lists(st.sampled_from([0, 1, 19, 20, 999, 10**5, 10**6]),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_sparse_symbol_values(self, symbols):
        """Symbols far above the text length (sentinel-like values): the
        single-key rounds rank them densely first."""
        text = np.array(symbols, dtype=np.int64)
        assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()

    @pytest.mark.parametrize("period", [[0], [1, 0], [2, 0, 1], [5, 5, 3]])
    @pytest.mark.parametrize("length", [2, 33, 257, 1000])
    def test_long_periodic_texts(self, period, length):
        """Suffixes that agree up to the shorter one's end: ranks stay
        tied for ~log2(n) rounds (10 at n = 1,000), and only the pad past
        the end orders them."""
        text = np.resize(np.array(period, dtype=np.int64), length)
        assert suffix_array(text).tolist() == naive_suffix_array(text).tolist()


class TestGeneralizedSuffixArray:
    def test_no_sequences_is_an_empty_index(self):
        """An empty input has the empty answer: six empty arrays (one
        start), no match."""
        gsa = GeneralizedSuffixArray([])
        assert gsa.n_sequences == 0 and gsa.starts.tolist() == [0]
        for name in ("text", "sa", "lcp", "seq", "off"):
            assert getattr(gsa, name).tolist() == [], name
        assert list(MaximalMatchFinder(gsa, min_length=2).match_blocks()) == []

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            GeneralizedSuffixArray([encode("AR"), np.array([], dtype=np.uint8)])

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ValueError):
            GeneralizedSuffixArray([np.array([25], dtype=np.uint8)])

    def test_locate_roundtrip(self):
        seqs = [encode("ARND"), encode("CQ"), encode("WYV")]
        gsa = GeneralizedSuffixArray(seqs)
        # positions 0..3 -> seq 0, 4 sentinel0, 5..6 seq 1, ...
        assert locate(gsa, 0) == (0, 0)
        assert locate(gsa, 3) == (0, 3)
        assert locate(gsa, 5) == (1, 0)
        assert locate(gsa, 10) == (2, 2)

    def test_locate_many_matches_locate(self):
        """The per-slot ``seq`` / ``off`` columns are the oracle's scalar
        ``locate`` of every suffix."""
        seqs = [encode("ARNDAR"), encode("NDARN")]
        gsa = GeneralizedSuffixArray(seqs)
        assert gsa.seq.dtype == gsa.off.dtype == np.int64
        for slot, position in enumerate(gsa.sa.tolist()):
            assert (gsa.seq[slot], gsa.off[slot]) == locate(gsa, position)

    def test_sentinels_unique_so_no_cross_boundary_lcp(self):
        # two identical sequences: lcp between their suffixes stops at the
        # sequence length (sentinels differ).
        seqs = [encode("ARND"), encode("ARND")]
        gsa = GeneralizedSuffixArray(seqs)
        assert gsa.lcp.max() == 4

    @given(encoded_seqs)
    @settings(max_examples=40, deadline=None)
    def test_lcp_never_spans_sentinel(self, seqs):
        gsa = GeneralizedSuffixArray(seqs)
        max_len = max(len(s) for s in seqs)
        assert gsa.lcp.max() <= max_len

    def test_preceding_symbol(self):
        gsa = GeneralizedSuffixArray([encode("AR"), encode("ND")])
        assert preceding_symbol(gsa, 0) == -1
        assert preceding_symbol(gsa, 1) == 0  # 'A'
        assert preceding_symbol(gsa, 3) >= 20  # sentinel before seq 1

    def test_is_sentinel_position(self):
        gsa = GeneralizedSuffixArray([encode("AR")])
        assert not is_sentinel_position(gsa, 0)
        assert is_sentinel_position(gsa, 2)
