"""Generalized suffix tree and w-mer index tests."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.prefilter import kmer_codes, KmerPrefilter
from repro.sequence.alphabet import encode, decode
from repro.suffix.wmer import WmerIndex
from tests.oracle_gst import GeneralizedSuffixTree
from tests.scalar_wmer import wmer_incidence

encoded_seqs = st.lists(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=25).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    min_size=1,
    max_size=4,
)


def shared_kmer_count(a: np.ndarray, b: np.ndarray, k: int) -> int:
    """Number of distinct k-mers occurring in both sequences: the pair
    at a time count ``KmerPrefilter`` is held to (it lived in
    ``repro.align.prefilter`` with no caller but these tests)."""
    return len(np.intersect1d(np.unique(kmer_codes(a, k)), np.unique(kmer_codes(b, k))))


class TestGst:
    def test_contains_all_substrings(self):
        seqs = [encode("ARNDCQ"), encode("WYVKMF")]
        gst = GeneralizedSuffixTree(seqs)
        for seq in seqs:
            s = decode(seq)
            for i in range(len(s)):
                for j in range(i + 1, len(s) + 1):
                    assert gst.contains(encode(s[i:j])), s[i:j]

    def test_does_not_contain_absent(self):
        gst = GeneralizedSuffixTree([encode("ARND")])
        assert not gst.contains(encode("RND" + "W"))
        assert not gst.contains(encode("K"))

    @given(encoded_seqs)
    @settings(max_examples=30, deadline=None)
    def test_contains_matches_python_in(self, seqs):
        gst = GeneralizedSuffixTree(seqs)
        texts = [decode(s) for s in seqs]
        rng = np.random.default_rng(0)
        for _ in range(10):
            probe = rng.integers(0, 6, size=int(rng.integers(1, 6))).astype(np.uint8)
            expected = any(decode(probe) in t for t in texts)
            assert gst.contains(probe) == expected

    def test_leaf_occurrence_count(self):
        # total suffix occurrences = total characters (+terminators end at leaves)
        seqs = [encode("ARND"), encode("AR")]
        gst = GeneralizedSuffixTree(seqs)
        occ = gst.leaf_occurrences(gst.root)
        # each suffix of each extended string (with terminator) inserted once
        assert len(occ) == (4 + 1) + (2 + 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GeneralizedSuffixTree([])
        with pytest.raises(ValueError):
            GeneralizedSuffixTree([np.array([], dtype=np.uint8)])

    def test_node_count_grows(self):
        small = GeneralizedSuffixTree([encode("AR")])
        big = GeneralizedSuffixTree([encode("ARNDCQEGHILK")])
        assert big.n_nodes > small.n_nodes


class TestKmerCodes:
    def test_basic(self):
        seq = encode("ARND")
        codes = kmer_codes(seq, 2)
        assert len(codes) == 3
        # 'AR' = 0*20 + 1
        assert codes[0] == 1

    def test_short_sequence(self):
        assert kmer_codes(encode("AR"), 5).size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            kmer_codes(encode("ARND"), 0)
        with pytest.raises(ValueError):
            kmer_codes(encode("ARND"), 14)

    def test_distinct_kmers_distinct_codes(self):
        seq = encode("ARNDCQEGHILKMFPSTWYV")
        codes = kmer_codes(seq, 3)
        assert len(np.unique(codes)) == len(codes)

    def test_shared_kmer_count(self):
        a, b = encode("ARNDCQ"), encode("WWNDCQ")
        # shared 3-mers: NDC, DCQ
        assert shared_kmer_count(a, b, 3) == 2


class TestKmerPrefilter:
    def test_candidate_pairs_vs_bruteforce(self):
        rng = np.random.default_rng(8)
        seqs = [rng.integers(0, 20, 30).astype(np.uint8) for _ in range(8)]
        seqs[3] = seqs[0].copy()  # guarantee a sharing pair
        pf = KmerPrefilter(k=3, min_shared=2)
        for seq in seqs:
            pf.add(seq)
        got = set(pf.candidate_pairs())
        expected = {
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if shared_kmer_count(seqs[i], seqs[j], 3) >= 2
        }
        assert got == expected

    def test_min_shared_validation(self):
        with pytest.raises(ValueError):
            KmerPrefilter(k=3, min_shared=0)

    def test_len(self):
        pf = KmerPrefilter(k=2)
        pf.add(encode("ARND"))
        assert len(pf) == 1


class TestWmerIndex:
    def test_shared_wmers_found(self):
        seqs = [encode("WWARNDCQEGHIKK"), encode("YYARNDCQEGHIVV")]
        idx = WmerIndex(seqs, w=10, min_sequences=2)
        assert idx.n_wmers >= 1
        assert set(idx.incidence[:, 1].tolist()) == {0, 1}

    def test_unshared_excluded(self):
        seqs = [encode("ARNDCQEGHILK"), encode("WYVMFPSTWYVK")]
        idx = WmerIndex(seqs, w=10, min_sequences=2)
        assert idx.n_wmers == 0
        assert idx.incidence.shape == (0, 2)

    def test_incidence_is_the_per_sequence_index(self):
        seqs = [encode("AAAARNDCQEGHI"), encode("AAAARNDCQEGHI"), encode("WWWWWWWWWWWW")]
        idx = WmerIndex(seqs, w=8, min_sequences=2)
        codes, edges = wmer_incidence(seqs, 8, 2)
        assert idx.codes.tolist() == codes
        assert [tuple(row) for row in idx.incidence.tolist()] == edges

    def test_shared_wmer_counts_vs_bruteforce(self):
        rng = np.random.default_rng(1)
        base = rng.integers(0, 20, 40).astype(np.uint8)
        seqs = [base.copy(), base.copy(), rng.integers(0, 20, 40).astype(np.uint8)]
        idx = WmerIndex(seqs, w=6, min_sequences=2)
        # Shared qualifying w-mers per sequence pair, off the incidence edges.
        owners: dict[int, list[int]] = {}
        for wmer, seq in idx.incidence.tolist():
            owners.setdefault(wmer, []).append(seq)
        counts = Counter(pair for seqs in owners.values()
                         for pair in combinations(sorted(seqs), 2))
        assert counts[(0, 1)] == 35  # all 6-mers of identical 40-mers
        assert (0, 2) not in counts or counts[(0, 2)] < 5

    def test_min_sequences_validation(self):
        with pytest.raises(ValueError):
            WmerIndex([encode("ARND")], w=2, min_sequences=0)
