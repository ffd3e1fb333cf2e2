"""Alignment kernels versus a brute-force oracle, plus predicate tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.matrices import (
    BLOSUM62,
    IDENTITY_MATRIX,
    ScoringScheme,
    blosum62_scheme,
    identity_scheme,
)
from repro.align.batch import align_columns
from repro.align.pairwise import Alignment, alignment_cells
from repro.align.predicates import (
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
    contained,
    containment_stats,
    containment_verdicts,
    overlaps,
)
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.alphabet import encode
from tests.scalar_align import (
    _fill,
    alignment_table,
    containment_test,
    containment_verdict,
    global_align,
    infix_distance_oracle,
    local_align,
    overlap_test,
    semiglobal_align,
)

encoded_seq = st.lists(
    st.integers(min_value=0, max_value=19), min_size=1, max_size=40
).map(lambda xs: np.array(xs, dtype=np.uint8))


def oracle_fill(a, b, scheme, mode):
    """O(mn) pure-Python reference DP."""
    m, n = len(a), len(b)
    g = scheme.gap
    H = [[0] * (n + 1) for _ in range(m + 1)]
    if mode == "global":
        for i in range(m + 1):
            H[i][0] = g * i
        for j in range(n + 1):
            H[0][j] = g * j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            v = max(
                H[i - 1][j - 1] + int(scheme.matrix[a[i - 1], b[j - 1]]),
                H[i - 1][j] + g,
                H[i][j - 1] + g,
            )
            if mode == "local":
                v = max(v, 0)
            H[i][j] = v
    return np.array(H, dtype=np.int32)


def oracle_infix(pattern, text):
    """O(mn) pure-Python infix edit distance, one cell at a time."""
    m, n = len(pattern), len(text)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (pattern[i - 1] != text[j - 1]),
            )
        prev = cur
    return min(prev)


class TestInfixDistanceOracle:
    @given(encoded_seq, st.lists(st.integers(0, 19), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_row_sweep_matches_cell_loop(self, p, t):
        assert infix_distance_oracle(p, t) == oracle_infix(p.tolist(), t)

    def test_known_values(self):
        assert infix_distance_oracle([1, 2, 3], [9, 1, 2, 3, 9]) == 0
        assert infix_distance_oracle([1, 2, 3], [9, 1, 3, 9]) == 1
        assert infix_distance_oracle([1, 2, 3], []) == 3


class TestMatrices:
    def test_blosum62_symmetric(self):
        assert np.array_equal(BLOSUM62, BLOSUM62.T)

    def test_blosum62_known_entries(self):
        from repro.sequence.alphabet import AA_TO_INDEX as IX

        assert BLOSUM62[IX["W"], IX["W"]] == 11
        assert BLOSUM62[IX["A"], IX["A"]] == 4
        assert BLOSUM62[IX["L"], IX["I"]] == 2
        assert BLOSUM62[IX["W"], IX["P"]] == -4

    def test_identity_matrix(self):
        assert IDENTITY_MATRIX[3, 3] == 1
        assert IDENTITY_MATRIX[3, 4] == -1

    def test_scheme_validation(self):
        with pytest.raises(ValueError, match="gap"):
            ScoringScheme(matrix=BLOSUM62, gap=0)
        with pytest.raises(ValueError, match="symmetric"):
            bad = BLOSUM62.copy()
            bad[0, 1] = 99
            ScoringScheme(matrix=bad, gap=-1)
        with pytest.raises(ValueError, match="20x20"):
            ScoringScheme(matrix=np.eye(4), gap=-1)


class TestFillOracle:
    @given(encoded_seq, encoded_seq)
    @settings(max_examples=40, deadline=None)
    def test_fill_matches_oracle_all_modes(self, a, b):
        for scheme in (identity_scheme(), blosum62_scheme()):
            for mode in ("global", "local", "semiglobal"):
                H = _fill(a, b, scheme, mode)
                assert np.array_equal(H, oracle_fill(a, b, scheme, mode)), (
                    scheme.name,
                    mode,
                )


class TestGlobalAlign:
    def test_identical(self):
        a = encode("ARNDCQEG")
        aln = global_align(a, a, identity_scheme())
        assert aln.score == 8
        assert aln.identity == 1.0
        assert aln.matches == 8
        assert aln.gaps == 0

    def test_single_mismatch(self):
        aln = global_align(encode("ARND"), encode("ARWD"), identity_scheme())
        assert aln.score == 2
        assert aln.matches == 3
        assert aln.length == 4

    def test_gap_preferred_when_cheap(self):
        # deletion of one char
        aln = global_align(encode("ARND"), encode("ARD"), identity_scheme())
        assert aln.matches == 3
        assert aln.gaps == 1
        assert aln.length == 4

    def test_spans_are_full(self):
        a, b = encode("ARNDAR"), encode("ARND")
        aln = global_align(a, b)
        assert (aln.a_start, aln.a_end) == (0, 6)
        assert (aln.b_start, aln.b_end) == (0, 4)

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_symmetry_of_score(self, a, b):
        assert global_align(a, b).score == global_align(b, a).score

    @given(encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_self_alignment_is_perfect(self, a):
        aln = global_align(a, a, identity_scheme())
        assert aln.score == len(a)
        assert aln.identity == 1.0


class TestLocalAlign:
    def test_embedded_motif(self):
        aln = local_align(encode("WWWWARNDCQEG"), encode("KKKKKARNDCQEGKK"))
        assert aln.identity == 1.0
        assert aln.a_end - aln.a_start == 8
        assert (aln.a_start, aln.b_start) == (4, 5)

    def test_score_nonnegative(self):
        aln = local_align(encode("WWWW"), encode("KKKK"))
        assert aln.score >= 0
        assert aln.length == 0 or aln.identity >= 0

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_local_at_least_zero_and_bounded(self, a, b):
        aln = local_align(a, b, identity_scheme())
        assert 0 <= aln.score <= min(len(a), len(b))
        assert aln.matches <= aln.length

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_local_geq_global(self, a, b):
        scheme = blosum62_scheme()
        assert local_align(a, b, scheme).score >= global_align(a, b, scheme).score


class TestSemiglobal:
    def test_prefix_suffix_overlap(self):
        # suffix of a overlaps prefix of b, free ends
        a, b = encode("WWWARND"), encode("ARNDKKK")
        aln = semiglobal_align(a, b, identity_scheme())
        assert aln.score == 4
        assert aln.identity == 1.0

    def test_containment_free_ends(self):
        inner, outer = encode("ARNDCQ"), encode("WWARNDCQWW")
        aln = semiglobal_align(inner, outer, identity_scheme())
        assert aln.score == 6
        assert aln.coverage_a(len(inner)) == 1.0

    @given(encoded_seq, encoded_seq)
    @settings(max_examples=30, deadline=None)
    def test_semiglobal_between_global_and_local(self, a, b):
        scheme = blosum62_scheme()
        sg = semiglobal_align(a, b, scheme).score
        assert global_align(a, b, scheme).score <= sg <= local_align(a, b, scheme).score


class TestPredicates:
    def test_containment_positive(self):
        inner = encode("ARNDCQEGHILKMFPSTWYV")
        outer = encode("WW" + "ARNDCQEGHILKMFPSTWYV" + "KK")
        a_in_b, b_in_a, aln = containment_test(inner, outer)
        assert a_in_b and not b_in_a
        assert aln.identity >= 0.95

    def test_containment_mutual_for_identical(self):
        s = encode("ARNDCQEGHILKMFPSTWYV")
        a_in_b, b_in_a, _ = containment_test(s, s.copy())
        assert a_in_b and b_in_a

    def test_containment_negative_low_identity(self):
        a = encode("ARNDCQEGHILKMFPSTWYV")
        b = encode("AWNDCQEGHILKMFPSTWYV")  # 95% identity over 20 -> 1 mismatch = exactly 95%
        a_in_b, _, aln = containment_test(a, b, similarity=0.96)
        assert not a_in_b

    def test_overlap_positive(self):
        base = "ARNDCQEGHILKMFPSTWYV" * 3
        a = encode(base)
        # 30% similarity over >=80% of longer: identical passes trivially
        ok, aln = overlap_test(a, a.copy())
        assert ok and aln.identity == 1.0

    def test_overlap_fails_on_short_match(self):
        a = encode("ARNDCQEGHILKMFPSTWYV" * 3)
        b = encode("ARNDC" + "W" * 55)
        ok, _ = overlap_test(a, b)
        assert not ok

    def test_overlap_coverage_uses_longer(self):
        short = encode("ARNDCQEGHI")
        longer = encode("ARNDCQEGHI" + "W" * 30)
        # alignment covers 100% of short but only 25% of longer
        ok, _ = overlap_test(short, longer)
        assert not ok


    #: Definition 1 at 95%/95% on pair (i, j) = (3, 7):
    #: (identity, coverage_i, coverage_j), len_i, len_j -> (victim, survivor).
    VERDICTS = {
        "i_in_j": ((0.97, 0.96, 0.50), 50, 96, (3, 7)),
        "j_in_i": ((0.97, 0.50, 0.96), 96, 50, (7, 3)),
        "mutual_i_shorter": ((0.97, 0.99, 0.96), 97, 100, (3, 7)),
        "mutual_j_shorter": ((0.97, 0.96, 0.99), 100, 97, (7, 3)),
        "mutual_equal_lengths_higher_index_goes": ((1.0, 1.0, 1.0), 80, 80, (7, 3)),
        "cutoffs_are_inclusive": ((0.95, 0.95, 0.94), 80, 80, (3, 7)),
        "identity_just_below": ((0.9499, 1.0, 1.0), 80, 80, None),
        "neither_covered": ((0.99, 0.94, 0.94), 80, 80, None),
        "myers_surrogate": ((0.0, 0.0, 0.0), 80, 90, None),
    }

    @staticmethod
    def _one_row(stats, i, j, len_i, len_j):
        """:func:`containment_verdicts` of one pair: ``(victim,
        survivor)`` or None."""
        victims, survivors = containment_verdicts(
            np.array([stats]), np.array([i]), np.array([j]),
            np.array([len_i]), np.array([len_j]), 0.95, 0.95)
        return next(zip(victims.tolist(), survivors.tolist()), None)

    @pytest.mark.parametrize("row", list(VERDICTS))
    def test_containment_verdict_table(self, row):
        stats, len_i, len_j, expected = self.VERDICTS[row]
        assert self._one_row(stats, 3, 7, len_i, len_j) == expected
        # Order-free: the pair stated the other way round names the same two.
        swapped = (stats[0], stats[2], stats[1])
        assert self._one_row(swapped, 7, 3, len_j, len_i) == expected
        i_in_j, j_in_i = contained(stats, 0.95, 0.95)
        assert (i_in_j or j_in_i) == (expected is not None)

    def test_column_verdicts_are_the_pair_verdicts(self):
        """``containment_verdicts`` names, row for row, what the one-pair
        verdict (``tests/scalar_align.py``) names: the table's rows both ways round, then a grid of
        statistics on and around the cutoffs, near-equal lengths and
        both index orders (the tie-break's three inputs)."""
        rows = [(stats, 3, 7, li, lj) for stats, li, lj, _ in self.VERDICTS.values()]
        rows += [((s[0], s[2], s[1]), 7, 3, lj, li) for s, li, lj, _ in self.VERDICTS.values()]
        rng = np.random.default_rng(4)
        grid = [0.0, 0.5, 0.9499, 0.95, 0.96, 1.0]
        for _ in range(600):
            i, j = rng.choice(9, 2, replace=False).tolist()
            rows.append((tuple(rng.choice(grid, 3).tolist()), i, j,
                         int(rng.integers(80, 83)), int(rng.integers(80, 83))))
        expected = [verdict for verdict in (
            containment_verdict(*row, 0.95, 0.95) for row in rows) if verdict]
        stats, i, j, len_i, len_j = (np.array(column) for column in zip(*rows))
        victims, survivors = containment_verdicts(stats, i, j, len_i, len_j, 0.95, 0.95)
        assert list(zip(victims.tolist(), survivors.tolist())) == expected
        assert len(expected) > 100

    def test_containment_stats_read_the_alignment(self):
        aln = Alignment(score=0, a_start=2, a_end=20, b_start=0, b_end=19,
                        matches=18, length=20, gaps=3, mode="semiglobal")
        stats = containment_stats(alignment_table([aln]), np.array([20]), np.array([38]))
        assert stats.dtype == np.float64 and stats.tolist() == [[0.9, 0.9, 0.5]]

    def test_predicates_agree_with_the_aligning_oracle(self):
        inner = encode("ARNDCQEGHILKMFPSTWYV")
        outer = encode("WW" + "ARNDCQEGHILKMFPSTWYV" + "KK")
        for a, b in ((inner, outer), (outer, inner), (inner, inner.copy())):
            a_in_b, b_in_a, aln = containment_test(a, b)
            stats = containment_stats(alignment_table([aln]), len(a), len(b))
            verdicts = contained(stats.T, 0.95, 0.95)
            assert [column.tolist() for column in verdicts] == [[a_in_b], [b_in_a]]
            ok, local = overlap_test(a, b)
            assert overlaps(alignment_table([local]), len(a), len(b), 0.30, 0.80).tolist() == [ok]

    @staticmethod
    def _local(a_span: int, b_span: int, matches: int) -> np.ndarray:
        """A one-row table of a local alignment with these spans."""
        length = max(a_span, b_span)
        return alignment_table([Alignment(
            score=1, a_start=0, a_end=a_span, b_start=0, b_end=b_span,
            matches=matches, length=length, gaps=abs(a_span - b_span), mode="local")])

    def test_overlap_empty_alignment_never_passes(self):
        assert overlaps(self._local(0, 0, 0), 10, 10, 0.0, 0.0).tolist() == [False]

    def test_overlap_span_is_taken_on_the_longer_side(self):
        # 8 residues of a against 10 of b: 10/12 of the longer passes 80%
        # where a's own 8/12 would not; against a 13-residue b it fails.
        aln = self._local(8, 10, 8)
        assert overlaps(aln, 10, 12, 0.30, 0.80).tolist() == [True]
        assert overlaps(aln, 12, 10, 0.30, 0.80).tolist() == [True]
        assert overlaps(aln, 10, 13, 0.30, 0.80).tolist() == [False]
        assert overlaps(aln, 10, 12, 0.81, 0.80).tolist() == [False]  # identity 8/10

    def test_column_overlaps_are_the_pair_test(self, tiny_metagenome):
        """One ``overlaps`` call over one local ``align_columns`` table
        answers, row for row, what ``overlap_test`` answers a pair at a
        time: every ordered pair of generated sequences and of pairs
        built for the edges — empty local alignments (no residue pair
        scores above zero) and a 20-residue core inside a 25-residue
        sequence (span exactly 0.80 of the longer: passes) or a 26-residue
        one (fails), the longer on either side."""
        core = "ARNDCQEGHILKMFPSTWYV"
        seqs = [r.encoded for r in tiny_metagenome.sequences][:10]
        seqs += [encode(core), encode(core + "P" * 5), encode(core + "P" * 6),
                 encode("WWWW"), encode("CCCC")]
        ia, ib = np.array([(a, b) for a in range(len(seqs)) for b in range(len(seqs))
                           if a != b]).T
        store = EncodedStore.from_sequences(seqs)
        table = align_columns(store, ia, ib, scheme=blosum62_scheme(), mode="local")
        got = overlaps(table, store.lengths[ia], store.lengths[ib],
                       OVERLAP_SIMILARITY, OVERLAP_COVERAGE)
        expected = [overlap_test(seqs[a], seqs[b])[0] for a, b in zip(ia.tolist(), ib.tolist())]
        assert got.dtype == bool and got.tolist() == expected
        # The edges are in the set: empty alignments, and 0.80 exactly
        # passing with the longer sequence on either side.
        span = np.maximum(table[:, 2] - table[:, 1], table[:, 4] - table[:, 3])
        on_edge = span / np.maximum(store.lengths[ia], store.lengths[ib]) == OVERLAP_COVERAGE
        longer_b = store.lengths[ib] > store.lengths[ia]
        assert got[on_edge & longer_b].any() and got[on_edge & ~longer_b].any()
        assert (table[:, 6] == 0).any() and any(expected) and not all(expected)


class TestAlignmentCells:
    def test_formula(self):
        assert alignment_cells(10, 20) == 11 * 21
