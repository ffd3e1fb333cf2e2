"""The batched alignment engine versus the scalar kernels — the
equivalence gate behind :mod:`repro.align.batch`.

Every fast path in the batched engine carries a proof obligation (exact
batch fill, sound Myers rejection, the certified distance-0 shortcut);
this suite pins each of them to the scalar reference with Hypothesis
property tests, plus the satellite regression of per-real-pair cell
accounting.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.align import batch
from repro.align.batch import (
    _BUCKET_CELLS,
    _DOUBLING_MIN_SLOTS,
    _SUB_ROWS,
    _WALK_MIN_SLOTS,
    _WAVEFRONT_MIN_LANES,
    DEFAULT_BUCKET,
    ContainmentBatch,
    _bucket_endpoints,
    _bucket_fill,
    _bucket_walk,
    _chain_dtype,
    _fill_layout,
    _iter_buckets,
    _myers_packed,
    _myers_table_sweep,
    _slot_codes,
    align_columns,
    batch_align,
    batch_containment,
    batch_myers_infix,
    containment_columns,
    containment_prefilter,
    containment_reject_threshold,
    strict_diagonal_scheme,
)
from repro.align.matrices import (
    BLOSUM62,
    IDENTITY_MATRIX,
    ScoringScheme,
    blosum62_scheme,
    identity_scheme,
)
from repro.align.pairwise import Alignment, _traceback, alignment_cells
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.alphabet import encode
from tests.scalar_align import (
    _fill,
    alignment_table,
    containment_test,
    global_align,
    infix_distance_oracle,
    local_align,
    semiglobal_align,
)
from tests.test_traceback import diverged_pair, low_complexity

SCALAR = {
    "global": global_align,
    "local": local_align,
    "semiglobal": semiglobal_align,
}
MODES = ("global", "local", "semiglobal")
SCHEMES = [blosum62_scheme(), identity_scheme(), blosum62_scheme(gap=-11)]

encoded_seq = st.lists(
    st.integers(min_value=0, max_value=19), min_size=1, max_size=40
).map(lambda xs: np.array(xs, dtype=np.uint8))

pair_list = st.lists(st.tuples(encoded_seq, encoded_seq), max_size=8)

#: Lengths on both sides of the multiples of 32 (the old length quantum).
STRADDLING = [1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129]


def rand_pairs(rng, n, lo=1, hi=120, contained_fraction=0.4):
    """Random encoded pairs, a fraction with planted near-containments."""
    out = []
    for _ in range(n):
        m = int(rng.integers(lo, hi))
        a = rng.integers(0, 20, m).astype(np.uint8)
        if rng.random() < contained_fraction:
            span = max(1, int(0.95 * m) + int(rng.integers(-3, 3)))
            span = min(span, m)
            start = int(rng.integers(0, m - span + 1))
            b = a[start : start + span].copy()
            if rng.random() < 0.6:
                pos = rng.integers(0, len(b), max(1, len(b) // 25))
                b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
        else:
            b = rng.integers(0, 20, int(rng.integers(lo, hi))).astype(np.uint8)
        out.append((a, b))
    return out


def pair_store(pairs):
    """A list of array pairs as a store and its index columns (pair
    ``k`` is rows ``2k`` and ``2k + 1``)."""
    store = EncodedStore.from_sequences([seq for pair in pairs for seq in pair])
    ia = np.arange(0, 2 * len(pairs), 2)
    return store, ia, ia + 1


def slot_codes(pairs):
    """Each side's :func:`_slot_codes` of ``pairs`` over a pair store."""
    store, ia, ib = pair_store(pairs)
    return _slot_codes(store, ia), _slot_codes(store, ib)


def bucket_fill(pairs, scheme, mode):
    """:func:`_bucket_fill` of ``pairs`` as one bucket, into a buffer of
    its own."""
    a_pad, b_pad = slot_codes(pairs)
    nbytes = _fill_layout(scheme, len(a_pad), len(b_pad), a_pad.shape[1])[2]
    return _bucket_fill(a_pad, b_pad, scheme, mode, np.empty(nbytes, dtype=np.uint8))


def bucket_endpoints(H, pairs, mode):
    """:func:`_bucket_endpoints` of the bucket ``pairs`` filled into H."""
    m_arr, n_arr = (np.array([len(seq) for seq in side]) for side in zip(*pairs))
    return _bucket_endpoints(H, m_arr, n_arr, mode)


def bucket_walk(H, pairs, scheme, start_i, start_j, mode):
    """:func:`_bucket_walk` of the bucket ``pairs`` filled into H, its
    table's rows as tuples."""
    store, ia, ib = pair_store(pairs)
    codes = _slot_codes(store, ia), _slot_codes(store, ib)
    rows = _bucket_walk(H, store, ia, ib, codes, scheme, start_i, start_j, mode)
    return [tuple(row) for row in rows.tolist()]


def iter_buckets(dims, bucket_size):
    """:func:`_iter_buckets` of a list of ``(m, n)``, as index lists."""
    m_arr, n_arr = np.array(dims, dtype=np.int64).reshape(-1, 2).T
    return [bucket.tolist() for bucket in _iter_buckets(m_arr, n_arr, bucket_size)]


class TestBatchAlignEquivalence:
    """batch_align == scalar kernels: every field, every mode."""

    @given(pair_list, st.sampled_from(MODES), st.sampled_from(range(len(SCHEMES))))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_exactly(self, pairs, mode, scheme_idx):
        scheme = SCHEMES[scheme_idx]
        batched = batch_align(pairs, scheme, mode)
        expected = [SCALAR[mode](a, b, scheme) for a, b in pairs]
        assert batched == expected

    @given(pair_list, st.sampled_from(MODES))
    @settings(max_examples=25, deadline=None)
    def test_tiny_buckets_match_scalar(self, pairs, mode):
        """Buckets of 1 and 2 pairs (the module's width patched)
        exercise every bucket boundary."""
        scheme = blosum62_scheme()
        expected = [SCALAR[mode](a, b, scheme) for a, b in pairs]
        for bucket_size in (1, 2):
            with mock.patch.object(batch, "DEFAULT_BUCKET", bucket_size):
                assert batch_align(pairs, scheme, mode) == expected

    def test_empty_pair_list(self):
        assert batch_align([], blosum62_scheme(), "global") == []

    def test_length_one_sequences(self):
        scheme = blosum62_scheme()
        pairs = [
            (np.array([3], dtype=np.uint8), np.array([3], dtype=np.uint8)),
            (np.array([0], dtype=np.uint8), np.array([19], dtype=np.uint8)),
            (np.array([5], dtype=np.uint8),
             np.arange(20, dtype=np.uint8)),
        ]
        for mode in MODES:
            assert batch_align(pairs, scheme, mode) == [
                SCALAR[mode](a, b, scheme) for a, b in pairs
            ]

    def test_all_identical_pairs(self):
        scheme = blosum62_scheme()
        a = np.tile(np.arange(20, dtype=np.uint8), 3)
        pairs = [(a.copy(), a.copy()) for _ in range(7)]
        for mode in MODES:
            batched = batch_align(pairs, scheme, mode)
            expected = SCALAR[mode](a, a, scheme)
            assert all(aln == expected for aln in batched)

    def test_quantum_boundary_lengths_mixed_in_one_call(self):
        """Lengths straddling the old 32-residue length quantum, one call."""
        rng = np.random.default_rng(11)
        lengths = [1, 31, 32, 33, 63, 64, 65, 200]
        pairs = [
            (rng.integers(0, 20, la).astype(np.uint8),
             rng.integers(0, 20, lb).astype(np.uint8))
            for la in lengths for lb in (1, 32, 33, 97)
        ]
        scheme = blosum62_scheme()
        for mode in MODES:
            assert batch_align(pairs, scheme, mode) == [
                SCALAR[mode](a, b, scheme) for a, b in pairs
            ]

    @given(
        st.lists(st.tuples(st.sampled_from(STRADDLING), st.sampled_from(STRADDLING),
                           st.booleans()),
                 min_size=24, max_size=96),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(MODES),
        st.sampled_from(range(len(SCHEMES))),
    )
    @settings(max_examples=12, deadline=None)
    def test_wide_buckets_match_scalar(self, shapes, seed, mode, scheme_idx):
        """24-96 pairs per call: wide buckets on the log-step chain, with
        lengths on both sides of every old 32-residue quantum edge and
        related pairs (b a mutated slice of a) beside random ones.  The
        engine answers a permuted list permuted."""
        rng = np.random.default_rng(seed)
        pairs = []
        for m, n, related in shapes:
            a = rng.integers(0, 20, m).astype(np.uint8)
            if related and n <= m:
                b = a[m - n:].copy()
                pos = rng.integers(0, n, max(1, n // 8))
                b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
            else:
                b = rng.integers(0, 20, n).astype(np.uint8)
            pairs.append((a, b))
        scheme = SCHEMES[scheme_idx]
        batched = batch_align(pairs, scheme, mode)
        assert batched == [SCALAR[mode](a, b, scheme) for a, b in pairs]
        perm = rng.permutation(len(pairs))
        assert batch_align([pairs[k] for k in perm], scheme, mode) == [
            batched[k] for k in perm
        ]

    def test_max_length_pairs(self):
        """Realistic-length pairs (above every bucket boundary)."""
        rng = np.random.default_rng(5)
        pairs = rand_pairs(rng, 12, lo=250, hi=320)
        scheme = blosum62_scheme()
        for mode in MODES:
            assert batch_align(pairs, scheme, mode) == [
                SCALAR[mode](a, b, scheme) for a, b in pairs
            ]

    def test_empty_sequence_rejected_like_scalar(self):
        empty = np.array([], dtype=np.uint8)
        ok = np.array([1, 2], dtype=np.uint8)
        with pytest.raises(ValueError, match="non-empty"):
            batch_align([(empty, ok)], blosum62_scheme(), "global")
        with pytest.raises(ValueError, match="non-empty"):
            semiglobal_align(empty, ok, blosum62_scheme())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown alignment mode"):
            batch_align([], blosum62_scheme(), "affine")


def assert_bucket_endpoints(pairs, scheme=None):
    """All of ``pairs`` in ONE bucket: start cells, scores and Alignments
    equal the scalar kernels', whatever the padding holds."""
    scheme = scheme or blosum62_scheme()
    for mode in MODES:
        H = bucket_fill(pairs, scheme, mode)
        start_i, start_j = bucket_endpoints(H, pairs, mode)
        scalar = [SCALAR[mode](a, b, scheme) for a, b in pairs]
        # A walk ends where the kernel started it: (a_end, b_end).
        assert list(zip(start_i.tolist(), start_j.tolist())) == [
            (s.a_end, s.b_end) for s in scalar
        ], mode
        # The public entry point (which re-buckets by length) agrees too.
        assert batch_align(pairs, scheme, mode) == scalar


class TestBucketEndpoints:
    """One reduction per bucket == per-pair argmax on the real submatrix,
    on buckets built to break it."""

    def test_padding_that_keeps_matching_outscores_the_real_optimum(self):
        """Pad residue 0 is 'A': a short poly-A pair sharing a bucket
        with a long one keeps scoring along its padded diagonal."""
        short, long_ = encode("A" * 5), encode("A" * 30)
        pairs = [(short, short), (long_, long_), (short, long_)]
        scheme = blosum62_scheme()
        H = bucket_fill(pairs, scheme, "local")
        real_best = int(H[:6, :6, 0].max())
        assert int(H[:, :, 0].max()) > real_best  # the trap is armed
        assert_bucket_endpoints(pairs)

    def test_equal_local_maxima_first_in_row_major_order_wins(self):
        scheme = blosum62_scheme()
        wide = (encode("PW"), encode("WGW"))   # maxima at (2, 1) and (2, 3)
        tall = (encode("WGW"), encode("PW"))   # maxima at (1, 2) and (3, 2)
        for (a, b), cells in ((wide, [(2, 1), (2, 3)]), (tall, [(1, 2), (3, 2)])):
            H = _fill(a, b, scheme, "local")
            assert [(int(i), int(j)) for i, j in np.argwhere(H == H.max())] == cells
        assert_bucket_endpoints([wide, tall, (encode("WGWGW"), encode("W"))])

    def test_semiglobal_row_column_tie_keeps_the_row(self):
        scheme = identity_scheme()
        a, b = encode("AR"), encode("RA")
        H = _fill(a, b, scheme, "semiglobal")
        assert H[2, 1] == H[1, 2] == H[2].max() == H[:, 2].max()
        aln = semiglobal_align(a, b, scheme)
        assert (aln.a_end, aln.b_end) == (2, 1)
        # ... also when the tying pair sits in a padded slot.
        assert_bucket_endpoints([(a, b), (encode("ARNDC"), encode("RANDC"))],
                                scheme)

    def test_bucket_of_one(self):
        rng = np.random.default_rng(17)
        assert_bucket_endpoints(rand_pairs(rng, 1, lo=20, hi=60))

    def test_every_pair_has_its_own_dimensions(self):
        rng = np.random.default_rng(29)
        pairs = [
            (rng.integers(0, 20, m).astype(np.uint8),
             rng.integers(0, 20, n).astype(np.uint8))
            for m, n in [(1, 40), (40, 1), (7, 33), (33, 7), (20, 20),
                         (40, 40), (2, 3), (39, 38)]
        ]
        for scheme in SCHEMES:
            assert_bucket_endpoints(pairs, scheme)

    @given(st.lists(st.tuples(encoded_seq, encoded_seq), min_size=1, max_size=6),
           st.sampled_from(range(len(SCHEMES))))
    @settings(max_examples=40, deadline=None)
    def test_random_ragged_buckets(self, pairs, scheme_idx):
        assert_bucket_endpoints(pairs, SCHEMES[scheme_idx])

    def test_residue_outside_the_matrix_rejected_like_scalar(self):
        bad = np.array([1, 20, 3], dtype=np.uint8)
        ok = np.array([1, 2, 3], dtype=np.uint8)
        for pair in ((bad, ok), (ok, bad)):
            with pytest.raises(IndexError):
                batch_align([pair], blosum62_scheme(), "local")
            with pytest.raises(IndexError):
                local_align(*pair, blosum62_scheme())


class TestFillDtype:
    """H and the chain share the narrowest dtype the bound proves exact."""

    def test_int16_boundary_for_blosum62_gap_8(self):
        scheme = blosum62_scheme(gap=-8)
        assert _chain_dtype(scheme, 935, 935) is np.int16
        assert _chain_dtype(scheme, 936, 936) is np.int32
        assert _chain_dtype(scheme, 300, 300) is np.int16

    def test_large_entries_force_wider_dtypes(self):
        kilo = ScoringScheme(matrix=BLOSUM62 * 1000, gap=-4000, name="kilo")
        giga = ScoringScheme(matrix=BLOSUM62 * 10**8, gap=-4, name="giga")
        assert _chain_dtype(kilo, 3, 3) is np.int32
        assert _chain_dtype(giga, 30, 30) is np.int64
        H = bucket_fill([(encode("WCHW"), encode("WCHW"))], giga, "local")
        assert H.dtype == np.int64
        assert H[4, 4, 0] == (11 + 9 + 8 + 11) * 10**8  # past int32, exact
        rng = np.random.default_rng(41)
        pairs = rand_pairs(rng, 6, lo=5, hi=50)
        for mode in MODES:
            assert bucket_fill(pairs[:1], kilo, mode).dtype == np.int32
            assert batch_align(pairs, kilo, mode) == [
                SCALAR[mode](a, b, kilo) for a, b in pairs
            ]

    @pytest.mark.parametrize("length, dtype", [(935, np.int16), (936, np.int32)])
    def test_either_side_of_the_boundary_equals_scalar(self, length, dtype):
        """Extreme pairs (all-W: highest scores; W against P: lowest)
        plus a diverged homolog, just inside and just past int16."""
        scheme = blosum62_scheme(gap=-8)
        rng = np.random.default_rng(length)
        w = np.full(length, encode("W")[0], dtype=np.uint8)
        p = np.full(length, encode("P")[0], dtype=np.uint8)
        a = rng.integers(0, 20, length).astype(np.uint8)
        b = a.copy()
        pos = rng.integers(0, length, length // 5)
        b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
        b = np.concatenate([b[:400], b[417:], b[:17]])
        pairs = [(w, w), (w, p), (a, b)]
        for mode in MODES:
            assert bucket_fill(pairs, scheme, mode).dtype == dtype
            batched = batch_align(pairs, scheme, mode)
            assert batched == [SCALAR[mode](x, y, scheme) for x, y in pairs]
            assert all(type(aln.score) is int for aln in batched)


class TestWideBuckets:
    """The two left-gap chains fill the same cells, and the cell-budget
    packing keeps its invariants."""

    @pytest.mark.parametrize("mode", MODES)
    def test_chains_fill_identical_cells_at_the_crossover(self, mode):
        """Widths crossover - 1 (accumulate) and crossover (log-step); the
        longest pair comes first so both buckets share one padded shape."""
        rng = np.random.default_rng(43)
        pairs = [(rng.integers(0, 20, 150).astype(np.uint8),
                  rng.integers(0, 20, 140).astype(np.uint8))]
        pairs += rand_pairs(rng, _DOUBLING_MIN_SLOTS - 1, lo=20, hi=140)
        scheme = blosum62_scheme()
        narrow = bucket_fill(pairs[:-1], scheme, mode)
        wide = bucket_fill(pairs, scheme, mode)
        assert np.array_equal(wide[:, :, :-1], narrow)
        for k, (a, b) in enumerate(pairs):
            assert np.array_equal(wide[: len(a) + 1, : len(b) + 1, k],
                                  _fill(a, b, scheme, mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_chains_agree_past_int16(self, mode, monkeypatch):
        """960 residues a side fills in int32; the crossover is lowered to
        two slots so the matrices stay small."""
        monkeypatch.setattr(batch, "_DOUBLING_MIN_SLOTS", 2)
        scheme = blosum62_scheme(gap=-8)
        rng = np.random.default_rng(47)
        a = rng.integers(0, 20, 960).astype(np.uint8)
        b = a.copy()
        pos = rng.integers(0, 960, 190)
        b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
        pairs = [(a, np.concatenate([b[:400], b[417:], b[:17]])), (b[:500], a)]
        narrow = bucket_fill(pairs[:1], scheme, mode)
        wide = bucket_fill(pairs, scheme, mode)
        assert wide.dtype == narrow.dtype == np.int32
        assert np.array_equal(wide[:, :, :1], narrow)
        x, y = pairs[1]
        assert np.array_equal(wide[: len(x) + 1, : len(y) + 1, 1],
                              _fill(x, y, scheme, mode))
        assert batch_align(pairs, scheme, mode) == [
            SCALAR[mode](x, y, scheme) for x, y in pairs
        ]

    @given(
        st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 3000)),
                 max_size=200),
        st.sampled_from([1, 2, 7, DEFAULT_BUCKET]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packing_invariants(self, dims, bucket_size, seed):
        buckets = iter_buckets(dims, bucket_size)
        assert sorted(k for b in buckets for k in b) == list(range(len(dims)))
        for b in buckets:
            assert 1 <= len(b) <= bucket_size
            m_pad = max(dims[k][0] for k in b)
            n_pad = max(dims[k][1] for k in b)
            assert len(b) == 1 or len(b) * (m_pad + 1) * (n_pad + 1) <= _BUCKET_CELLS
        perm = np.random.default_rng(seed).permutation(len(dims))
        permuted = [dims[k] for k in perm]

        def shapes(ds):
            return [[ds[k] for k in b] for b in iter_buckets(ds, bucket_size)]

        assert shapes(permuted) == shapes(dims)

    def test_a_run_splits_evenly(self):
        def sizes(shape, n):
            return [len(b) for b in iter_buckets([shape] * n, DEFAULT_BUCKET)]

        assert sizes((256, 256), 128) == [64, 64]  # a BGG/CCD task: two buckets
        assert sizes((256, 256), 130) == [44, 43, 43]  # no thin tail
        assert sizes((400, 400), 100) == [25] * 4  # the budget binds (33 fit)
        assert sizes((3000, 3000), 2) == [1, 1]  # alone over the budget


#: Gap-heavy pairs: a diverged homolog, or two 4-letter sequences whose
#: many equal scores leave more than one move consistent at many cells.
gap_heavy_pair = st.one_of(diverged_pair(), st.tuples(low_complexity, low_complexity))
#: gap -1 under BLOSUM62 makes gaps nearly free.
GAP_HEAVY_SCHEMES = [blosum62_scheme(gap=-1), identity_scheme()]


class TestBucketWalk:
    """The lockstep bucket walk equals the one-slot walk slot by slot,
    from the kernels' start cells and from any other."""

    @given(st.lists(gap_heavy_pair, min_size=_WALK_MIN_SLOTS + 8,
                    max_size=_WALK_MIN_SLOTS + 24),
           st.sampled_from(MODES), st.sampled_from(range(len(GAP_HEAVY_SCHEMES))))
    @settings(max_examples=40, deadline=None)
    def test_wide_gap_heavy_buckets_match_scalar_and_alone(self, pairs, mode, scheme_idx):
        """One bucket wide enough to walk in lockstep, whose slots stop
        at different steps: every Alignment is the scalar kernel's and
        the one the pair gets aligned alone (a one-slot walk)."""
        scheme = GAP_HEAVY_SCHEMES[scheme_idx]
        assert len(iter_buckets([(len(a), len(b)) for a, b in pairs],
                                DEFAULT_BUCKET)) == 1
        batched = batch_align(pairs, scheme, mode)
        assert batched == [SCALAR[mode](a, b, scheme) for a, b in pairs]
        assert batched == [batch_align([pair], scheme, mode)[0] for pair in pairs]

    def test_hand_off_resumes_mid_path(self, monkeypatch):
        """Slots of unequal path lengths: the ones still walking when the
        bucket narrows resume in _traceback with partial counts."""
        resumed = []

        def recording(H, a, b, scheme, si, sj, mode, at=None):
            i, j = at[:2]  # a slot the lockstep left live:
            if min(i, j) > 0 and not (mode == "local" and H.item(i, j) == 0):
                resumed.append(at)
            return _traceback(H, a, b, scheme, si, sj, mode, at=at)

        monkeypatch.setattr(batch, "_traceback", recording)
        rng = np.random.default_rng(53)
        pairs = rand_pairs(rng, 3 * _WALK_MIN_SLOTS, lo=30, hi=120)
        scheme = blosum62_scheme(gap=-1)
        for mode in MODES:
            resumed.clear()
            assert batch_align(pairs, scheme, mode) == [
                SCALAR[mode](a, b, scheme) for a, b in pairs]
            assert 0 < len(resumed) < _WALK_MIN_SLOTS, mode
            assert any(diagonal > 0 for _, _, _, diagonal in resumed), mode

    @given(st.lists(st.tuples(encoded_seq, encoded_seq), min_size=_WALK_MIN_SLOTS,
                    max_size=_WALK_MIN_SLOTS + 12),
           st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(MODES),
           st.sampled_from(range(len(SCHEMES))))
    @settings(max_examples=40, deadline=None)
    def test_any_start_cells_equal_the_one_slot_walk(self, pairs, seed, mode, scheme_idx):
        """Start cells anywhere in each slot's real submatrix, on the
        fill's own H (padding not zeroed): slot by slot, _traceback's
        row."""
        scheme = SCHEMES[scheme_idx]
        rng = np.random.default_rng(seed)
        start_i = np.array([rng.integers(0, len(a) + 1) for a, _ in pairs])
        start_j = np.array([rng.integers(0, len(b) + 1) for _, b in pairs])
        H = bucket_fill(pairs, scheme, mode)
        assert bucket_walk(H, pairs, scheme, start_i, start_j, mode) == [
            _traceback(H[:, :, k], a, b, scheme, int(start_i[k]), int(start_j[k]), mode)
            for k, (a, b) in enumerate(pairs)
        ]

    @pytest.mark.parametrize("a, b, mode", [
        ("GGAWWW", "PPCWWW", "local"),  # a local zero mid-diagonal
        ("PPPPWCHWMW", "WCHWMWGGGG", "semiglobal"),  # ends at j == 0
        ("WCHWMWGGGG", "PPPPWCHWMW", "semiglobal"),  # ends at i == 0
    ])
    def test_corner_cases_repeated_across_a_wide_bucket(self, a, b, mode):
        scheme = blosum62_scheme()
        pair = (encode(a), encode(b))
        expected = SCALAR[mode](*pair, scheme)
        assert batch_align([pair] * (_WALK_MIN_SLOTS + 16), scheme, mode) == (
            [expected] * (_WALK_MIN_SLOTS + 16))

    def test_stuck_walk_raises_from_the_lockstep(self):
        """A cell consistent with no move (here, a diagonal predecessor
        raised by 100) is a fill bug: the lockstep raises, it does not
        fall through to a left move; so does the one-slot walk."""
        scheme = blosum62_scheme()
        pair = (encode("WCHWMW"), encode("WCHWMW"))
        for width, message in ((_WALK_MIN_SLOTS + 8, "slot"),
                               (_WALK_MIN_SLOTS - 1, "traceback stuck")):
            pairs = [pair] * width
            H = bucket_fill(pairs, scheme, "global")
            H[3, 3] += 100
            start = np.full(width, 6)
            with pytest.raises(AssertionError, match=message):
                bucket_walk(H, pairs, scheme, start, start, "global")


class TestEntryValidation:
    """Each call is checked once, on the values it was given."""

    def test_codes_outside_the_matrix_raise_instead_of_aliasing(self):
        """256 used to wrap to 0 ('A') on the DP routes: an A:A match of
        score 4, and a containment certified at identity 1.0."""
        with pytest.raises(IndexError):
            batch_align([(np.array([256]), np.array([0]))])
        with pytest.raises(IndexError):
            batch_align([(np.array([1, 2]), np.array([-1, 2]))], mode="local")
        with pytest.raises(IndexError):
            batch_containment([(np.array([256, 1, 2]), np.array([0, 1, 2]))],
                              similarity=0.95, coverage=0.95)

    @pytest.mark.parametrize("bad", [
        np.array([1.7, 2.0]), np.array([[1, 2]]), np.array([], dtype=np.uint8),
        np.array([True, False]),
    ], ids=["float", "2-D", "empty", "bool"])
    def test_non_integer_or_misshapen_sequences_raise_value_error(self, bad):
        ok = np.array([1, 2], dtype=np.uint8)
        for pair in ((bad, ok), (ok, bad)):
            with pytest.raises(ValueError):
                batch_align([pair])
            with pytest.raises(ValueError):
                batch_containment([pair], similarity=0.95, coverage=0.95)

    def test_any_integer_dtype_aligns_as_its_values(self):
        rng = np.random.default_rng(59)
        pairs = rand_pairs(rng, 6, lo=5, hi=40)
        for dtype in (np.int8, np.int64, np.uint16):
            cast = [(a.astype(dtype), b.astype(dtype)) for a, b in pairs]
            assert batch_align(cast, mode="local") == batch_align(pairs, mode="local")


class TestMyersInfix:
    @given(encoded_seq, encoded_seq)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, p, t):
        assert batch_myers_infix([p], [t])[0] == infix_distance_oracle(p, t)

    def test_word_boundary_pattern_lengths(self):
        """m = 63/64/65/127/128/129 crosses the 64-bit block edges."""
        rng = np.random.default_rng(3)
        patterns, texts = [], []
        for m in (1, 63, 64, 65, 127, 128, 129):
            p = rng.integers(0, 20, m).astype(np.uint8)
            t = rng.integers(0, 20, m + 40).astype(np.uint8)
            if m > 2:  # plant an exact occurrence for some
                t[7 : 7 + m] = p
            patterns.append(p)
            texts.append(t)
        dists = batch_myers_infix(patterns, texts)
        for p, t, d in zip(patterns, texts, dists):
            assert d == infix_distance_oracle(p, t)

    def test_mixed_word_counts_in_one_batch(self):
        rng = np.random.default_rng(9)
        patterns = [rng.integers(0, 20, m).astype(np.uint8)
                    for m in (5, 70, 30, 130, 64, 2)]
        texts = [rng.integers(0, 20, m + int(rng.integers(0, 90))).astype(np.uint8)
                 for m in (5, 70, 30, 130, 64, 2)]
        dists = batch_myers_infix(patterns, texts)
        for p, t, d in zip(patterns, texts, dists):
            assert d == infix_distance_oracle(p, t)

    @given(
        st.lists(st.tuples(st.integers(1, 330), st.integers(0, 400)),
                 min_size=1, max_size=24),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_multi_word_lanes_match_oracle(self, shapes, seed):
        """1-24 lanes of 1-6 words in one call, texts shorter and longer
        than their pattern; every other lane's text carries a mutated
        copy of its pattern (substitutions and one deletion).  Each
        lane's distance is the oracle's and what the lane gets alone."""
        rng = np.random.default_rng(seed)
        patterns, texts = [], []
        for k, (m, n) in enumerate(shapes):
            p = rng.integers(0, 20, m).astype(np.uint8)
            t = rng.integers(0, 20, n).astype(np.uint8)
            if k % 2 == 0:
                copy = p.copy()
                hits = rng.integers(0, m, max(1, m // 15))
                copy[hits] = rng.integers(0, 20, len(hits)).astype(np.uint8)
                copy = np.delete(copy, int(rng.integers(0, m))) if m > 1 else copy
                at = int(rng.integers(0, n + 1))
                t = np.concatenate([t[:at], copy, t[at:]])
            patterns.append(p)
            texts.append(t)
        dists = batch_myers_infix(patterns, texts)
        for p, t, d in zip(patterns, texts, dists):
            assert d == infix_distance_oracle(p, t) == batch_myers_infix([p], [t])[0]

    def test_codes_outside_the_alphabet_rejected(self):
        """Code ``alphabet`` pads short texts and matches nothing, so no
        lane may hold it: a pattern of it used to match the padding a
        longer text in the same sweep put after its own text (distance 0
        for residues the pair does not share)."""
        with pytest.raises(IndexError):
            batch_myers_infix([[21], [3]], [[0, 1], [0, 1, 2, 3, 4]])
        for patterns, texts in (([[3]], [[0, 21]]), ([[-1]], [[0, 1]]),
                                ([[0, 22]], [[0, 1]])):
            with pytest.raises(IndexError):
                batch_myers_infix(patterns, texts)
        pad = np.array([21], dtype=np.uint8)
        pairs = [(pad, np.array([0, 1], dtype=np.uint8)),
                 (np.array([3], dtype=np.uint8), np.arange(5, dtype=np.uint8))]
        with pytest.raises(IndexError):
            batch_containment(pairs, similarity=0.95, coverage=0.95)
        with pytest.raises(IndexError):
            batch_align(pairs[:1], blosum62_scheme(), "semiglobal")

    def test_exact_substring_gives_zero(self):
        rng = np.random.default_rng(2)
        t = rng.integers(0, 20, 200).astype(np.uint8)
        p = t[40:140].copy()
        assert batch_myers_infix([p], [t])[0] == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            batch_myers_infix([np.array([1], dtype=np.uint8)], [])
        with pytest.raises(ValueError, match="non-empty"):
            batch_myers_infix(
                [np.array([], dtype=np.uint8)],
                [np.array([1], dtype=np.uint8)],
            )

    @pytest.mark.parametrize("bad", [
        np.array([1.7, 2.2]), np.array([True, False]), np.array([[1, 2]]),
    ], ids=["float", "bool", "2-D"])
    def test_non_integer_or_misshapen_sequences_raise_value_error(self, bad):
        """[1.7, 2.2] used to truncate to [1, 2] (a false exact match,
        distance 0), so did a bool pattern against [1, 0]; a 2-D
        sequence died in the scatter."""
        ok = np.array([1, 2], dtype=np.uint8)
        for patterns, texts in (([bad], [ok]), ([ok], [bad]),
                                ([ok, bad], [ok, ok])):
            with pytest.raises(ValueError, match="1-D integer"):
                batch_myers_infix(patterns, texts)

    def test_empty_texts_stay_legal(self):
        """An empty text holds no code, whatever its dtype: the distance
        is the pattern's length, on both sweep paths."""
        p = np.array([1, 2, 3], dtype=np.uint8)
        for empty in (np.array([], dtype=np.uint8), np.array([]), []):
            assert batch_myers_infix([p], [empty]).tolist() == [3]
        texts = [[], np.arange(5, dtype=np.uint8)] * (_WAVEFRONT_MIN_LANES // 2)
        dists = batch_myers_infix([p] * len(texts), texts)
        assert dists.tolist() == [3, 0] * (_WAVEFRONT_MIN_LANES // 2)


def wavefront(patterns, texts, alphabet=21):
    """The word wavefront on lanes of arrays, over a store of them."""
    store = EncodedStore.from_sequences([*patterns, *texts])
    lanes = np.arange(len(patterns))
    return _myers_table_sweep(store, lanes, lanes + len(patterns), alphabet)


def pair_prefilter(pairs, **kwargs):
    """:func:`containment_prefilter` of a list of array pairs, over a
    :func:`pair_store` of them."""
    return containment_prefilter(*pair_store(pairs), **kwargs)


def mutated_lanes(rng, shapes, codes=20):
    """One lane per ``(m, n)``: a random pattern, a random text, every
    other text carrying a mutated copy of its pattern."""
    patterns, texts = [], []
    for k, (m, n) in enumerate(shapes):
        p = rng.integers(0, codes, m).astype(np.uint8)
        t = rng.integers(0, codes, n).astype(np.uint8)
        if k % 2 == 0 and n:
            copy = p.copy()
            hits = rng.integers(0, m, max(1, m // 15))
            copy[hits] = rng.integers(0, codes, len(hits)).astype(np.uint8)
            at = int(rng.integers(0, n + 1))
            t = np.concatenate([t[:at], copy[: n + m // 2], t[at:]])
        patterns.append(p)
        texts.append(t)
    return patterns, texts


class TestPackedSweep:
    """The packed sweep and the word wavefront are one function of their
    lanes: both equal the O(mn) definition."""

    @given(
        st.lists(st.tuples(st.integers(1, 6 * 64), st.integers(0, 160)),
                 min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([2, 20]), st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_both_paths_equal_the_oracle(self, shapes, seed, codes, all_empty):
        """1-40 lanes of 1-6 words, texts shorter than their pattern,
        empty, or (``all_empty``) every one empty: a sweep of no columns."""
        rng = np.random.default_rng(seed)
        patterns, texts = mutated_lanes(rng, shapes, codes)
        if all_empty:
            texts = [t[:0] for t in texts]
        packed = _myers_packed(patterns, texts, 21).tolist()
        assert packed == wavefront(patterns, texts).tolist()
        assert packed == [infix_distance_oracle(p, t) for p, t in zip(patterns, texts)]

    @pytest.mark.parametrize("lengths", [
        [1, 63, 64, 65, 129],
        [135, 1, 135, 63, 135, 64, 135, 65, 135, 129, 135],  # 135 = 8L - 1
        [63, 63, 7, 63, 1, 63],
        [7, 7, 1, 7],
    ])
    def test_guard_bits_under_carries_into_every_lane_top(self, lengths):
        """All-equal residues: ``(Eq & Pv) + Pv`` carries out of every
        lane's top bit on every matching column, and a lane of ``8L -
        1`` bits has its guard at the top of its stride, right below
        the next lane's bit 0.  A carry or a shifted bit that crossed a
        guard would move the next lane's distance."""
        zeros = [np.zeros(m, dtype=np.uint8) for m in lengths]
        texts = [
            np.zeros(m + 9, dtype=np.uint8) if k % 3 == 0
            else np.resize(np.array([0, 0, 1], dtype=np.uint8), 2 * m + 5) if k % 3 == 1
            else np.zeros(m // 2, dtype=np.uint8)
            for k, m in enumerate(lengths)
        ]
        expected = [infix_distance_oracle(p, t) for p, t in zip(zeros, texts)]
        assert _myers_packed(zeros, texts, 21).tolist() == expected
        assert wavefront(zeros, texts).tolist() == expected

    @pytest.mark.parametrize("lanes", [_WAVEFRONT_MIN_LANES - 1, _WAVEFRONT_MIN_LANES])
    def test_either_side_of_the_crossover(self, lanes, monkeypatch):
        """T - 1 lanes sweep packed, T as the wavefront; both equal the
        oracle.  Either sweep's lanes are its third-last argument."""
        swept = []
        for name in ("_myers_packed", "_myers_table_sweep"):
            real = getattr(batch, name)
            monkeypatch.setattr(batch, name, lambda *args, real=real, name=name: (
                swept.append((name, len(args[-3]))) or real(*args)))
        rng = np.random.default_rng(61)
        shapes = [(int(rng.integers(1, 200)), int(rng.integers(0, 220))) for _ in range(lanes)]
        patterns, texts = mutated_lanes(rng, shapes)
        assert batch_myers_infix(patterns, texts).tolist() == [
            infix_distance_oracle(p, t) for p, t in zip(patterns, texts)]
        path = "_myers_packed" if lanes < _WAVEFRONT_MIN_LANES else "_myers_table_sweep"
        assert swept == [(path, lanes)]


class TestBlockedGather:
    """The fill gathers substitution scores _SUB_ROWS rows per take: H
    is the one-pair fill's on either side of every block edge."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("slots", [1, 3, _DOUBLING_MIN_SLOTS + 1])
    def test_block_edges_in_narrow_and_wide_buckets(self, mode, slots):
        rng = np.random.default_rng(67 + slots)
        for m_pad in (_SUB_ROWS - 1, _SUB_ROWS, _SUB_ROWS + 1, 2 * _SUB_ROWS,
                      2 * _SUB_ROWS + 1):
            pairs = [(rng.integers(0, 20, m_pad if k == 0 else int(rng.integers(1, m_pad + 1))),
                      rng.integers(0, 20, int(rng.integers(1, 50))))
                     for k in range(slots)]
            pairs = [(a.astype(np.uint8), b.astype(np.uint8)) for a, b in pairs]
            scheme = SCHEMES[slots % len(SCHEMES)]
            H = bucket_fill(pairs, scheme, mode)
            assert H.shape[0] == m_pad + 1
            for k, (a, b) in enumerate(pairs):
                assert np.array_equal(H[: len(a) + 1, : len(b) + 1, k],
                                      _fill(a, b, scheme, mode)), (m_pad, k)


class TestContainmentEngine:
    """Decision identity of the Definition 1 fast-path stack."""

    def _assert_decisions_match(self, pairs, scheme, similarity, coverage):
        res = batch_containment(
            pairs, scheme=scheme, similarity=similarity, coverage=coverage
        )
        assert isinstance(res, ContainmentBatch)
        went_to_dp = set(pair_prefilter(
            pairs, scheme=scheme, similarity=similarity, coverage=coverage
        ).undecided.tolist())
        assert len(went_to_dp) == res.n_dp
        for k, ((a, b), (ident, cov_a, cov_b)) in enumerate(zip(pairs, res.stats)):
            ref_a, ref_b, ref_aln = containment_test(
                a, b, scheme=scheme, similarity=similarity, coverage=coverage
            )
            got_a = ident >= similarity and cov_a >= coverage
            got_b = ident >= similarity and cov_b >= coverage
            assert (got_a, got_b) == (ref_a, ref_b), (
                f"decision drift for lengths {len(a)}x{len(b)}: "
                f"engine {(got_a, got_b)} vs scalar {(ref_a, ref_b)}"
            )
            if k in went_to_dp:
                # DP route: the stats must be the scalar alignment's, bit
                # for bit.
                assert (ident, cov_a, cov_b) == (
                    ref_aln.identity,
                    ref_aln.coverage_a(len(a)),
                    ref_aln.coverage_b(len(b)),
                )
        return res

    def test_decisions_match_scalar_on_mixed_workload(self):
        rng = np.random.default_rng(17)
        pairs = rand_pairs(rng, 250, lo=5, hi=150)
        res = self._assert_decisions_match(pairs, blosum62_scheme(), 0.95, 0.95)
        # The workload plants containments, so every route must fire.
        assert res.n_rejected > 0
        assert res.n_exact > 0
        assert res.n_dp > 0
        assert res.n_rejected + res.n_exact + res.n_dp == len(pairs)

    @given(
        st.lists(st.tuples(encoded_seq, encoded_seq), min_size=1, max_size=6),
        st.sampled_from([(0.95, 0.95), (0.9, 0.8), (0.5, 0.5)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_decisions_match_scalar_random(self, pairs, thresholds):
        similarity, coverage = thresholds
        self._assert_decisions_match(
            pairs, blosum62_scheme(), similarity, coverage
        )

    def test_identical_and_substring_pairs_certified(self):
        rng = np.random.default_rng(29)
        a = rng.integers(0, 20, 120).astype(np.uint8)
        pairs = [(a.copy(), a.copy()), (a.copy(), a[5:119].copy()),
                 (a[:100].copy(), a.copy())]
        res = self._assert_decisions_match(pairs, blosum62_scheme(), 0.95, 0.95)
        assert res.n_exact == len(pairs)  # no DP needed for any of them

    def test_non_strict_diagonal_scheme_disables_exact_path(self):
        """A scheme where a diagonal entry is not a strict positive row
        max may have non-diagonal optima for exact substrings; the
        engine must detect this and fall back to the DP (decisions still
        identical)."""
        matrix = IDENTITY_MATRIX.copy()
        matrix[0, 0] = -1  # residue 0 "matches" itself badly
        scheme = ScoringScheme(matrix=matrix, gap=-1)
        assert not strict_diagonal_scheme(scheme)
        assert strict_diagonal_scheme(blosum62_scheme())
        assert strict_diagonal_scheme(identity_scheme())
        rng = np.random.default_rng(31)
        a = rng.integers(0, 20, 90).astype(np.uint8)
        pairs = [(a.copy(), a.copy()), (a.copy(), a[:85].copy())]
        res = self._assert_decisions_match(pairs, scheme, 0.95, 0.95)
        assert res.n_exact == 0

    def test_reject_threshold_soundness_brute_force(self):
        """Every Myers-rejected pair must be scalar-rejected: replay a
        large random workload and check the contrapositive directly."""
        rng = np.random.default_rng(41)
        pairs = rand_pairs(rng, 150, lo=4, hi=90)
        scheme = blosum62_scheme()
        res = batch_containment(
            pairs, scheme=scheme, similarity=0.95, coverage=0.95
        )
        rejected = pair_prefilter(
            pairs, scheme=scheme, similarity=0.95, coverage=0.95
        ).rejected.tolist()
        assert sum(rejected) == res.n_rejected > 0
        for (a, b), stats, was_rejected in zip(pairs, res.stats, rejected):
            if was_rejected:
                assert stats == (0.0, 0.0, 0.0)
                ref_a, ref_b, _ = containment_test(
                    a, b, scheme=scheme, similarity=0.95, coverage=0.95
                )
                assert not ref_a and not ref_b

    def test_reject_threshold_values(self):
        # sim/cov = 0.95: K1 = s*(0.05 + 0.05/0.95); the +1 slack makes
        # the integer threshold strictly conservative.
        assert containment_reject_threshold(100, 200, 0.95, 0.95) >= 10
        # Degenerate thresholds: no sound rejection exists.
        assert containment_reject_threshold(50, 50, 0.0, 0.5) is None
        assert containment_reject_threshold(50, 50, 0.5, 0.0) is None
        # Zero-threshold config (sim=cov=1.0): only exact containment
        # passes, so any nonzero distance rejects.
        assert containment_reject_threshold(50, 50, 1.0, 1.0) == 1

    def test_reject_threshold_array_form_equals_int_form(self):
        """The prefilter's whole-column bound equals, pair for pair, the
        int form and the bound's float arithmetic written out in Python
        (which the committed run records' reject counts rest on)."""

        def written_out(m, n, similarity, coverage):
            s, l = min(m, n), max(m, n)
            window = s * (1.0 - similarity) / similarity
            k = s * (1.0 - coverage) + window
            if l * similarity * coverage <= s + 1e-9:
                k = max(k, s * (1.0 - similarity * coverage) + window)
            return math.floor(k + 1e-9) + 1

        lengths = [*range(1, 31), 40, 57, 63, 64, 65, 99, 100, 110, 128, 129,
                   200, 255, 256, 300, 333, 512, 999, 1000, 1500]
        m, n = (a.ravel() for a in np.meshgrid(lengths, lengths))
        for similarity in (0.0, -0.5, 0.5, 0.9, 0.95, 1.0):
            for coverage in (0.0, 0.5, 0.8, 0.95, 1.0):
                column = containment_reject_threshold(m, n, similarity, coverage)
                ints = [containment_reject_threshold(a, b, similarity, coverage)
                        for a, b in zip(m.tolist(), n.tolist())]
                if similarity <= 0.0 or coverage <= 0.0:
                    assert column is None and set(ints) == {None}
                    continue
                assert all(type(k) is int for k in ints)
                assert column.tolist() == ints == [
                    written_out(a, b, similarity, coverage)
                    for a, b in zip(m.tolist(), n.tolist())
                ]

    def test_empty_batch(self):
        res = batch_containment(
            [], scheme=blosum62_scheme(), similarity=0.95, coverage=0.95
        )
        assert res.stats == [] and (res.n_rejected, res.n_exact, res.n_dp) == (0, 0, 0)


def store_sequences(rng, lengths):
    """One sequence per length, the first random and each later one
    random, a slice of an earlier one at most that long (a containment
    the sweep certifies), a point-mutated copy (the DP judges) or an
    exact copy (equal lengths)."""
    seqs = []
    for m in lengths:
        kind = int(rng.integers(4)) if seqs else 0
        base = seqs[int(rng.integers(len(seqs)))] if seqs else None
        if kind == 0:
            seq = rng.integers(0, 20, m).astype(np.uint8)
        elif kind == 1:
            at = int(rng.integers(len(base)))
            seq = base[at : at + m].copy()
        elif kind == 2:
            seq = base.copy()
            seq[rng.integers(0, len(seq), max(1, len(seq) // 40))] = rng.integers(0, 20)
        else:
            seq = base.copy()
        seqs.append(seq)
    return seqs


BATCH_COUNTERS = ("batch.pairs", "batch.myers_rejects", "batch.exact_certified",
                  "batch.dp_pairs")


class TestContainmentColumns:
    """An RR task's column path against the pair-at-a-time path of the
    scalar oracle: every verdict is ``containment_test``'s, and a pair
    the DP judged gets the statistics of the one-pair semiglobal
    alignment, bit for bit."""

    @given(
        lengths=st.lists(st.integers(1, 200), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        n_pairs=st.sampled_from([0, 1, 7, _WAVEFRONT_MIN_LANES - 1,
                                 _WAVEFRONT_MIN_LANES, 75]),
        myers_bucket=st.sampled_from([1024, 40, 8]),
        scheme=st.sampled_from(SCHEMES),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_are_the_pair_path(self, lengths, seed, n_pairs,
                                       myers_bucket, scheme):
        """Repeated pairs, both orientations and equal lengths (copies)
        come from drawing both columns from few sequences; 75 pairs in
        sweeps of 40 or 8 (the module's sweep width patched) mix
        wavefront and packed sweeps in one call."""
        rng = np.random.default_rng(seed)
        seqs = store_sequences(rng, lengths)
        store = EncodedStore.from_sequences(seqs)
        ia = rng.integers(0, len(seqs), n_pairs)
        ib = rng.integers(0, len(seqs), n_pairs)
        kwargs = dict(scheme=scheme, similarity=0.95, coverage=0.95)
        recorder = obs.Recorder()
        with obs.recording(recorder), \
                mock.patch.object(batch, "DEFAULT_MYERS_BUCKET", myers_bucket):
            stats = containment_columns(store, ia, ib, **kwargs)
        undecided = set(containment_prefilter(store, ia, ib, **kwargs).undecided.tolist())
        assert stats.dtype == np.float64 and stats.shape == (n_pairs, 3)
        for k, (a, b) in enumerate(zip(ia.tolist(), ib.tolist())):
            ident, cov_a, cov_b = stats[k].tolist()
            a_in_b, b_in_a, aln = containment_test(seqs[a], seqs[b], **kwargs)
            assert (ident >= 0.95 and cov_a >= 0.95,
                    ident >= 0.95 and cov_b >= 0.95) == (a_in_b, b_in_a)
            if k in undecided:  # the column arithmetic is Python's, bit for bit
                assert (ident, cov_a, cov_b) == (
                    aln.identity, aln.coverage_a(len(seqs[a])), aln.coverage_b(len(seqs[b])))
        counters = recorder.counters()
        assert counters.get("batch.pairs", 0) == n_pairs
        assert counters.get("batch.dp_pairs", 0) == len(undecided)

    def test_every_route_is_taken(self):
        """The property above is not vacuous: its sequences reach the
        reject, the certificate and the DP."""
        rng = np.random.default_rng(3)
        seqs = store_sequences(rng, rng.integers(40, 200, 12).tolist())
        ia, ib = np.triu_indices(len(seqs), 1)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            containment_columns(EncodedStore.from_sequences(seqs), ia, ib,
                                scheme=blosum62_scheme(), similarity=0.95,
                                coverage=0.95)
        counters = recorder.counters()
        assert all(counters[name] > 0 for name in BATCH_COUNTERS), counters

    @given(lengths=st.lists(st.integers(1, 200), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), alphabet=st.sampled_from([20, 24]))
    @settings(max_examples=20, deadline=None)
    def test_mask_rows_are_the_scattered_masks(self, lengths, seed, alphabet):
        """Sequence ``k``'s rows are its ``ceil(len / 64)`` words, and
        bit ``i & 63`` of row ``words[k] + (i >> 6)``, column
        ``seqs[k][i]``, is set for every residue and no other bit is
        (nor any of the last, zero row)."""
        rng = np.random.default_rng(seed)
        seqs = store_sequences(rng, lengths)
        table, words = EncodedStore.from_sequences(seqs).myers_masks(alphabet)
        assert words.tolist() == np.cumsum(
            [0] + [(len(seq) + 63) // 64 for seq in seqs]).tolist()
        expected = np.zeros((words[-1] + 1, alphabet + 1), np.uint64)
        for k, seq in enumerate(seqs):
            for i, code in enumerate(seq.tolist()):
                expected[words[k] + (i >> 6), code] |= np.uint64(1) << np.uint64(i & 63)
        assert table.dtype == np.uint64 and np.array_equal(table, expected)

    def test_entry_checks(self):
        seqs = [np.array([1, 2, 3], dtype=np.uint8), np.array([], dtype=np.uint8),
                np.array([4, 20], dtype=np.uint8)]
        kwargs = dict(scheme=blosum62_scheme(), similarity=0.95, coverage=0.95)
        store = EncodedStore.from_sequences(seqs[:2])
        for ia, ib in (([0], [2]), ([-1], [0])):
            with pytest.raises(IndexError, match="out of range"):
                containment_columns(store, np.array(ia), np.array(ib), **kwargs)
        with pytest.raises(ValueError, match="non-empty"):
            containment_columns(store, np.array([0]), np.array([1]), **kwargs)
        with pytest.raises(ValueError, match="equal length"):
            containment_columns(store, np.array([0, 0]), np.array([0]), **kwargs)
        with pytest.raises(IndexError, match="alphabet"):
            containment_columns(EncodedStore.from_sequences([seqs[0], seqs[2]]),
                                np.array([0]), np.array([1]), **kwargs)


BUCKET_COUNTERS = ("batch.pairs", "batch.cells", "batch.buckets", "batch.padded_cells")


def recorded(run):
    """``run()`` and the ``batch.*`` DP counters it moved."""
    recorder = obs.Recorder()
    with obs.recording(recorder):
        result = run()
    return result, {name: recorder.value(name) for name in BUCKET_COUNTERS}


class TestAlignColumns:
    """The DP over index columns of a store: one int64 ``(k, 8)`` table
    whose every row, as an Alignment, is the scalar kernel's, and a list
    of the same arrays through ``batch_align`` fills the same buckets
    and names the same rows."""

    @given(
        lengths=st.lists(st.integers(1, 120), min_size=1, max_size=10),
        seed=st.integers(0, 2**32 - 1),
        n_pairs=st.sampled_from([1, 7, 16, 64, 65]),
        mode=st.sampled_from(MODES),
        scheme_idx=st.sampled_from(range(len(SCHEMES))),
    )
    @settings(max_examples=30, deadline=None)
    def test_columns_equal_the_oracle_and_the_pair_list(self, lengths, seed,
                                                        n_pairs, mode, scheme_idx):
        """Both columns drawn from few sequences: repeated indices, both
        orientations and equal-length copies; 1 to 65 pairs, so lone-pair
        buckets, narrow and wide chains and a split run all occur."""
        scheme = SCHEMES[scheme_idx]
        rng = np.random.default_rng(seed)
        seqs = store_sequences(rng, lengths)
        store = EncodedStore.from_sequences(seqs)
        ia = rng.integers(0, len(seqs), n_pairs)
        ib = rng.integers(0, len(seqs), n_pairs)
        table, counted = recorded(
            lambda: align_columns(store, ia, ib, scheme=scheme, mode=mode))
        assert table.dtype == np.int64 and table.shape == (n_pairs, 8)
        columns = [Alignment(*row, mode=mode) for row in table.tolist()]
        pairs = [(seqs[a], seqs[b]) for a, b in zip(ia.tolist(), ib.tolist())]
        assert columns == [SCALAR[mode](a, b, scheme) for a, b in pairs]
        assert recorded(lambda: batch_align(pairs, scheme, mode)) == (columns, counted)
        assert counted["batch.pairs"] == n_pairs

    def test_empty_columns(self):
        store = EncodedStore.from_sequences([encode("WCHW")])
        no_rows = np.zeros(0, dtype=np.int64)
        table, counted = recorded(lambda: align_columns(
            store, no_rows, no_rows, scheme=blosum62_scheme(), mode="local"))
        assert table.dtype == np.int64 and table.shape == (0, 8)
        assert counted == dict.fromkeys(BUCKET_COUNTERS, 0)

    def test_entry_checks(self):
        """A code outside the matrix, an index outside the store or
        columns of unequal length raise before any fill."""
        store = EncodedStore.from_sequences([encode("WCHW"), np.array([1, 20, 3], np.uint8)])
        for ia, ib, error, message in (([1], [0], IndexError, "alphabet"),
                                       ([0], [2], IndexError, "out of range"),
                                       ([-1], [0], IndexError, "out of range"),
                                       ([0, 0], [0], ValueError, "equal length")):
            with pytest.raises(error, match=message):
                align_columns(store, np.array(ia), np.array(ib),
                              scheme=blosum62_scheme(), mode="local")

    @given(lengths=st.lists(st.integers(1, 80), min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1), slots=st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_slot_codes_are_a_per_slot_copy(self, lengths, seed, slots):
        """One gather equals copying each slot's sequence into a zeroed
        column: code 0 past each slot's length, repeats included."""
        rng = np.random.default_rng(seed)
        seqs = [rng.integers(0, 20, m).astype(np.uint8) for m in lengths]
        store = EncodedStore.from_sequences(seqs)
        idx = rng.integers(0, len(seqs), slots)
        expected = np.zeros((max(len(seqs[k]) for k in idx.tolist()), slots), dtype=np.intp)
        for slot, k in enumerate(idx.tolist()):
            expected[: len(seqs[k]), slot] = seqs[k]
        codes = _slot_codes(store, idx)
        assert codes.dtype == np.intp and np.array_equal(codes, expected)


class TestFillBuffer:
    """One byte buffer per align_columns call: every bucket fills into
    it whatever was left there, whatever its dtype, and it is the one H
    the call holds."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("slots", [_DOUBLING_MIN_SLOTS - 1, _DOUBLING_MIN_SLOTS])
    def test_garbage_buffer_fills_as_zeros(self, mode, slots):
        """Narrow (accumulate) and wide (log-step) chains: a buffer of
        random bytes fills, cell for cell, as a zeroed one, and each real
        submatrix is the scalar _fill's: the fill sets row 0 and column 0
        before any row update reads them."""
        rng = np.random.default_rng(61)
        pairs = rand_pairs(rng, slots, lo=20, hi=90)
        scheme = blosum62_scheme()
        codes = slot_codes(pairs)
        nbytes = bucket_fill(pairs, scheme, mode).nbytes + 64
        zeros = np.zeros(nbytes, dtype=np.uint8)
        garbage = rng.integers(0, 256, nbytes, dtype=np.uint8)
        into_zeros = _bucket_fill(*codes, scheme, mode, zeros)
        into_garbage = _bucket_fill(*codes, scheme, mode, garbage)
        assert np.shares_memory(into_garbage, garbage)
        assert np.array_equal(into_garbage, into_zeros)
        for k, (a, b) in enumerate(pairs):
            assert np.array_equal(into_garbage[: len(a) + 1, : len(b) + 1, k],
                                  _fill(a, b, scheme, mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_buckets_switch_dtype_in_one_call(self, mode):
        """int16 buckets, then one past the int16 bound (936 residues a
        side, as TestFillDtype forces it), then int16 again over the
        int32 fill's bytes: every row is the scalar kernel's."""
        scheme = blosum62_scheme(gap=-8)
        rng = np.random.default_rng(67)
        a = rng.integers(0, 20, 936).astype(np.uint8)
        b = a.copy()
        pos = rng.integers(0, 936, 180)
        b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
        tall = (rng.integers(0, 20, 2900).astype(np.uint8),
                rng.integers(0, 20, 40).astype(np.uint8))
        pairs = rand_pairs(rng, 20, lo=40, hi=120) + [(a, b), tall]
        dims = [(len(x), len(y)) for x, y in pairs]
        assert [_chain_dtype(scheme, max(dims[k][0] for k in bucket),
                             max(dims[k][1] for k in bucket))
                for bucket in iter_buckets(dims, DEFAULT_BUCKET)] == [
            np.int16, np.int16, np.int16, np.int32, np.int16]
        store, ia, ib = pair_store(pairs)
        table = align_columns(store, ia, ib, scheme=scheme, mode=mode)
        assert [Alignment(*row, mode=mode) for row in table.tolist()] == [
            SCALAR[mode](x, y, scheme) for x, y in pairs]

    @pytest.mark.parametrize("mode", MODES)
    def test_one_live_h_per_call(self, mode):
        """Six buckets of four shapes (wide and narrow int16, a lone
        int32 square, a lone int16 1-by-5 slab): tracemalloc's peak over
        the call stays within the largest H plus half of it, which the
        fill's other operands (row tables, the substitution block, the
        codes) stay under here; the two largest H live at once would
        not.  The packing is pinned too."""
        scheme = blosum62_scheme()
        rng = np.random.default_rng(71)

        def seq(m):
            return rng.integers(0, 20, m).astype(np.uint8)

        pairs = [(seq(150), seq(150)) for _ in range(40)]
        pairs += [(seq(1200), seq(1200)), (seq(3000), seq(600))]
        dims = [(len(x), len(y)) for x, y in pairs]
        h_bytes = []
        for bucket in iter_buckets(dims, DEFAULT_BUCKET):
            m_pad = max(dims[k][0] for k in bucket)
            n_pad = max(dims[k][1] for k in bucket)
            itemsize = np.dtype(_chain_dtype(scheme, m_pad, n_pad)).itemsize
            h_bytes.append(len(bucket) * (m_pad + 1) * (n_pad + 1) * itemsize)
        largest, second = sorted(h_bytes)[-1:-3:-1]
        slack = largest // 2
        assert second > slack  # the bound can tell two live H from one
        store, ia, ib = pair_store(pairs)
        tracemalloc.start()
        try:
            _, counted = recorded(
                lambda: align_columns(store, ia, ib, scheme=scheme, mode=mode))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= largest + slack, (peak, largest)
        assert (counted["batch.buckets"], counted["batch.padded_cells"]) == (
            6, 4_158_042)


class TestCellsAccounting:
    """Satellite: batch.cells counts real pair dims, never padded slots."""

    def test_batch_align_cells_per_real_pair(self):
        rng = np.random.default_rng(19)
        # Wildly different lengths land in one quantised bucket (33..64):
        # padded accounting would overcharge the short pair.
        pairs = [
            (rng.integers(0, 20, 33).astype(np.uint8),
             rng.integers(0, 20, 64).astype(np.uint8)),
            (rng.integers(0, 20, 64).astype(np.uint8),
             rng.integers(0, 20, 33).astype(np.uint8)),
            (rng.integers(0, 20, 5).astype(np.uint8),
             rng.integers(0, 20, 200).astype(np.uint8)),
        ]
        real = sum(alignment_cells(len(a), len(b)) for a, b in pairs)
        padded_floor = 3 * (64 + 1) * (200 + 1)  # what slot-counting would give
        assert real < padded_floor
        recorder = obs.Recorder()
        with obs.recording(recorder):
            batch_align(pairs, blosum62_scheme(), "semiglobal")
        counters = recorder.counters()
        assert counters["batch.cells"] == real
        assert counters["batch.pairs"] == len(pairs)

    def test_containment_engine_charges_only_dp_pairs(self):
        rng = np.random.default_rng(37)
        a = rng.integers(0, 20, 100).astype(np.uint8)
        unrelated = rng.integers(0, 20, 100).astype(np.uint8)
        mutated = a.copy()
        mutated[[10, 50, 90]] = (mutated[[10, 50, 90]] + 1) % 20
        pairs = [(a.copy(), a.copy()), (a.copy(), unrelated), (a.copy(), mutated)]
        recorder = obs.Recorder()
        with obs.recording(recorder):
            res = batch_containment(
                pairs, scheme=blosum62_scheme(),
                similarity=0.95, coverage=0.95,
            )
        counters = recorder.counters()
        went_to_dp = pair_prefilter(
            pairs, scheme=blosum62_scheme(), similarity=0.95, coverage=0.95,
        ).undecided.tolist()
        dp_dims = [(len(pairs[k][0]), len(pairs[k][1])) for k in went_to_dp]
        assert counters.get("batch.cells", 0) == sum(alignment_cells(m, n) for m, n in dp_dims)
        assert counters["batch.myers_rejects"] == res.n_rejected
        assert counters["batch.exact_certified"] == res.n_exact
        assert counters["batch.dp_pairs"] == res.n_dp == 1
        assert counters["batch.pairs"] == len(pairs)  # the DP pair counted once


class TestPromisingPairDifferentialFuzz:
    """Replay random promising-pair workloads through the scalar
    Definition 1 kernel and through the RR phase (batched containment
    engine) and diff the resulting redundancy structure."""

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_rr_partitions_identical(self, seed, serial_session):
        """First principles: ``containment_test`` on every unique
        promising pair, Definition 1's mutual-containment tie-break
        (drop the shorter; ties: the higher index) applied by hand."""
        from repro.runtime.phases import backend_redundancy_removal
        from repro.sequence.generator import MetagenomeSpec, generate_metagenome
        from repro.suffix.matches import MaximalMatchFinder

        spec = MetagenomeSpec(
            n_families=5, mean_family_size=6, seed=seed,
            redundant_fraction=0.25,
        )
        sequences = generate_metagenome(spec).sequences
        encoded = [record.encoded for record in sequences]
        pairs = [
            m.pair
            for m in MaximalMatchFinder(encoded, min_length=8).unique_pairs()
        ]
        containments: list[tuple[int, int]] = []
        for i, j in pairs:
            i_in_j, j_in_i, _ = containment_test(encoded[i], encoded[j])
            if i_in_j and j_in_i:
                shorter_first = sorted(
                    (i, j), key=lambda k: (len(encoded[k]), -k)
                )
                containments.append(tuple(shorter_first))
            elif i_in_j:
                containments.append((i, j))
            elif j_in_i:
                containments.append((j, i))
        redundant = {contained for contained, _ in containments}
        assert redundant, "vacuous: the workload plants redundant copies"

        rr = backend_redundancy_removal(
            sequences, *serial_session(sequences), psi=8
        )
        assert rr.redundant == redundant
        assert rr.containments == sorted(containments)
        assert rr.kept == [
            k for k in range(len(sequences)) if k not in redundant
        ]
        assert rr.n_promising_pairs == len(pairs)
