"""Unit and property tests for repro.util.hashing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import (
    UniversalHashFamily,
    fnv1a_64,
    hash_rows,
    splitmix64,
)
from tests.scalar_shingle import hash_int_tuple, min_sample, min_samples_matrix


class TestFnv:
    def test_known_value_empty(self):
        # FNV-1a offset basis for empty input.
        assert fnv1a_64(b"") == 0xCBF29CE484222325

    def test_distinct_inputs_distinct_hashes(self):
        values = {fnv1a_64(f"seq{i}".encode()) for i in range(1000)}
        assert len(values) == 1000

    def test_deterministic(self):
        assert fnv1a_64(b"hello") == fnv1a_64(b"hello")

    def test_order_sensitive(self):
        assert fnv1a_64(b"ab") != fnv1a_64(b"ba")


class TestSplitmix:
    def test_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_avalanche_nontrivial(self):
        # Flipping one input bit should change many output bits.
        a = splitmix64(0)
        b = splitmix64(1)
        assert bin(a ^ b).count("1") > 16

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_deterministic(self, x):
        assert splitmix64(x) == splitmix64(x)


class TestHashIntTuple:
    def test_seed_sensitivity(self):
        assert hash_int_tuple([1, 2, 3], seed=0) != hash_int_tuple([1, 2, 3], seed=1)

    def test_order_sensitivity(self):
        assert hash_int_tuple([1, 2, 3]) != hash_int_tuple([3, 2, 1])

    def test_length_sensitivity(self):
        assert hash_int_tuple([1, 2]) != hash_int_tuple([1, 2, 0])

    @given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=8))
    def test_deterministic(self, values):
        assert hash_int_tuple(values) == hash_int_tuple(values)


class TestHashRows:
    @given(
        st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3), max_size=6),
        st.integers(0, 2**32),
    )
    def test_rows_are_hash_int_tuple(self, rows, seed):
        matrix = np.array(rows, dtype=np.uint64).reshape(len(rows), 3)
        before = matrix.copy()
        assert hash_rows(matrix, seed=seed).tolist() == [
            hash_int_tuple(row, seed=seed) for row in rows
        ]
        assert np.array_equal(matrix, before)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            hash_rows(np.arange(4, dtype=np.uint64))


class TestUniversalHashFamily:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            UniversalHashFamily(0)

    def test_apply_out_of_range(self):
        fam = UniversalHashFamily(3, seed=1)
        assert fam.apply_all([1, 2]).shape == (3, 2)
        with pytest.raises(IndexError):
            fam.apply_all([1, 2])[3]

    def test_keys_derived_once_and_read_only(self):
        """The member keys chain ``splitmix64`` from the seed; instances
        of one ``(count, seed)`` share a single immutable array."""
        key, keys = splitmix64(7 ^ 0x5EED_0F0F), []
        for _ in range(5):
            key = splitmix64(key)
            keys.append(key)
        fam = UniversalHashFamily(5, seed=7)
        assert fam._keys.tolist() == keys
        assert UniversalHashFamily(5, seed=7)._keys is fam._keys
        assert UniversalHashFamily(5, seed=8)._keys.tolist() != keys
        with pytest.raises(ValueError):
            fam._keys[0] = 0

    def test_apply_is_the_scalar_mixer_and_leaves_its_input(self):
        fam = UniversalHashFamily(3, seed=1)
        x = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        before = x.copy()
        hashed = fam.apply_all(x)[2]
        assert np.array_equal(x, before)
        key = int(fam._keys[2])
        # splitmix64 adds the golden-ratio increment, then finalises.
        assert hashed.tolist() == [splitmix64(int(v) ^ key) for v in before]

    def test_members_differ(self):
        fam = UniversalHashFamily(4, seed=1)
        x = np.arange(100, dtype=np.uint64)
        h0, h1 = fam.apply_all(x)[:2]
        assert not np.array_equal(h0, h1)

    def test_seed_changes_family(self):
        x = np.arange(50, dtype=np.uint64)
        a = UniversalHashFamily(2, seed=1).apply_all(x)[0]
        b = UniversalHashFamily(2, seed=2).apply_all(x)[0]
        assert not np.array_equal(a, b)

    def test_apply_all_matches_apply(self):
        fam = UniversalHashFamily(5, seed=42)
        x = np.arange(37, dtype=np.uint64)
        all_h = fam.apply_all(x)
        for k in range(5):
            key = int(fam._keys[k])
            assert all_h[k].tolist() == [splitmix64(int(v) ^ key) for v in x]

    def test_min_sample_is_subset(self):
        fam = UniversalHashFamily(3, seed=9)
        values = [10, 20, 30, 40, 50, 60]
        sample = min_sample(fam, 1, values, 3)
        assert len(sample) == 3
        assert set(sample) <= set(values)
        assert sample == tuple(sorted(sample))

    def test_min_sample_too_few(self):
        fam = UniversalHashFamily(1, seed=0)
        with pytest.raises(ValueError):
            min_sample(fam, 0, [1, 2], 3)

    def test_min_samples_all_matches_loop(self):
        fam = UniversalHashFamily(8, seed=3)
        values = np.array([5, 17, 2, 99, 43, 8, 61], dtype=np.uint64)
        batched = min_samples_matrix(fam, values, 3)
        looped = [min_sample(fam, k, values, 3) for k in range(8)]
        assert batched.dtype == np.uint64
        assert batched.tolist() == [list(row) for row in looped]

    def test_min_samples_all_full_set(self):
        fam = UniversalHashFamily(4, seed=3)
        assert min_samples_matrix(fam, [3, 1, 2], 3).tolist() == [[1, 2, 3]] * 4

    @given(
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=30,
                 unique=True),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100)
    def test_min_samples_matrix_rows_are_min_samples(self, values, s, seed):
        """The batched draw is the scalar definition exactly, row for row:
        mix64(x ^ key) is a bijection, so no two distinct values tie at
        the argpartition cut and nothing is left to a tie-break."""
        s = min(s, len(values))
        fam = UniversalHashFamily(6, seed=seed)
        matrix = min_samples_matrix(fam, values, s)
        for k in range(fam.count):
            assert tuple(matrix[k].tolist()) == min_sample(fam, k, values, s)
        hashed = fam.apply_all(values)
        assert all(len(set(row)) == len(values) for row in hashed.tolist())

    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=4, max_size=30, unique=True),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50)
    def test_shared_elements_shingle_agreement(self, values, seed):
        """Identical Gamma sets produce identical shingle sets (the property
        the Shingle algorithm's grouping relies on)."""
        fam = UniversalHashFamily(6, seed=seed)
        s = min(3, len(values))
        first = min_samples_matrix(fam, values, s)
        second = min_samples_matrix(fam, list(values), s)
        assert np.array_equal(first, second)

    def test_min_wise_uniformity(self):
        """Each element should be the minimum under roughly 1/n of the
        permutations — the min-wise independence property, statistically."""
        n = 8
        trials = 2000
        fam = UniversalHashFamily(trials, seed=11)
        values = np.arange(100, 100 + n, dtype=np.uint64)
        counts = dict.fromkeys(int(v) for v in values)
        for key in counts:
            counts[key] = 0
        for k in range(trials):
            winner = min_sample(fam, k, values, 1)[0]
            counts[winner] += 1
        expected = trials / n
        for count in counts.values():
            assert 0.5 * expected < count < 1.7 * expected
