"""Tests for repro.util.rng and repro.util.timing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import derive_seed, make_rng
from repro.util.timing import format_seconds


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "family", 3) == derive_seed(7, "family", 3)

    def test_label_sensitivity(self):
        assert derive_seed(7, "family", 3) != derive_seed(7, "family", 4)
        assert derive_seed(7, "family") != derive_seed(7, "noise")

    def test_master_sensitivity(self):
        assert derive_seed(7, "x") != derive_seed(8, "x")

    def test_int_vs_str_labels_distinct(self):
        assert derive_seed(7, 3) != derive_seed(7, "3")

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_range(self, master):
        assert 0 <= derive_seed(master, "a", 1) < 2**64

    def test_make_rng_streams_independent(self):
        a = make_rng(1, "a").integers(0, 1000, 50)
        b = make_rng(1, "b").integers(0, 1000, 50)
        assert not (a == b).all()

    def test_make_rng_reproducible(self):
        assert (make_rng(5, "z").random(10) == make_rng(5, "z").random(10)).all()


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "seconds,expected",
        [(0.0, "0.0s"), (45.25, "45.2s"), (60, "1m 00s"), (3600, "1h 00m"),
         (12000, "3h 20m"), (125, "2m 05s"),
         # Under a second: milliseconds, so a small simulated phase reads.
         (0.0125, "12.5ms"), (0.4, "400.0ms"), (1.0, "1.0s")],
    )
    def test_known(self, seconds, expected):
        assert format_seconds(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-1)
