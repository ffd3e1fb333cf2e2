"""``benchmarks/ab.py``'s verdict on hand-made samples, with no run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_gain_needs_nine_wins_in_ten_and_a_median_past_the_base_iqr():
    faster = [b - 0.10 for b in BASE]
    row = ab.judge(BASE, faster, better="lower", bound=0.25)
    assert (row["wins"], row["verdict"]) == (10, "gain")
    # Eight wins in ten are not a gain, however far the median moved.
    slower_twice = faster[:8] + [BASE[8] + 0.01, BASE[9] + 0.01]
    assert ab.judge(BASE, slower_twice, better="lower", bound=0.25)["verdict"] == "same"
    # Ten wins by less than the base's IQR are not a gain either.
    nudged = [b - 0.001 for b in BASE]
    row = ab.judge(BASE, nudged, better="lower", bound=0.25)
    assert (row["wins"], row["verdict"]) == (10, "same")
    assert row["base_iqr"] > 0.001


def test_higher_is_better_turns_the_comparison_round():
    more = [b + 0.10 for b in BASE]
    assert ab.judge(BASE, more, better="higher", bound=0.25)["verdict"] == "gain"
    assert ab.judge(BASE, more, better="lower", bound=0.05)["verdict"] == "worse"


def test_worse_is_the_median_past_the_bound():
    slower = [b * 1.3 for b in BASE]
    row = ab.judge(BASE, slower, better="lower", bound=0.25)
    assert (row["wins"], row["verdict"]) == (0, "worse")
    assert ab.judge(BASE, slower, better="lower", bound=0.35)["verdict"] == "same"


def test_a_spread_past_the_bound_is_unresolved():
    noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.0, 1.6, 0.5, 1.3, 0.8]
    assert ab.judge(BASE, noisy, better="lower", bound=0.25)["verdict"] == "unresolved"
    # setup_s is not gated on spread (as in run.py's A/A).
    assert ab.judge(BASE, noisy, better="lower", bound=0.25, gated=False)["verdict"] == "same"
    # Every head run better than every base run settles it.
    wide_but_faster = [0.2, 0.5, 0.3, 0.6, 0.25, 0.4, 0.55, 0.35, 0.45, 0.3]
    assert ab.judge(BASE, wide_but_faster, better="lower", bound=0.25)["verdict"] == "gain"


def test_ties_count_for_neither_side():
    row = ab.judge(BASE, list(BASE), better="lower", bound=0.25)
    assert (row["wins"], row["verdict"]) == (0, "same")
    half = [b if k % 2 else b - 0.5 for k, b in enumerate(BASE)]
    assert ab.judge(BASE, half, better="lower", bound=0.25)["wins"] == 5


def test_medians_and_iqr_are_the_quartiles_run_py_takes():
    row = ab.judge([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], better="lower", bound=9.0)
    assert row["base_median"] == row["head_median"] == 2.5
    assert row["base_iqr"] == pytest.approx(3.75 - 1.25)
