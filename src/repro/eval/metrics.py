"""Pair-counting clustering comparison — equations (1)-(4) of the paper.

A sequence pair is TP if co-clustered in both the Test and the Benchmark
clustering, TN if separated in both, FP if together only in Test, FN if
together only in Benchmark.  Following the paper, only sequences that are
clustered under *both* schemes enter the universe.

Counts are computed from the contingency table in O(#clusters^2) rather
than enumerating the Theta(n^2) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Hashable, Iterable, Sequence


@dataclass(frozen=True)
class PairConfusion:
    """Raw pair counts."""

    tp: int
    fp: int
    fn: int
    tn: int
    n_items: int


@dataclass(frozen=True)
class QualityScores:
    """The paper's four quality measures, each in [0, 1] (CC in [-1, 1])."""

    precision: float  # PR = TP / (TP + FP)
    sensitivity: float  # SE = TP / (TP + FN)
    overlap_quality: float  # OQ = TP / (TP + FP + FN)
    correlation: float  # CC, Matthews-style

    def as_dict(self) -> dict[str, float]:
        return {
            "PR": self.precision,
            "SE": self.sensitivity,
            "OQ": self.overlap_quality,
            "CC": self.correlation,
        }


def _comb2(k: int) -> int:
    return k * (k - 1) // 2


def pair_confusion(
    test: Iterable[Collection[Hashable]],
    benchmark: Iterable[Collection[Hashable]],
) -> PairConfusion:
    """Pair confusion counts between two clusterings.

    Items appearing in more than one cluster of a scheme are rejected
    (clusterings must be partitions of their covered items); items
    missing from either scheme are excluded from the universe, per the
    paper's evaluation protocol.
    """
    test_label: dict[Hashable, int] = {}
    for idx, cluster in enumerate(test):
        for item in cluster:
            if item in test_label:
                raise ValueError(f"item {item!r} in two Test clusters")
            test_label[item] = idx
    bench_label: dict[Hashable, int] = {}
    for idx, cluster in enumerate(benchmark):
        for item in cluster:
            if item in bench_label:
                raise ValueError(f"item {item!r} in two Benchmark clusters")
            bench_label[item] = idx

    universe = [item for item in test_label if item in bench_label]
    n = len(universe)

    contingency: dict[tuple[int, int], int] = {}
    test_sizes: dict[int, int] = {}
    bench_sizes: dict[int, int] = {}
    for item in universe:
        t, b = test_label[item], bench_label[item]
        contingency[(t, b)] = contingency.get((t, b), 0) + 1
        test_sizes[t] = test_sizes.get(t, 0) + 1
        bench_sizes[b] = bench_sizes.get(b, 0) + 1

    tp = sum(_comb2(c) for c in contingency.values())
    together_test = sum(_comb2(c) for c in test_sizes.values())
    together_bench = sum(_comb2(c) for c in bench_sizes.values())
    fp = together_test - tp
    fn = together_bench - tp
    tn = _comb2(n) - tp - fp - fn
    return PairConfusion(tp=tp, fp=fp, fn=fn, tn=tn, n_items=n)


def quality_scores(confusion: PairConfusion) -> QualityScores:
    """PR / SE / OQ / CC from pair counts; empty denominators give 0."""
    tp, fp, fn, tn = confusion.tp, confusion.fp, confusion.fn, confusion.tn

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    denom = (tp + fp) * (tn + fn) * (tp + fn) * (tn + fp)
    cc = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    return QualityScores(
        precision=ratio(tp, tp + fp),
        sensitivity=ratio(tp, tp + fn),
        overlap_quality=ratio(tp, tp + fp + fn),
        correlation=cc,
    )


def compare_clusterings(
    test: Iterable[Collection[Hashable]],
    benchmark: Iterable[Collection[Hashable]],
) -> QualityScores:
    """One-call convenience: confusion + scores."""
    return quality_scores(pair_confusion(test, benchmark))
