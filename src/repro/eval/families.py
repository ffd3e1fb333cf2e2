"""Family-level reporting: how detected families map onto a benchmark.

The pair-counting scores of :mod:`repro.eval.metrics` compress everything
into four numbers; this module keeps the structure: which benchmark
cluster does each detected family draw from (purity), how many detected
families share one benchmark cluster (fragmentation — the paper's 850
dense subgraphs against 221 GOS clusters), and which benchmark members
were missed entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Hashable, Iterable, Sequence


@dataclass(frozen=True)
class FamilyMatch:
    """One detected family matched against the benchmark."""

    family_index: int
    size: int
    best_benchmark: Hashable | None
    overlap: int
    purity: float  # overlap / size


@dataclass
class FamilyComparison:
    """Structural comparison of a detected clustering to a benchmark."""

    matches: list[FamilyMatch]
    fragmentation: dict[Hashable, int]
    """benchmark label -> number of detected families drawing from it."""
    missed: dict[Hashable, int]
    """benchmark label -> members not covered by any detected family."""
    n_detected: int = 0
    n_benchmark: int = 0

    @property
    def mean_purity(self) -> float:
        if not self.matches:
            return 0.0
        return sum(m.purity for m in self.matches) / len(self.matches)

    @property
    def mean_fragmentation(self) -> float:
        """Average detected-families-per-benchmark-cluster (>= 1 when all
        clusters are hit; the paper's 850/221 ~ 3.8)."""
        hit = [v for v in self.fragmentation.values() if v > 0]
        if not hit:
            return 0.0
        return sum(hit) / len(hit)

    def summary(self) -> str:
        lines = [
            f"detected families:        {self.n_detected}",
            f"benchmark clusters:       {self.n_benchmark}",
            f"mean purity:              {self.mean_purity:.1%}",
            f"mean fragmentation:       {self.mean_fragmentation:.2f} families/cluster",
            f"benchmark clusters hit:   {len(self.fragmentation)}",
            f"clusters with misses:     {sum(1 for v in self.missed.values() if v)}",
        ]
        return "\n".join(lines)


def compare_families(
    detected: Sequence[Collection[Hashable]],
    benchmark: Iterable[Collection[Hashable]],
) -> FamilyComparison:
    """Match each detected family to the benchmark cluster it overlaps most.

    Items in a detected family but in no benchmark cluster count against
    purity (they are contaminants from the benchmark's perspective).
    """
    bench_of: dict[Hashable, Hashable] = {}
    bench_sizes: dict[Hashable, int] = {}
    for label, cluster in enumerate_benchmark(benchmark):
        for item in cluster:
            if item in bench_of:
                raise ValueError(f"item {item!r} in two benchmark clusters")
            bench_of[item] = label
        bench_sizes[label] = len(cluster)

    matches: list[FamilyMatch] = []
    fragmentation: dict[Hashable, int] = {}
    covered: dict[Hashable, int] = {label: 0 for label in bench_sizes}
    for index, family in enumerate(detected):
        counts: dict[Hashable, int] = {}
        for item in family:
            label = bench_of.get(item)
            if label is not None:
                counts[label] = counts.get(label, 0) + 1
        if counts:
            best = max(counts, key=lambda lab: (counts[lab], str(lab)))
            overlap = counts[best]
            fragmentation[best] = fragmentation.get(best, 0) + 1
            for label, k in counts.items():
                covered[label] += k
        else:
            best, overlap = None, 0
        matches.append(
            FamilyMatch(
                family_index=index,
                size=len(family),
                best_benchmark=best,
                overlap=overlap,
                purity=overlap / len(family) if family else 0.0,
            )
        )
    missed = {
        label: bench_sizes[label] - covered[label]
        for label in bench_sizes
    }
    return FamilyComparison(
        matches=matches,
        fragmentation=fragmentation,
        missed=missed,
        n_detected=len(detected),
        n_benchmark=len(bench_sizes),
    )


def enumerate_benchmark(
    benchmark: Iterable[Collection[Hashable]],
) -> Iterable[tuple[int, Collection[Hashable]]]:
    """Stable (label, cluster) enumeration of the benchmark clustering."""
    return enumerate(benchmark)
