"""Alignment kernel shoot-out: scalar DP versus the batched engine.

Measures pairs/second on the workload that dominates the pipeline — the
RR phase's promising pairs (maximal exact match >= psi on a synthetic
metagenome with planted redundancy) — across four compute routes:

* ``scalar``       — per-pair :func:`containment_test` (the pre-batch
                     deployed path: one semiglobal DP per pair);
* ``batched_dp``   — :func:`batch_align` semiglobal over the same pairs
                     (vectorised fill, no fast paths);
* ``myers``        — the bit-parallel prefilter alone
                     (:func:`batch_myers_infix`), the engine's floor;
* ``engine``       — :func:`batch_containment` as deployed: Myers
                     rejection + distance-0 certificates + batched DP
                     for the remainder.

A fifth row times the certified banded route on its natural workload
(long near-duplicates, where the band certificate holds) against the
scalar global kernel.  The headline metric is
``speedup_engine_vs_scalar``; CI gates on it staying >= 5x and the
committed number must show >= 10x.  Writes ``BENCH_align_kernel.json``.
"""

from __future__ import annotations

import platform

import numpy as np

from repro.align.banded import banded_global_align
from repro.align.batch import (
    batch_align,
    batch_containment,
    batch_myers_infix,
    batch_score,
)
from repro.align.matrices import blosum62_scheme
from repro.align.pairwise import global_align
from repro.align.predicates import containment_test
from repro.runtime import usable_cpu_count
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.suffix.matches import MaximalMatchFinder
from repro.util.timing import monotonic_now

from workloads import print_banner, write_bench

PSI = 10
SIMILARITY = 0.95
COVERAGE = 0.95
MAX_PAIRS = 1500
N_BANDED = 40
BANDED_LENGTH = 1200


def rr_workload() -> list[tuple[np.ndarray, np.ndarray]]:
    """The RR promising-pair set of a redundancy-heavy metagenome."""
    spec = MetagenomeSpec(
        n_families=40, mean_family_size=18, seed=814, redundant_fraction=0.2
    )
    sequences = generate_metagenome(spec).sequences
    encoded = [record.encoded for record in sequences]
    finder = MaximalMatchFinder(encoded, min_length=PSI)
    pairs = []
    for match in finder.unique_pairs():
        pairs.append((encoded[match.seq_a], encoded[match.seq_b]))
        if len(pairs) >= MAX_PAIRS:
            break
    return pairs


def banded_workload() -> list[tuple[np.ndarray, np.ndarray]]:
    """Long near-duplicates: the certified banded route's home turf."""
    rng = np.random.default_rng(814)
    out = []
    for _ in range(N_BANDED):
        a = rng.integers(0, 20, BANDED_LENGTH).astype(np.uint8)
        b = a.copy()
        pos = rng.integers(0, len(b), 10)
        b[pos] = rng.integers(0, 20, len(pos)).astype(np.uint8)
        out.append((a, b))
    return out


def run_comparison() -> dict:
    scheme = blosum62_scheme()
    pairs = rr_workload()
    n = len(pairs)
    print_banner(f"alignment kernel shoot-out ({n} RR promising pairs)")

    start = monotonic_now()
    scalar_verdicts = [
        containment_test(a, b, scheme=scheme,
                         similarity=SIMILARITY, coverage=COVERAGE)[:2]
        for a, b in pairs
    ]
    scalar_s = monotonic_now() - start

    start = monotonic_now()
    batch_align(pairs, scheme, "semiglobal")
    batched_dp_s = monotonic_now() - start

    shorter = [a if len(a) <= len(b) else b for a, b in pairs]
    longer = [b if len(a) <= len(b) else a for a, b in pairs]
    start = monotonic_now()
    batch_myers_infix(shorter, longer)
    myers_s = monotonic_now() - start

    start = monotonic_now()
    res = batch_containment(
        pairs, scheme=scheme, similarity=SIMILARITY, coverage=COVERAGE
    )
    engine_s = monotonic_now() - start

    engine_verdicts = [
        (ident >= SIMILARITY and cov_a >= COVERAGE,
         ident >= SIMILARITY and cov_b >= COVERAGE)
        for ident, cov_a, cov_b in res.stats
    ]
    assert engine_verdicts == scalar_verdicts, "kernel equivalence violated"

    long_pairs = banded_workload()
    start = monotonic_now()
    [global_align(a, b, scheme).score for a, b in long_pairs]
    long_scalar_s = monotonic_now() - start
    start = monotonic_now()
    banded_scores = [
        banded_global_align(a, b, abs(len(a) - len(b)) + 32, scheme).score
        for a, b in long_pairs
    ]
    banded_s = monotonic_now() - start
    certified = list(batch_score(long_pairs, scheme, "global"))
    assert certified == banded_scores == [
        global_align(a, b, scheme).score for a, b in long_pairs
    ]

    rows = {
        "scalar": n / scalar_s,
        "batched_dp": n / batched_dp_s,
        "myers": n / myers_s,
        "engine": n / engine_s,
        "banded_long": len(long_pairs) / banded_s,
        "scalar_long": len(long_pairs) / long_scalar_s,
    }
    for name, pps in rows.items():
        print(f"  {name:<12} {pps:10.0f} pairs/s")

    speedup = rows["engine"] / rows["scalar"]
    print(f"  engine vs scalar: {speedup:.1f}x "
          f"(rejected {res.n_rejected}, exact {res.n_exact}, DP {res.n_dp})")

    return {
        "pairs_per_sec_scalar": round(rows["scalar"], 1),
        "pairs_per_sec_batched_dp": round(rows["batched_dp"], 1),
        "pairs_per_sec_myers": round(rows["myers"], 1),
        "pairs_per_sec_engine": round(rows["engine"], 1),
        "pairs_per_sec_banded_long": round(rows["banded_long"], 1),
        "pairs_per_sec_scalar_long": round(rows["scalar_long"], 1),
        "speedup_engine_vs_scalar": round(speedup, 2),
        "speedup_banded_vs_scalar_long": round(
            rows["banded_long"] / rows["scalar_long"], 2
        ),
        "n_rejected": res.n_rejected,
        "n_exact": res.n_exact,
        "n_dp": res.n_dp,
    }


def main() -> None:
    metrics = run_comparison()
    write_bench(
        "align_kernel",
        {
            "psi": PSI,
            "similarity": SIMILARITY,
            "coverage": COVERAGE,
            "n_pairs": MAX_PAIRS,
            "n_banded_pairs": N_BANDED,
            "banded_length": BANDED_LENGTH,
            "cpu_count": usable_cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        metrics,
    )
    if metrics["speedup_engine_vs_scalar"] < 5.0:
        raise SystemExit(
            f"batched engine speedup {metrics['speedup_engine_vs_scalar']}x "
            "below the 5x floor"
        )


if __name__ == "__main__":
    main()
