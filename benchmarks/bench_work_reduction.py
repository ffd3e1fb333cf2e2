"""Section V work-reduction claims.

Paper (40K input): 168M promising pairs generated from 10-residue
maximal matches; only 7M aligned after clustering's transitive-closure
filter; an all-versus-all scheme would need ~800M alignments — a 99%
reduction.

We reproduce the same three-way accounting on the 40K analogue.
"""

from __future__ import annotations

from repro.align.matrices import blosum62_scheme
from repro.runtime import SerialBackend
from repro.runtime.phases import (
    backend_component_detection,
    backend_redundancy_removal,
)

from workloads import print_banner, scaling_cache, scaling_subset, write_bench


def accounting():
    sequences = scaling_subset("40k")
    cache = scaling_cache()
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        rr = backend_redundancy_removal(sequences, backend, cache, psi=10)
        ccd = backend_component_detection(
            sequences, rr.kept, backend, cache, psi=10
        )
    n = len(rr.kept)
    all_pairs = n * (n - 1) // 2
    return {
        "n_nonredundant": n,
        "all_vs_all": all_pairs,
        "promising": ccd.n_promising_pairs,
        "aligned": ccd.n_alignments,
        "filtered_fraction": ccd.work_reduction,
        "vs_all_pairs_reduction": 1.0 - ccd.n_alignments / all_pairs,
    }


def test_work_reduction(benchmark):
    stats = benchmark.pedantic(accounting, rounds=1, iterations=1)

    print_banner("Work reduction analogue ('40K' input, CCD phase)")
    print(f"non-redundant sequences:        {stats['n_nonredundant']:>12,d}")
    print(f"all-versus-all alignments:      {stats['all_vs_all']:>12,d}")
    print(f"promising pairs generated:      {stats['promising']:>12,d}")
    print(f"pairs actually aligned:         {stats['aligned']:>12,d}")
    print(f"filtered by transitive closure: {stats['filtered_fraction']:>12.2%}")
    print(f"reduction vs all-versus-all:    {stats['vs_all_pairs_reduction']:>12.2%}")
    print("\npaper (40K): 800M all-vs-all, 168M promising, 7M aligned (99% reduction)")
    write_bench(
        "work_reduction",
        params={"input": "40k", "psi": 10},
        metrics={k: round(v, 4) if isinstance(v, float) else v
                 for k, v in stats.items()},
    )

    # The exact-match filter prunes most of the quadratic pair space...
    assert stats["promising"] < 0.5 * stats["all_vs_all"]
    # ...and the clustering filter prunes most of what remains.
    assert stats["filtered_fraction"] > 0.8
    # End-to-end: versus all-versus-all the reduction is ~99%.
    assert stats["vs_all_pairs_reduction"] > 0.95
