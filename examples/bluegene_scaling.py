#!/usr/bin/env python
"""BlueGene/L scaling study — reproduce the paper's Figures 6/7a live.

Runs the redundancy-removal and connected-component phases on a
simulated BlueGene/L at several processor counts, printing run-times and
speedups.  The science (which sequences are redundant, which clusters
form) is identical at every processor count — only the simulated time
changes — which this script also verifies.

Run:  python examples/bluegene_scaling.py
"""

from __future__ import annotations

from repro import (
    BLUEGENE_L,
    MetagenomeSpec,
    VirtualCluster,
    generate_metagenome,
)
from repro.pace.clustering import parallel_component_detection
from repro.pace.redundancy import parallel_redundancy_removal
from repro.util.timing import format_seconds


def main() -> None:
    data = generate_metagenome(
        MetagenomeSpec(
            n_families=12,
            mean_family_size=14,
            mean_length=130,
            identity_low=0.78,
            identity_high=0.92,
            redundant_fraction=0.10,
            noise_fraction=0.05,
            seed=512,
        )
    )
    sequences = data.sequences
    print(f"input: {len(sequences)} ORFs on a simulated {BLUEGENE_L.name}")

    processor_counts = (8, 16, 32, 64, 128)
    print(f"\n{'p':>5s} {'RR':>10s} {'CCD':>10s} {'RR+CCD':>10s} "
          f"{'speedup':>8s} {'efficiency':>11s}")

    reference = None
    base_time = None
    for p in processor_counts:
        cluster = VirtualCluster(p, BLUEGENE_L)
        rr = parallel_redundancy_removal(sequences, cluster, psi=10)
        ccd = parallel_component_detection(sequences, rr.kept, cluster, psi=10)
        total = rr.sim.elapsed + ccd.sim.elapsed

        # Verify processor-count invariance of the science.
        outcome = (frozenset(rr.redundant), tuple(map(tuple, ccd.components)))
        if reference is None:
            reference = outcome
            base_time = total
        else:
            assert outcome == reference, "results changed with processor count!"

        speedup = base_time / total * processor_counts[0]
        efficiency = rr.sim.parallel_efficiency()
        print(f"{p:>5d} {format_seconds(rr.sim.elapsed):>10s} "
              f"{format_seconds(ccd.sim.elapsed):>10s} {format_seconds(total):>10s} "
              f"{speedup:>8.1f} {efficiency:>10.0%}")

    print(f"\nCCD filtered {ccd.work_reduction:.1%} of promising pairs "
          f"({ccd.n_alignments:,} of {ccd.n_promising_pairs:,} aligned) — "
          "the transitive-closure heuristic that limits CCD scaling in Table II.")

    # Where each rank's virtual time went in the p=8 CCD phase: the
    # master (rank 0) mostly receives and filters while workers
    # alternate compute and waiting.
    cluster = VirtualCluster(8, BLUEGENE_L)
    rr8 = parallel_redundancy_removal(sequences, cluster, psi=10)
    ccd8 = parallel_component_detection(sequences, rr8.kept, cluster, psi=10)
    sim = ccd8.sim
    print("\nRanks of the p=8 CCD phase (rank 0 = master):")
    print(f"{'rank':>5s} {'compute':>10s} {'send':>10s} {'wait':>10s} {'idle':>10s}")
    for rank, stats in enumerate(sim.rank_stats):
        idle = max(sim.elapsed - stats.busy_seconds - stats.wait_seconds, 0.0)
        print(f"{rank:>5d} {format_seconds(stats.compute_seconds):>10s} "
              f"{format_seconds(stats.send_seconds):>10s} "
              f"{format_seconds(stats.wait_seconds):>10s} {format_seconds(idle):>10s}")
    busiest = max(range(sim.n_ranks), key=lambda r: sim.rank_stats[r].busy_seconds)
    print(f"busiest rank: {busiest}, busy "
          f"{sim.rank_stats[busiest].busy_seconds / sim.elapsed:.0%} of the phase")

if __name__ == "__main__":
    main()
