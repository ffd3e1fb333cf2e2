#!/usr/bin/env python
"""Domain-based family detection — the paper's B_m reduction.

Section III proposes a second bipartite reduction for families defined
by shared *domains* (Figure 1's CRAL/TRIO example): left vertices are
the fixed-length exact words (w ~ 10) occurring in at least two
sequences, right vertices the sequences, and the Shingle algorithm's B
side is the family.  The paper lists implementing this variant as
future work; this example exercises our implementation on synthetic
multi-domain families whose members share conserved blocks embedded in
unrelated linkers.

Run:  python examples/domain_families.py
"""

from __future__ import annotations

from repro import (
    MetagenomeSpec,
    PipelineConfig,
    ProteinFamilyPipeline,
    ShingleParams,
    generate_metagenome,
    pair_confusion,
    quality_scores,
)
from repro.suffix.wmer import WmerIndex


def main() -> None:
    # Multi-domain families: 3 conserved ~30-residue blocks per family
    # (one exact anchor motif), random linkers between them.
    data = generate_metagenome(
        MetagenomeSpec(
            n_families=8,
            mean_family_size=9,
            mean_length=160,
            domain_family_fraction=1.0,
            redundant_fraction=0.0,
            noise_fraction=0.10,
            fragment_fraction=0.0,
            seed=51,  # the CRAL/TRIO family of Figure 1 has 51 members
        )
    )
    print(f"input: {len(data.sequences)} multi-domain ORFs "
          f"({data.spec.n_families} planted families)")

    # Show the w-mer evidence the reduction builds on.
    encoded = [r.encoded for r in data.sequences]
    index = WmerIndex(encoded, w=10, min_sequences=2)
    print(f"shared 10-mers across sequences: {index.n_wmers} "
          f"({len(index.incidence)} incidence edges)")

    config = PipelineConfig(
        reduction="domain",
        w=10,
        min_component_size=4,
        min_subgraph_size=4,
        shingle=ShingleParams(s1=3, c1=100, s2=3, c2=40, seed=4),
    )
    result = ProteinFamilyPipeline(config).run(data.sequences)

    families = result.family_ids(data.sequences)
    print(f"\n{len(families)} domain families detected:")
    for family in families:
        planted = {data.truth[i] for i in family}
        print(f"  size {len(family):>3d}  planted-family ids {sorted(planted)}")

    truth = list(data.truth_clusters().values())
    scores = quality_scores(pair_confusion(families, truth))
    print("\nquality vs planted truth (domain reduction):")
    for name, value in scores.as_dict().items():
        print(f"  {name} = {value:.2%}")


if __name__ == "__main__":
    main()
