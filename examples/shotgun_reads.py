#!/usr/bin/env python
"""Shotgun reads to protein families — the full metagenomics path.

Section I's workflow: environmental DNA is shredded into reads, ORFs are
predicted from the reads, and the pipeline clusters the ORFs into
families.  This example synthesises DNA reads carrying family genes
(embedded in random intergenic sequence, on both strands), calls ORFs in
all six frames, and runs the family pipeline on whatever the caller
found — no ground-truth shortcuts past the ORF stage.

Run:  python examples/shotgun_reads.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    PipelineConfig,
    ProteinFamilyPipeline,
    SequenceRecord,
    SequenceSet,
    ShingleParams,
)
from repro.sequence.orf import encode_dna, orfs_to_proteins, reverse_complement
from repro.util.rng import make_rng

#: Codons per amino acid (first listed codon used for back-translation).
_CODON = {
    "A": "GCT", "R": "CGT", "N": "AAT", "D": "GAT", "C": "TGT",
    "Q": "CAA", "E": "GAA", "G": "GGT", "H": "CAT", "I": "ATT",
    "L": "CTT", "K": "AAA", "M": "ATG", "F": "TTT", "P": "CCT",
    "S": "TCT", "T": "ACT", "W": "TGG", "Y": "TAT", "V": "GTT",
}
_AAS = "ARNDCQEGHILKMFPSTWYV"


def back_translate(protein: str) -> str:
    return "".join(_CODON[aa] for aa in protein)


def random_protein(rng: np.random.Generator, length: int) -> str:
    return "".join(_AAS[int(i)] for i in rng.integers(0, 20, length))


def mutate_protein(rng: np.random.Generator, protein: str, identity: float) -> str:
    out = list(protein)
    for k in range(len(out)):
        if rng.random() > identity:
            out[k] = _AAS[int(rng.integers(0, 20))]
    return "".join(out)


def main() -> None:
    rng = make_rng(1977, "shotgun")  # Sanger's phi X 174, the first genome
    n_families, members_each, gene_len = 6, 8, 70

    reads: list[np.ndarray] = []
    for fam in range(n_families):
        ancestor = random_protein(rng, gene_len)
        for _ in range(members_each):
            protein = mutate_protein(rng, ancestor, identity=0.88)
            gene = back_translate(protein)
            # Embed the gene in stop-rich intergenic context so the ORF
            # caller must find the real boundaries.
            left = "TAA" * int(rng.integers(2, 6))
            right = "TGA" * int(rng.integers(2, 6))
            dna = encode_dna(left + gene + right)
            if rng.random() < 0.5:  # half the reads arrive reverse-complemented
                dna = reverse_complement(dna)
            reads.append(dna)
    print(f"synthesised {len(reads)} shotgun reads "
          f"({n_families} gene families planted)")

    # --- ORF calling, six frames ----------------------------------------
    proteins = orfs_to_proteins(reads, min_length=50)
    print(f"called {len(proteins)} ORFs of >= 50 residues")

    sequences = SequenceSet(
        SequenceRecord(id=f"orf{k:04d}", residues=protein)
        for k, protein in enumerate(proteins)
    )

    # --- family identification ------------------------------------------
    config = PipelineConfig(
        min_component_size=4,
        min_subgraph_size=4,
        shingle=ShingleParams(s1=3, c1=80, s2=2, c2=30, seed=3),
    )
    result = ProteinFamilyPipeline(config).run(sequences)
    families = result.family_ids(sequences)
    print(f"\n{len(families)} protein families recovered from raw reads "
          f"(planted: {n_families}):")
    for fam in families:
        print(f"  size {len(fam):>3d}: {', '.join(fam[:5])}"
              + (" ..." if len(fam) > 5 else ""))


if __name__ == "__main__":
    main()
