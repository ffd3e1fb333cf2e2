"""DNA encoding, translation, and ORF-calling tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.orf import (
    DNA_ALPHABET,
    GENETIC_CODE,
    Orf,
    encode_dna,
    find_orfs,
    orfs_to_proteins,
    reverse_complement,
    translate,
)

dna_strings = st.text(alphabet="ACGT", min_size=1, max_size=120)


def decode_dna(encoded: np.ndarray) -> str:
    """Inverse of ``encode_dna``: what the round-trip tests read codes
    back with (nothing under ``src/`` decodes DNA)."""
    return "".join(DNA_ALPHABET[int(x)] for x in np.asarray(encoded))


class TestDnaEncoding:
    @given(dna_strings)
    def test_roundtrip(self, s):
        assert decode_dna(encode_dna(s)) == s

    def test_lowercase_and_n(self):
        assert decode_dna(encode_dna("acgt")) == "ACGT"
        assert decode_dna(encode_dna("NN")) == "AA"

    def test_invalid(self):
        with pytest.raises(ValueError, match="position 1"):
            encode_dna("AXG")

    @given(dna_strings)
    def test_reverse_complement_involution(self, s):
        enc = encode_dna(s)
        assert np.array_equal(reverse_complement(reverse_complement(enc)), enc)

    def test_reverse_complement_known(self):
        assert decode_dna(reverse_complement(encode_dna("ATGC"))) == "GCAT"


class TestGeneticCode:
    def test_code_has_64_entries(self):
        assert len(GENETIC_CODE) == 64
        assert GENETIC_CODE.count("*") == 3  # TAA, TAG, TGA

    @pytest.mark.parametrize(
        "codon,aa",
        [
            ("ATG", "M"), ("TGG", "W"), ("TAA", "*"), ("TAG", "*"), ("TGA", "*"),
            ("TTT", "F"), ("TTA", "L"), ("AAA", "K"), ("GAT", "D"), ("TGC", "C"),
            ("CAT", "H"), ("CGA", "R"), ("AGC", "S"), ("GGG", "G"),
        ],
    )
    def test_known_codons(self, codon, aa):
        assert translate(encode_dna(codon)) == aa

    def test_translate_frames(self):
        dna = encode_dna("AATGGCC")
        assert translate(dna, frame=0) == "NG"   # AAT GGC
        assert translate(dna, frame=1) == "MA"   # ATG GCC
        assert translate(dna, frame=2) == "W"    # TGG (CC dropped)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            translate(encode_dna("ATG"), frame=3)

    def test_short_input(self):
        assert translate(encode_dna("AT")) == ""


class TestFindOrfs:
    def test_simple_forward_orf(self):
        # 12 codons, no stops
        dna = encode_dna("ATGGCTGCTGCTGCTGCTGCTGCTGCTGCTGCTGCT")
        orfs = find_orfs(dna, min_length=10)
        forward = [o for o in orfs if o.strand == "+" and o.frame == 0]
        assert forward
        assert forward[0].protein.startswith("MAAA")

    def test_stop_splits_orfs(self):
        # two stop-free stretches separated by TAA
        stretch = "GCT" * 12
        dna = encode_dna(stretch + "TAA" + stretch)
        orfs = [o for o in find_orfs(dna, min_length=10) if o.strand == "+" and o.frame == 0]
        assert len(orfs) == 2
        assert all(o.protein == "A" * 12 for o in orfs)

    def test_reverse_strand_found(self):
        forward_protein = "M" + "A" * 20
        dna_fwd = "ATG" + "GCT" * 20
        dna = decode_dna(reverse_complement(encode_dna(dna_fwd)))
        orfs = find_orfs(encode_dna(dna), min_length=15)
        assert any(o.strand == "-" and o.protein == forward_protein for o in orfs)

    def test_min_length_filter(self):
        dna = encode_dna("GCT" * 8)  # 8 residues only
        assert find_orfs(dna, min_length=10) == []
        assert len(find_orfs(dna, min_length=5)) >= 1

    def test_min_length_validation(self):
        with pytest.raises(ValueError):
            find_orfs(encode_dna("ATG"), min_length=0)

    def test_orf_coordinates_consistent(self):
        dna = encode_dna("CC" + "GCT" * 15)
        for orf in find_orfs(dna, min_length=10):
            assert orf.end - orf.start == 3 * len(orf.protein)
            assert 0 <= orf.start < orf.end <= len(dna)

    @given(dna_strings)
    @settings(max_examples=40)
    def test_orf_proteins_stop_free(self, s):
        for orf in find_orfs(encode_dna(s), min_length=1):
            assert "*" not in orf.protein

    def test_orfs_to_proteins(self):
        reads = [encode_dna("GCT" * 15), encode_dna("AAA" * 15)]
        proteins = orfs_to_proteins(reads, min_length=10)
        assert len(proteins) >= 2
        assert all(isinstance(p, str) for p in proteins)

    def test_end_to_end_into_pipeline_alphabet(self):
        """ORF proteins are valid pipeline input."""
        from repro.sequence.alphabet import is_valid_protein

        dna = encode_dna("ATG" + "GCTCGTAATGAT" * 10)
        for orf in find_orfs(dna, min_length=10):
            assert is_valid_protein(orf.protein)


def _reverse_translate(protein: str) -> str:
    """One DNA realisation of ``protein`` (first codon per residue)."""
    out = []
    for aa in protein:
        idx = GENETIC_CODE.index(aa)
        out.append(
            "ACGT"[idx // 16] + "ACGT"[(idx // 4) % 4] + "ACGT"[idx % 4]
        )
    return "".join(out)


class TestOrfRoundTrip:
    """Protein -> DNA -> ORF caller recovers the protein exactly."""

    def test_roundtrip_every_forward_frame(self):
        protein = "MKLVNQWERTYHADGSCFIP"
        for frame in (0, 1, 2):
            dna = encode_dna("C" * frame + _reverse_translate(protein))
            hits = [
                o for o in find_orfs(dna, min_length=len(protein))
                if o.strand == "+" and o.frame == frame
            ]
            assert len(hits) == 1
            orf = hits[0]
            assert orf.protein == protein
            # Coordinates round-trip: the called span translates back.
            assert translate(dna[orf.start:orf.end]) == protein

    def test_roundtrip_reverse_strand(self):
        protein = "MKLVNQWERTYHADGSCFIP"
        dna = reverse_complement(encode_dna(_reverse_translate(protein)))
        hits = [
            o for o in find_orfs(dna, min_length=len(protein))
            if o.strand == "-"
        ]
        assert [o.protein for o in hits] == [protein]

    def test_roundtrip_with_flanking_stops(self):
        protein = "A" * 15 + "MKLV" + "G" * 15
        dna = encode_dna(
            "TAA" + _reverse_translate(protein) + "TGA"
        )
        hits = [o.protein for o in find_orfs(dna, min_length=len(protein))]
        assert protein in hits

    def test_generator_proteins_roundtrip(self, tiny_metagenome):
        """Synthetic-family proteins survive read -> ORF -> protein."""
        proteins = [
            r.residues for r in list(tiny_metagenome.sequences)[:10]
        ]
        reads = [
            encode_dna("TAG" + _reverse_translate(p) + "TAA")
            for p in proteins
        ]
        recovered = set(
            orfs_to_proteins(reads, min_length=min(len(p) for p in proteins))
        )
        for protein in proteins:
            assert protein in recovered
