"""Sequence model: amino-acid alphabet, records, FASTA I/O, data synthesis."""

from repro.sequence.alphabet import (
    AMINO_ACIDS,
    AA_TO_INDEX,
    INDEX_TO_AA,
    encode,
    decode,
    is_valid_protein,
)
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.sequence.fasta import read_fasta, write_fasta, parse_fasta_text, format_fasta
from repro.sequence.orf import (
    Orf,
    encode_dna,
    find_orfs,
    reverse_complement,
    translate,
)
from repro.sequence.generator import (
    FamilySpec,
    MetagenomeSpec,
    SyntheticMetagenome,
    generate_metagenome,
)

__all__ = [
    "AMINO_ACIDS",
    "AA_TO_INDEX",
    "INDEX_TO_AA",
    "encode",
    "decode",
    "is_valid_protein",
    "SequenceRecord",
    "SequenceSet",
    "read_fasta",
    "write_fasta",
    "parse_fasta_text",
    "format_fasta",
    "FamilySpec",
    "MetagenomeSpec",
    "SyntheticMetagenome",
    "generate_metagenome",
    "Orf",
    "encode_dna",
    "find_orfs",
    "reverse_complement",
    "translate",
]
