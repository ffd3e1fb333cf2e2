"""DNA handling and ORF extraction — the pipeline's upstream substrate.

A metagenomics project (Section I) shreds environmental DNA into reads,
and ORF prediction turns reads into the amino-acid sequences the
pipeline consumes (CAMERA's 28.6M ORFs).  This module supplies that
front-end: DNA encoding, reverse complement, the standard genetic code,
six-frame translation, and a minimal ORF caller (longest stop-to-stop
stretches above a length cutoff, in all six frames) — so synthetic DNA
reads can be pushed end-to-end through read -> ORF -> family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

DNA_ALPHABET = "ACGT"
_DNA_LOOKUP = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(DNA_ALPHABET):
    _DNA_LOOKUP[ord(_c)] = _i
    _DNA_LOOKUP[ord(_c.lower())] = _i
_DNA_LOOKUP[ord("N")] = 0  # unknown base -> A, keeps frames intact
_DNA_LOOKUP[ord("n")] = 0

#: The standard genetic code, indexed by 16*b0 + 4*b1 + b2 with A,C,G,T = 0..3.
#: '*' marks stop codons.
GENETIC_CODE = (
    "KNKN" "TTTT" "RSRS" "IIMI"  # AAx ACx AGx ATx
    "QHQH" "PPPP" "RRRR" "LLLL"  # CAx CCx CGx CTx
    "EDED" "AAAA" "GGGG" "VVVV"  # GAx GCx GGx GTx
    "*Y*Y" "SSSS" "*CWC" "LFLF"  # TAx TCx TGx TTx
)

_COMPLEMENT = np.array([3, 2, 1, 0], dtype=np.uint8)  # A<->T, C<->G


def encode_dna(sequence: str) -> np.ndarray:
    """Encode a DNA string (ACGT, case-insensitive, N -> A) to uint8."""
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    out = _DNA_LOOKUP[raw]
    bad = np.nonzero(out == 255)[0]
    if bad.size:
        pos = int(bad[0])
        raise ValueError(f"invalid DNA character {sequence[pos]!r} at position {pos}")
    return out


def reverse_complement(encoded: np.ndarray) -> np.ndarray:
    """Reverse complement of an encoded DNA array."""
    return _COMPLEMENT[np.asarray(encoded, dtype=np.uint8)][::-1]


def translate(encoded: np.ndarray, frame: int = 0) -> str:
    """Translate one reading frame to amino acids ('*' = stop).

    ``frame`` shifts the start by 0-2 bases; trailing partial codons are
    dropped.
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1, or 2, got {frame}")
    arr = np.asarray(encoded, dtype=np.int64)[frame:]
    n_codons = len(arr) // 3
    if n_codons == 0:
        return ""
    codons = arr[: n_codons * 3].reshape(n_codons, 3)
    indices = codons[:, 0] * 16 + codons[:, 1] * 4 + codons[:, 2]
    return "".join(GENETIC_CODE[int(i)] for i in indices)


@dataclass(frozen=True)
class Orf:
    """One predicted open reading frame.

    ``strand`` is '+' or '-'; ``frame`` 0-2; positions are base offsets
    on the *given* strand orientation of the read.
    """

    protein: str
    strand: str
    frame: int
    start: int  # base offset of the first codon (on the translated strand)
    end: int  # base offset one past the last codon

    def __len__(self) -> int:
        return len(self.protein)


def find_orfs(encoded: np.ndarray, *, min_length: int = 30) -> list[Orf]:
    """Call ORFs in all six frames.

    An ORF here is a maximal stop-free stretch of codons (stop-to-stop,
    read ends count as boundaries) of at least ``min_length`` residues —
    the simple caller metagenome pipelines use for short shotgun reads,
    where requiring an ATG start would discard fragment-truncated genes.
    """
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    encoded = np.asarray(encoded, dtype=np.uint8)
    out: list[Orf] = []
    for strand, seq in (("+", encoded), ("-", reverse_complement(encoded))):
        for frame in (0, 1, 2):
            protein = translate(seq, frame)
            start_codon = 0
            for segment in _stop_free_segments(protein):
                seg_start, seg_text = segment
                if len(seg_text) >= min_length:
                    base_start = frame + 3 * seg_start
                    out.append(
                        Orf(
                            protein=seg_text,
                            strand=strand,
                            frame=frame,
                            start=base_start,
                            end=base_start + 3 * len(seg_text),
                        )
                    )
            del start_codon
    return out


def _stop_free_segments(protein: str) -> Iterator[tuple[int, str]]:
    """Yield (codon offset, residues) for each maximal stop-free run."""
    start = 0
    for pos, aa in enumerate(protein):
        if aa == "*":
            if pos > start:
                yield start, protein[start:pos]
            start = pos + 1
    if len(protein) > start:
        yield start, protein[start:]


def orfs_to_proteins(
    reads: Iterator[np.ndarray] | list[np.ndarray], *, min_length: int = 30
) -> list[str]:
    """Convenience: all ORF proteins from a collection of encoded reads."""
    out: list[str] = []
    for read in reads:
        out.extend(orf.protein for orf in find_orfs(read, min_length=min_length))
    return out
