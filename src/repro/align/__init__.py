"""Pairwise sequence alignment: scoring, DP kernels, and the paper's
containment (Definition 1) and overlap (Definition 2) predicates."""

from repro.align.matrices import (
    BLOSUM62,
    IDENTITY_MATRIX,
    ScoringScheme,
    blosum62_scheme,
    identity_scheme,
)
from repro.align.pairwise import (
    Alignment,
    global_align,
    local_align,
    semiglobal_align,
)
from repro.align.batch import (
    ContainmentBatch,
    batch_align,
    batch_containment,
    batch_myers_infix,
    containment_reject_threshold,
    myers_infix_distance,
    strict_diagonal_scheme,
)
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
    containment_test,
    overlap_test,
)
from repro.align.prefilter import KmerPrefilter, shared_kmer_count

__all__ = [
    "BLOSUM62",
    "IDENTITY_MATRIX",
    "ScoringScheme",
    "blosum62_scheme",
    "identity_scheme",
    "Alignment",
    "global_align",
    "local_align",
    "semiglobal_align",
    "ContainmentBatch",
    "batch_align",
    "batch_containment",
    "batch_myers_infix",
    "containment_reject_threshold",
    "myers_infix_distance",
    "strict_diagonal_scheme",
    "CONTAINMENT_COVERAGE",
    "CONTAINMENT_SIMILARITY",
    "OVERLAP_COVERAGE",
    "OVERLAP_SIMILARITY",
    "containment_test",
    "overlap_test",
    "KmerPrefilter",
    "shared_kmer_count",
]
