"""Pairwise sequence alignment: one engine, two definitions — scoring,
the batched DP and Myers kernels, and the paper's containment
(Definition 1) and overlap (Definition 2) predicates over what they
yield: the DP answers a ``(k, 8)`` int64 alignment table (``batch_align``
names each row as an ``Alignment``) and each predicate reads whole
columns of it."""

from repro.align.matrices import (
    BLOSUM62,
    IDENTITY_MATRIX,
    ScoringScheme,
    blosum62_scheme,
    identity_scheme,
)
from repro.align.pairwise import Alignment
from repro.align.batch import (
    ContainmentBatch,
    batch_align,
    batch_containment,
    batch_myers_infix,
    containment_reject_threshold,
    strict_diagonal_scheme,
)
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
    contained,
    containment_stats,
    containment_verdicts,
    overlaps,
)
from repro.align.prefilter import KmerPrefilter

__all__ = [
    "BLOSUM62",
    "IDENTITY_MATRIX",
    "ScoringScheme",
    "blosum62_scheme",
    "identity_scheme",
    "Alignment",
    "ContainmentBatch",
    "batch_align",
    "batch_containment",
    "batch_myers_infix",
    "containment_reject_threshold",
    "strict_diagonal_scheme",
    "CONTAINMENT_COVERAGE",
    "CONTAINMENT_SIMILARITY",
    "OVERLAP_COVERAGE",
    "OVERLAP_SIMILARITY",
    "contained",
    "containment_stats",
    "containment_verdicts",
    "overlaps",
    "KmerPrefilter",
]
