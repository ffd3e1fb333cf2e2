"""The paper's two alignment predicates, as functions of what an
alignment yields.

Definition 1 (containment, redundancy removal): sequence ``s_i`` is
*contained* in ``s_j`` if an optimal alignment has (i) >= 95% similarity
over the overlapping region and (ii) >= 95% of ``s_i`` inside the
overlapping region.  A contained sequence is redundant; when two
sequences contain each other the shorter one is (ties: the higher
index).

Definition 2 (overlap, connected-component detection): two sequences
*overlap* if they share a local alignment with >= 30% similarity covering
>= 80% of the *longer* sequence.

Nothing here aligns.  The engine (:mod:`repro.align.batch`) produces the
semiglobal optima Definition 1 reads and the local optima Definition 2
reads, as one ``(k, 8)`` int64 table per call (columns: the fields of
:class:`~repro.align.pairwise.Alignment`); every phase, the serve path
and the GOS baseline bring whole columns here for the verdicts, so a
cutoff is compared in this module and nowhere else.  Both cutoffs are
user-tunable software parameters (paper, footnote 3); the module
constants are the paper's defaults.
"""

from __future__ import annotations

import numpy as np

#: Paper defaults (Definitions 1 and 2).
CONTAINMENT_SIMILARITY = 0.95
CONTAINMENT_COVERAGE = 0.95
OVERLAP_SIMILARITY = 0.30
OVERLAP_COVERAGE = 0.80

#: ``(identity, coverage of a, coverage of b)`` of a semiglobal optimum.
ContainmentStats = tuple[float, float, float]


def containment_stats(table: np.ndarray, len_a: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """What Definition 1 thresholds on, read off a table of overlap
    alignments: one ``(identity, coverage of a, coverage of b)`` float64
    row per alignment of sequences of lengths ``len_a[r]`` and
    ``len_b[r]``.  One alignment answers both directions, which is how
    redundancy removal avoids aligning each pair twice.

    Each statistic is a quotient of two int64 columns, bit for bit
    Python's ``x / n if n else 0.0``: a row's ``x`` is 0 wherever its
    ``n`` is, so dividing by ``max(n, 1)`` answers 0.0 there."""
    _, a_start, a_end, b_start, b_end, matches, length, _ = np.asarray(table).T
    return np.column_stack((matches / np.maximum(length, 1),
                            (a_end - a_start) / np.maximum(len_a, 1),
                            (b_end - b_start) / np.maximum(len_b, 1)))


def contained(
    stats: ContainmentStats, similarity: float, coverage: float
) -> tuple[bool, bool]:
    """Definition 1 both ways: ``(a in b, b in a)``.  The engine's
    ``(0.0, 0.0, 0.0)`` surrogate for a pair its Myers bound rejected
    fails both under any positive cutoff.  Given the three statistics as
    columns it answers two boolean columns, row by row the same."""
    identity, coverage_a, coverage_b = stats
    similar = identity >= similarity
    return similar & (coverage_a >= coverage), similar & (coverage_b >= coverage)


def containment_verdicts(
    stats: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    len_i: np.ndarray,
    len_j: np.ndarray,
    similarity: float,
    coverage: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The redundancies Definition 1 finds: ``stats`` is ``(k, 3)``, one
    ``(identity, coverage_i, coverage_j)`` row per pair ``(i[r], j[r])``
    of lengths ``(len_i[r], len_j[r])``.  Returns the ``(victims,
    survivors)`` columns of the pairs that have a verdict, in row order.
    Mutual containment drops the shorter (ties: the higher index), so
    each verdict is per pair and order-free."""
    i_in_j, j_in_i = contained(stats.T, similarity, coverage)
    i_loses = i_in_j & (~j_in_i | (len_i < len_j) | ((len_i == len_j) & (i > j)))
    rows = i_in_j | j_in_i
    return np.where(i_loses, i, j)[rows], np.where(i_loses, j, i)[rows]


def overlaps(
    table: np.ndarray, len_a: np.ndarray, len_b: np.ndarray,
    similarity: float, coverage: float,
) -> np.ndarray:
    """Definition 2, one boolean per row of a table of local alignments
    of sequences of lengths ``len_a[r]`` and ``len_b[r]``.  The coverage
    requirement applies to the longer one; an empty alignment never
    passes."""
    _, a_start, a_end, b_start, b_end, matches, length, _ = np.asarray(table).T
    span = np.maximum(a_end - a_start, b_end - b_start)
    return ((length > 0) & (matches / np.maximum(length, 1) >= similarity)
            & (span / np.maximum(len_a, len_b) >= coverage))
