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
semiglobal optimum Definition 1 reads and the local optimum Definition 2
reads; every phase, the serve path and the GOS baseline bring them here
for the verdict, so a cutoff is compared in this module and nowhere
else.  Both cutoffs are user-tunable software parameters (paper,
footnote 3); the module constants are the paper's defaults.
"""

from __future__ import annotations

import numpy as np

from repro.align.pairwise import Alignment

#: Paper defaults (Definitions 1 and 2).
CONTAINMENT_SIMILARITY = 0.95
CONTAINMENT_COVERAGE = 0.95
OVERLAP_SIMILARITY = 0.30
OVERLAP_COVERAGE = 0.80

#: ``(identity, coverage of a, coverage of b)`` of a semiglobal optimum.
ContainmentStats = tuple[float, float, float]


def containment_stats(aln: Alignment, len_a: int, len_b: int) -> ContainmentStats:
    """What Definition 1 thresholds on, read off the overlap alignment
    of ``a`` and ``b``.  One alignment answers both directions, which is
    how redundancy removal avoids aligning each pair twice."""
    return aln.identity, aln.coverage_a(len_a), aln.coverage_b(len_b)


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


def containment_verdict(
    stats: ContainmentStats,
    i: int,
    j: int,
    len_i: int,
    len_j: int,
    similarity: float,
    coverage: float,
) -> tuple[int, int] | None:
    """The redundancy Definition 1 finds in pair ``(i, j)``: ``(victim,
    survivor)``, or None.  Mutual containment drops the shorter (ties:
    the higher index), so the verdict is per pair and order-free."""
    i_in_j, j_in_i = contained(stats, similarity, coverage)
    if i_in_j and j_in_i:
        return (i, j) if (len_i, -i) < (len_j, -j) else (j, i)
    if i_in_j:
        return i, j
    if j_in_i:
        return j, i
    return None


def containment_verdicts(
    stats: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    len_i: np.ndarray,
    len_j: np.ndarray,
    similarity: float,
    coverage: float,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`containment_verdict` over columns: ``stats`` is ``(k, 3)``,
    one ``(identity, coverage_i, coverage_j)`` row per pair ``(i[r],
    j[r])`` of lengths ``(len_i[r], len_j[r])``.  Returns the
    ``(victims, survivors)`` columns of the pairs that have a verdict,
    in row order."""
    i_in_j, j_in_i = contained(stats.T, similarity, coverage)
    # Mutual containment drops the shorter, ties the higher index.
    i_loses = i_in_j & (~j_in_i | (len_i < len_j) | ((len_i == len_j) & (i > j)))
    rows = i_in_j | j_in_i
    return np.where(i_loses, i, j)[rows], np.where(i_loses, j, i)[rows]


def overlaps(
    aln: Alignment, len_i: int, len_j: int, similarity: float, coverage: float
) -> bool:
    """Definition 2 on the local alignment of two sequences of these
    lengths.  The coverage requirement applies to the longer one."""
    if aln.length == 0 or aln.identity < similarity:
        return False
    longer = max(len_i, len_j)
    span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
    return span / longer >= coverage
