"""What an alignment is: the result row and its one-row view, the
traceback, the cost unit.

There is one DP engine, :mod:`repro.align.batch`; it fills many matrices
a sweep and walks a wide bucket back in lockstep, handing the last few
slots of a walk (and every slot of a narrow bucket) to the one-slot
:func:`_traceback` below.  That walk consumes one diagonal run per step
(one vector compare along ``H.diagonal``), resumes from wherever the
bucket walk left a slot, and yields one integer row of the exact
statistics the paper's Definitions 1 and 2 threshold on
(:mod:`repro.align.predicates`): identical-column count, alignment
length, and the aligned span on each sequence.  The engine returns a
``(k, 8)`` table of those rows; :class:`Alignment` names the fields of
one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.matrices import ScoringScheme


@dataclass(frozen=True)
class Alignment:
    """One row of the engine's alignment table, by name:
    ``Alignment(*row, mode=mode)``.  The fields before ``mode`` are the
    table's columns, in order.

    Spans are half-open on the original sequences: the aligned region of
    ``a`` is ``a[a_start:a_end]``.  ``length`` counts alignment columns
    including gap columns; ``matches`` counts identical residue columns.
    """

    score: int
    a_start: int
    a_end: int
    b_start: int
    b_end: int
    matches: int
    length: int
    gaps: int
    mode: str

    @property
    def identity(self) -> float:
        """Fraction of alignment columns that are identical residues."""
        return self.matches / self.length if self.length else 0.0

    def coverage_a(self, a_len: int) -> float:
        """Fraction of sequence ``a`` included in the aligned region."""
        return (self.a_end - self.a_start) / a_len if a_len else 0.0

    def coverage_b(self, b_len: int) -> float:
        """Fraction of sequence ``b`` included in the aligned region."""
        return (self.b_end - self.b_start) / b_len if b_len else 0.0


def _traceback(
    H: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    scheme: ScoringScheme,
    start_i: int,
    start_j: int,
    mode: str,
    at: tuple[int, int, int, int] | None = None,
) -> tuple[int, int, int, int, int, int, int, int]:
    """Walk back from (start_i, start_j) reconstructing column statistics:
    the alignment's row ``(score, a_start, a_end, b_start, b_end,
    matches, length, gaps)``.

    Moves are tried diagonal, up, left.  On one diagonal the walk keeps
    moving diagonally while ``H[q] == H[q-1] + sub[q]`` (and, local,
    ``H[q] != 0``), so one vector compare along ``H.diagonal(j - i)``
    consumes a whole run; gap moves stay scalar.  ``H`` is any 2-D view.
    ``at = (i, j, matches, diagonal)`` resumes a walk that got that far
    from the start cell (the bucket walk's hand-off); a walk that has
    already stopped there returns at once.
    """
    gap, matrix, local = scheme.gap, scheme.matrix, mode == "local"
    if at is None:
        at = (start_i, start_j, 0, 0)
    i, j, matches, diagonal = at
    # i == 0 or j == 0 ends the local walk (H is 0 there) and the
    # semiglobal one; the global walk finishes along the boundary below.
    while i > 0 and j > 0:
        h = H.item(i, j)
        if local and h == 0:
            break
        if h == H.item(i - 1, j - 1) + matrix.item(a.item(i - 1), b.item(j - 1)):
            p = min(i, j)
            d = H.diagonal(j - i)[: p + 1]  # d[p] is (i, j), d[0] the boundary
            ok = d[1:] == d[:-1] + matrix[a[i - p : i], b[j - p : j]]
            if local:
                ok &= d[1:] != 0
            # Steps to the first inconsistent cell; ok[-1] holds, so 0 = none.
            run = int(ok[::-1].argmin()) or p
            matches += int(np.count_nonzero(a[i - run : i] == b[j - run : j]))
            diagonal += run
            i -= run
            j -= run
        elif h == H.item(i - 1, j) + gap:
            i -= 1
        elif h == H.item(i, j - 1) + gap:
            j -= 1
        else:  # pragma: no cover - would indicate a fill bug
            raise AssertionError(f"traceback stuck at ({i}, {j})")
    return _alignment_row(H.item(start_i, start_j), start_i, start_j, i, j,
                          matches, diagonal, mode)


def _alignment_row(score, start_i, start_j, i, j, matches, diagonal, mode: str) -> tuple:
    """The row ``(score, a_start, a_end, b_start, b_end, matches,
    length, gaps)`` of a walk from ``(start_i, start_j)`` that stopped at
    ``(i, j)`` after ``diagonal`` diagonal moves, ``matches`` of them on
    equal residues; every argument but ``mode`` a scalar, or every one a
    column (:func:`repro.align.batch._bucket_walk`'s stopped slots)."""
    if mode == "global":  # only gap columns are left
        i = j = 0
    # Every column consumes a residue of a, of b, or (diagonal) of both.
    gaps = (start_i - i) + (start_j - j) - 2 * diagonal
    return (score, i, start_i, j, start_j, matches, diagonal + gaps, gaps)


def alignment_cells(a_len: int | np.ndarray, b_len: int | np.ndarray) -> int | np.ndarray:
    """Number of DP cells an alignment of these lengths computes, element
    for element given arrays of lengths.

    The engine's ``batch.cells`` charges each pair this, by its *real*
    dimensions, never the padded slot of its bucket, so the work counter
    follows input size, not bucket geometry.
    """
    return (a_len + 1) * (b_len + 1)

