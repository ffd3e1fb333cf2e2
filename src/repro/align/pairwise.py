"""What an alignment is: the result record, the traceback, the cost unit.

There is one DP engine, :mod:`repro.align.batch`; it fills many matrices
a sweep and walks a wide bucket back in lockstep, handing the last few
slots of a walk (and every slot of a narrow bucket) to the one-slot
:func:`_traceback` below.  That walk consumes one diagonal run per step
(one vector compare along ``H.diagonal``), resumes from wherever the
bucket walk left a slot, and yields the exact statistics the paper's
Definitions 1 and 2 threshold on (:mod:`repro.align.predicates`):
identical-column count, alignment length, and the aligned span on each
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.align.matrices import ScoringScheme


@dataclass(frozen=True)
class Alignment:
    """Result of one pairwise alignment.

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
) -> Alignment:
    """Walk back from (start_i, start_j) reconstructing column statistics.

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
    if mode == "global":  # only gap columns are left
        i = j = 0
    # Every column consumes a residue of a, of b, or (diagonal) of both.
    gaps = (start_i - i) + (start_j - j) - 2 * diagonal
    return Alignment(
        score=H.item(start_i, start_j),
        a_start=i,
        a_end=start_i,
        b_start=j,
        b_end=start_j,
        matches=matches,
        length=diagonal + gaps,
        gaps=gaps,
        mode=mode,
    )


def alignment_cells(a_len: int, b_len: int) -> int:
    """Number of DP cells an alignment of these lengths computes.

    Used by the parallel simulator as the compute-cost unit for alignment
    work (the paper's dominant kernel).
    """
    return (a_len + 1) * (b_len + 1)


def batch_alignment_cells(dims: Iterable[tuple[int, int]]) -> int:
    """Total DP cells for a batch of pairs, by *real* pair dimensions.

    The batched kernels (:mod:`repro.align.batch`) pad pairs to a common
    bucket shape; cost accounting must charge each pair its own
    ``(m+1)(n+1)`` cells, never the padded slot size, or the work
    counters would inflate with bucket geometry instead of input size.
    """
    return sum(alignment_cells(m, n) for m, n in dims)
