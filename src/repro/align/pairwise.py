"""Exact pairwise alignment kernels (Needleman-Wunsch / Smith-Waterman).

The DP matrix fill is a row sweep vectorised with NumPy: within a row the
only serial dependency of the linear-gap recurrence is the left-gap
chain, which unrolls to a running maximum (see :func:`_fill`), so an
O(l^2) Python loop becomes ~l vectorised row updates per pair.

Tracebacks consume one diagonal run per step (one vector compare along
``H.diagonal``) and yield the exact statistics the paper's Definitions 1
and 2 threshold on: identical-column count, alignment length, and the
aligned span on each sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.align.matrices import ScoringScheme, blosum62_scheme


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


def _as_encoded(seq: np.ndarray) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("sequences must be non-empty 1-D encoded arrays")
    return arr


def _fill(
    a: np.ndarray,
    b: np.ndarray,
    scheme: ScoringScheme,
    mode: str,
) -> np.ndarray:
    """Fill the DP matrix; returns H of shape (m+1, n+1).

    The fill is vectorised *within each row*: the only serial dependency
    of the linear-gap recurrence, ``H[i, j-1] + gap``, unrolls to a
    running maximum — ``H[i, j] = max_k (t[k] + (j - k) * gap)`` over the
    gap-free candidates ``t`` — which one ``np.maximum.accumulate`` over
    ``t - j*gap`` computes in a single contiguous pass.
    """
    m, n = len(a), len(b)
    sub = scheme.substitution_profile(a, b).astype(np.int32)
    gap = np.int32(scheme.gap)
    H = np.zeros((m + 1, n + 1), dtype=np.int32)
    if mode == "global":
        H[:, 0] = gap * np.arange(m + 1, dtype=np.int32)
        H[0, :] = gap * np.arange(n + 1, dtype=np.int32)
    # local & semiglobal keep zero boundaries (free end gaps).

    # offs[j] = -j * gap, used to turn the left-gap chain into a prefix max.
    offs = (-gap) * np.arange(n + 1, dtype=np.int64)
    local = mode == "local"
    for i in range(1, m + 1):
        prev = H[i - 1]
        row = H[i]
        # Gap-free candidates for columns 1..n: diagonal and up moves.
        t = np.maximum(prev[:-1] + sub[i - 1], prev[1:] + gap)
        if local:
            np.maximum(t, 0, out=t)
        # Include the row's own boundary column as chain origin.
        chain = np.empty(n + 1, dtype=np.int64)
        chain[0] = int(row[0])
        chain[1:] = t
        chain += offs
        np.maximum.accumulate(chain, out=chain)
        row[1:] = (chain[1:] - offs[1:]).astype(np.int32)
    return H


def _traceback(
    H: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    scheme: ScoringScheme,
    start_i: int,
    start_j: int,
    mode: str,
) -> Alignment:
    """Walk back from (start_i, start_j) reconstructing column statistics.

    Moves are tried diagonal, up, left.  On one diagonal the walk keeps
    moving diagonally while ``H[q] == H[q-1] + sub[q]`` (and, local,
    ``H[q] != 0``), so one vector compare along ``H.diagonal(j - i)``
    consumes a whole run; gap moves stay scalar.  ``H`` is any 2-D view.
    """
    gap, matrix, local = scheme.gap, scheme.matrix, mode == "local"
    i, j = start_i, start_j
    matches = diagonal = 0
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


def global_align(
    a: np.ndarray, b: np.ndarray, scheme: ScoringScheme | None = None
) -> Alignment:
    """Needleman-Wunsch global alignment of two encoded sequences."""
    if scheme is None:
        scheme = blosum62_scheme()
    a = _as_encoded(a)
    b = _as_encoded(b)
    H = _fill(a, b, scheme, "global")
    return _traceback(H, a, b, scheme, len(a), len(b), "global")


def local_align(
    a: np.ndarray, b: np.ndarray, scheme: ScoringScheme | None = None
) -> Alignment:
    """Smith-Waterman local alignment of two encoded sequences."""
    if scheme is None:
        scheme = blosum62_scheme()
    a = _as_encoded(a)
    b = _as_encoded(b)
    H = _fill(a, b, scheme, "local")
    flat = int(np.argmax(H))
    start_i, start_j = divmod(flat, H.shape[1])
    return _traceback(H, a, b, scheme, start_i, start_j, "local")


def semiglobal_align(
    a: np.ndarray, b: np.ndarray, scheme: ScoringScheme | None = None
) -> Alignment:
    """Overlap alignment: free end gaps on both sequences.

    The optimum is taken over the last row and last column, so dangling
    ends of either sequence are unpenalised — the natural formulation for
    the paper's containment and overlap tests.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    a = _as_encoded(a)
    b = _as_encoded(b)
    H = _fill(a, b, scheme, "semiglobal")
    m, n = len(a), len(b)
    last_row_j = int(np.argmax(H[m, :]))
    last_col_i = int(np.argmax(H[:, n]))
    if H[m, last_row_j] >= H[last_col_i, n]:
        start_i, start_j = m, last_row_j
    else:
        start_i, start_j = last_col_i, n
    return _traceback(H, a, b, scheme, start_i, start_j, "semiglobal")


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
