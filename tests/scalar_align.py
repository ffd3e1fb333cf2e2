"""The one-pair aligners, kept as the reference for the batched engine.

These are ``repro.align.pairwise._as_encoded`` / ``_fill`` /
``global_align`` / ``local_align`` / ``semiglobal_align`` and the
aligning ``repro.align.predicates.containment_test`` / ``overlap_test``
as they stood while ``src/`` had a second DP engine: one pair per call,
the matrix fill a row sweep vectorised *within* the row, the traceback
the one-slot ``repro.align.pairwise._traceback`` the batched engine
hands narrow work to.  They *define* every ``Alignment`` field and both
verdicts, so ``test_batch_align.py`` and ``test_traceback.py`` hold
``repro.align.batch`` to them field for field, ``test_align.py`` holds
them to a pure-Python DP, and ``scalar_serve.py`` builds the
candidate-at-a-time request loops on them.  The functions are verbatim
but for one thing: ``_traceback`` now answers the engine's table row,
which the aligners name as an ``Alignment``.

:func:`containment_verdict` is the one-pair Definition 1 verdict
``src/`` kept until the column form
(``repro.align.predicates.containment_verdicts``) replaced its last
caller, and :func:`alignment_table` turns oracle ``Alignment`` objects
into the ``(k, 8)`` table the column predicates read.

Beside them, :func:`infix_distance_oracle` is the O(mn) definition the
Myers kernel (``repro.align.batch.batch_myers_infix``) must equal; it
shares no code with that kernel, so the serve loops' reject decisions
are checked against the definition, not against the code under test.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.pairwise import Alignment, _traceback
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
    ContainmentStats,
    contained,
)


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
    # Dense (len(a), len(b)) substitution score matrix for the pair.
    sub = scheme.matrix[np.asarray(a, dtype=np.intp)[:, None],
                        np.asarray(b, dtype=np.intp)[None, :]].astype(np.int32)
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


def global_align(
    a: np.ndarray, b: np.ndarray, scheme: ScoringScheme | None = None
) -> Alignment:
    """Needleman-Wunsch global alignment of two encoded sequences."""
    if scheme is None:
        scheme = blosum62_scheme()
    a = _as_encoded(a)
    b = _as_encoded(b)
    H = _fill(a, b, scheme, "global")
    return Alignment(*_traceback(H, a, b, scheme, len(a), len(b), "global"), mode="global")


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
    return Alignment(*_traceback(H, a, b, scheme, start_i, start_j, "local"), mode="local")


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
    return Alignment(*_traceback(H, a, b, scheme, start_i, start_j, "semiglobal"), mode="semiglobal")


def containment_test(
    a: np.ndarray,
    b: np.ndarray,
    *,
    similarity: float = CONTAINMENT_SIMILARITY,
    coverage: float = CONTAINMENT_COVERAGE,
    scheme: ScoringScheme | None = None,
) -> tuple[bool, bool, Alignment]:
    """Evaluate Definition 1 both ways for one aligned pair.

    Returns ``(a_in_b, b_in_a, alignment)``: whether ``a`` is contained in
    ``b``, whether ``b`` is contained in ``a``, and the overlap alignment
    used for the decision.  One alignment answers both directions, which
    is how the redundancy-removal phase avoids aligning each pair twice.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    aln = semiglobal_align(a, b, scheme)
    if aln.length == 0 or aln.identity < similarity:
        return False, False, aln
    a_in_b = aln.coverage_a(len(a)) >= coverage
    b_in_a = aln.coverage_b(len(b)) >= coverage
    return a_in_b, b_in_a, aln


def overlap_test(
    a: np.ndarray,
    b: np.ndarray,
    *,
    similarity: float = OVERLAP_SIMILARITY,
    coverage: float = OVERLAP_COVERAGE,
    scheme: ScoringScheme | None = None,
) -> tuple[bool, Alignment]:
    """Evaluate Definition 2 for one pair.

    Returns ``(overlaps, alignment)``.  The coverage requirement applies
    to the longer of the two sequences, per the paper.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    aln = local_align(a, b, scheme)
    if aln.length == 0 or aln.identity < similarity:
        return False, aln
    longer = max(len(a), len(b))
    span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
    return span / longer >= coverage, aln


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


def alignment_table(alignments) -> np.ndarray:
    """``Alignment`` objects as the engine's ``(k, 8)`` int64 table:
    every field but ``mode``, in order."""
    rows = [dataclasses.astuple(aln)[:-1] for aln in alignments]
    return np.array(rows, dtype=np.int64).reshape(-1, 8)


def infix_distance_oracle(pattern, text) -> int:
    """O(mn) reference: min unit-cost edit distance of the whole pattern
    to any infix of the text.

    Row ``i`` of the DP is ``D[i][0] = i`` and, for ``j >= 1``, the min
    of the up move ``D[i-1][j] + 1``, the diagonal ``D[i-1][j-1] +
    (pattern[i-1] != text[j-1])`` and the left move ``D[i][j-1] + 1``;
    row 0 is all zeros (the infix may start anywhere).  The left-move
    chain unrolls to ``min_k (t[k] + j - k)`` over the row's other
    candidates ``t``, one ``np.minimum.accumulate`` of ``t - j``, as
    :func:`_fill` does with its gap chain.
    """
    p = np.asarray(pattern, dtype=np.int64)
    t = np.asarray(text, dtype=np.int64)
    cols = np.arange(len(t) + 1)
    row = np.zeros(len(t) + 1, dtype=np.int64)
    for i in range(1, len(p) + 1):
        cand = np.empty_like(row)
        cand[0] = i
        cand[1:] = np.minimum(row[1:] + 1, row[:-1] + (t != p[i - 1]))
        row = np.minimum.accumulate(cand - cols) + cols
    return int(row.min())
