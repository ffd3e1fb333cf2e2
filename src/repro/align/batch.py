"""The alignment engine: many pairs per NumPy sweep, every result the
one-pair definition's.

A DP vectorised *within* one matrix (one ``np.maximum.accumulate`` per
row — the one-pair kernels ``tests/scalar_align.py`` keeps as the
reference) leaves ~8 NumPy dispatches per row of a single pair; for the
paper's sequence lengths that overhead is comparable to the arithmetic
itself.  This module is the only DP in ``src/`` — a lone pair is a batch
of one — and packs many promising pairs into shared sweeps along two
complementary axes:

1. **Bucketed batch fill** (:func:`batch_align`):
   pairs are grouped into length buckets and padded; the DP state is
   laid out *batch-last* — ``H[(m+1), (n+1), B]`` — so every row update
   is one contiguous NumPy op across the whole bucket.  The fill
   computes the one-pair recurrence exactly on each real submatrix,
   one masked reduction per bucket replicates the one-pair ``argmax``
   rules, and :func:`~repro.align.pairwise._traceback` walks each slot
   — tie-breaking is *identical*, not merely score-equivalent.

2. **Bit-parallel Myers prefilter** (:func:`batch_myers_infix`,
   :func:`batch_containment`): a multi-word Myers (1999) bit-vector
   edit-distance kernel vectorised across the pair axis.  For the RR
   phase's >=95 %-containment test a *sound* threshold on the infix
   edit distance (:func:`containment_reject_threshold`) proves that a
   pair cannot satisfy Definition 1 in either direction, so the full
   DP is skipped for the bulk of promising pairs without changing any
   decision.  A distance of zero, under schemes whose substitution
   diagonal is a strict positive row maximum (BLOSUM62, identity),
   *certifies* the scalar optimum exactly (perfect-diagonal match) and
   is answered without DP as well.

Every fast path is gated by a proof obligation, and the whole engine is
pinned to ``tests/scalar_align.py`` by the Hypothesis equivalence suite
in ``tests/test_batch_align.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.pairwise import (
    Alignment,
    _as_encoded,
    _traceback,
    batch_alignment_cells,
)
from repro.align.predicates import containment_stats

#: Pairs per DP bucket.  Re-measured with the int16, slab-free fill on a
#: ~260-residue family, local mode: 561/571/458/460/482 us per pair at
#: 16/32/64/128/256 (per-row dispatch below 64, rows outgrowing L1 past it).
DEFAULT_BUCKET = 64

#: Pairs per Myers sweep.  The bit-vector state is tiny ((W, B) words),
#: so larger batches purely amortise NumPy dispatch overhead.
DEFAULT_MYERS_BUCKET = 1024

#: Length quantum for DP bucketing: pads at most quantum-1 rows/cols.
_BUCKET_QUANTUM = 32

_U1 = np.uint64(1)
_U63 = np.uint64(63)


# ---------------------------------------------------------------------------
# Bucketed batch DP fill
# ---------------------------------------------------------------------------


def _chain_dtype(scheme: ScoringScheme, m: int, n: int) -> type:
    """Narrowest integer dtype that provably cannot overflow the fill.

    The scalar kernel runs its running-max chain in int64; any dtype
    holding every intermediate exactly yields bit-identical H values.
    |H| <= max|sub| * min(m, n) + |gap| * (m + n), and the chain (which
    shares H's dtype) adds |gap| * (n + 1): int16 to ~935 residues a
    side under BLOSUM62 with gap -8.
    """
    bound = (
        int(np.abs(scheme.matrix).max()) * min(m, n)
        + abs(scheme.gap) * (m + n + 2)
        + abs(scheme.gap) * (n + 1)
    )
    for dtype in (np.int16, np.int32):
        if bound < np.iinfo(dtype).max:
            return dtype
    return np.int64


def _bucket_fill(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]], scheme: ScoringScheme, mode: str
) -> np.ndarray:
    """Fill one bucket of pairs; returns H, batch-last ``(m_pad+1, n_pad+1, B)``.

    Slot ``k`` is the DP matrix of pair ``k`` padded with residue 0: its
    real submatrix ``H[:m_k+1, :n_k+1, k]`` equals the one-pair fill's H
    (a cell only reads cells at smaller indices) and every cell obeys
    :func:`_chain_dtype`'s bound.  Padded cells can outscore the real
    optimum, so :func:`_bucket_endpoints` confines itself to real ones.
    """
    B = len(pairs)
    m_pad = max(len(a) for a, _ in pairs)
    n_pad = max(len(b) for _, b in pairs)
    width = scheme.matrix.shape[1]
    a_pad = np.zeros((m_pad, B), dtype=np.intp)
    b_pad = np.zeros((n_pad, B), dtype=np.intp)
    for k, (a, b) in enumerate(pairs):
        a_pad[: len(a), k] = a
        b_pad[: len(b), k] = b
    if max(a_pad.max(), b_pad.max()) >= width:
        raise IndexError(f"residue index out of range for a {width}-letter matrix")
    a_pad *= width  # row offsets into the flattened matrix

    gap = int(scheme.gap)
    dtype = _chain_dtype(scheme, m_pad, n_pad)
    matrix = scheme.matrix.astype(dtype).ravel()  # fits: bound >= max|sub|

    H = np.zeros((m_pad + 1, n_pad + 1, B), dtype=dtype)
    if mode == "global":
        H[:, 0, :] = (gap * np.arange(m_pad + 1, dtype=dtype))[:, None]
        H[0, :, :] = (gap * np.arange(n_pad + 1, dtype=dtype))[:, None]

    # offs[j] = -j * gap turns the left-gap chain into a prefix max.  It
    # and the local floor are full-size: broadcast operands miss NumPy's
    # fast loops (np.maximum against a scalar is ~5x slower).
    offs = np.repeat((-gap) * np.arange(n_pad + 1, dtype=dtype), B).reshape(-1, B)
    floor = np.zeros((n_pad, B), dtype=dtype) if mode == "local" else None
    cell = np.empty((n_pad, B), dtype=np.intp)
    sub = np.empty((n_pad, B), dtype=dtype)
    up = np.empty((n_pad, B), dtype=dtype)
    for i in range(1, m_pad + 1):
        np.add(a_pad[i - 1], b_pad, out=cell)
        np.take(matrix, cell, out=sub, mode="clip")  # range checked above
        # The row is its own chain: row[0] holds the boundary (the chain
        # origin) and row[1:] the gap-free candidates, diagonal then up.
        prev, row = H[i - 1], H[i]
        t = row[1:]
        np.add(prev[:-1], sub, out=t)
        np.add(prev[1:], gap, out=up)
        np.maximum(t, up, out=t)
        if floor is not None:
            np.maximum(t, floor, out=t)
        row += offs
        np.maximum.accumulate(row, axis=0, out=row)
        row -= offs
    return H


def _bucket_endpoints(
    H: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray]], mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Traceback start cells of a whole bucket, the scalar kernels' choice.

    Local: first row-major ``argmax`` of the real submatrix; the padding
    is zeroed in place first, sound because real cells are >= 0 and
    ``(0, 0)`` comes first, so a zeroed cell is never the first maximum.
    Semiglobal: first ``argmax`` of the last real row and of the last
    real column, the row winning ties (``>=``).
    """
    m_arr, n_arr = np.array([(len(a), len(b)) for a, b in pairs]).T
    if mode == "global":
        return m_arr, n_arr
    rows, cols, slots = (np.arange(size) for size in H.shape)
    if mode == "local":
        m_min, n_min = int(m_arr.min()), int(n_arr.min())
        H[m_min + 1 :] *= (rows[m_min + 1 :, None] <= m_arr)[:, None, :]
        H[:, n_min + 1 :] *= (cols[n_min + 1 :, None] <= n_arr)[None, :, :]
        row_max = H.max(axis=1)
        start_i = (row_max == row_max.max(axis=0)).argmax(axis=0)
        return start_i, H[start_i, :, slots].argmax(axis=1)
    low = np.iinfo(H.dtype).min
    last_row = np.where(cols <= n_arr[:, None], H[m_arr, :, slots], low)
    last_col = np.where(rows <= m_arr[:, None], H[:, n_arr, slots].T, low)
    row_j, col_i = last_row.argmax(axis=1), last_col.argmax(axis=1)
    row_wins = last_row[slots, row_j] >= last_col[slots, col_i]
    return np.where(row_wins, m_arr, col_i), np.where(row_wins, row_j, n_arr)


def _bucket_key(m: int, n: int) -> tuple[int, int]:
    q = _BUCKET_QUANTUM
    return (-(-m // q), -(-n // q))


def _iter_buckets(
    dims: Sequence[tuple[int, int]], bucket_size: int
) -> Iterable[list[int]]:
    """Group pair indices into quantised-length buckets of bounded size."""
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (m, n) in enumerate(dims):
        groups.setdefault(_bucket_key(m, n), []).append(idx)
    for key in sorted(groups):
        members = groups[key]
        for lo in range(0, len(members), bucket_size):
            yield members[lo : lo + bucket_size]


def batch_align(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme | None = None,
    mode: str = "semiglobal",
    *,
    bucket_size: int = DEFAULT_BUCKET,
) -> list[Alignment]:
    """Align many pairs at once; results equal the one-pair kernels'
    exactly.

    ``pairs`` is a sequence of ``(a, b)`` encoded arrays; the returned
    list is in input order and each element compares equal (all
    dataclass fields) to the ``tests/scalar_align.py`` aligner of that
    ``mode`` on the same pair.  DP cells are accounted per *real* pair
    dimensions (``batch.cells``), never per padded slot.
    """
    if mode not in ("global", "local", "semiglobal"):
        raise ValueError(f"unknown alignment mode {mode!r}")
    if scheme is None:
        scheme = blosum62_scheme()
    enc = [(_as_encoded(a), _as_encoded(b)) for a, b in pairs]
    if not enc:
        return []
    dims = [(len(a), len(b)) for a, b in enc]
    obs.count("batch.pairs", len(enc))
    obs.count("batch.cells", batch_alignment_cells(dims))
    out: list[Alignment | None] = [None] * len(enc)
    for members in _iter_buckets(dims, bucket_size):
        bucket = [enc[k] for k in members]
        H = _bucket_fill(bucket, scheme, mode)
        start_i, start_j = _bucket_endpoints(H, bucket, mode)
        starts = zip(start_i.tolist(), start_j.tolist())
        for slot, (k, (i, j)) in enumerate(zip(members, starts)):
            out[k] = _traceback(H[:, :, slot], *enc[k], scheme, i, j, mode)
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Bit-parallel Myers infix edit distance (vectorised across pairs)
# ---------------------------------------------------------------------------


def batch_myers_infix(
    patterns: Sequence[np.ndarray],
    texts: Sequence[np.ndarray],
    *,
    alphabet: int = 21,
    bucket_size: int = DEFAULT_MYERS_BUCKET,
) -> np.ndarray:
    """min over infixes ``t[x:y]`` of the unit-cost edit distance to
    the full pattern, for every (pattern, text) pair, vectorised.

    Multi-word Myers bit-vector recurrence with the horizontal delta
    carried between 64-bit blocks; patterns are bucketed by word count
    so every pair in a sweep tracks its score at its own last-row bit.
    Texts are padded with a sentinel character that matches nothing —
    sentinel columns can only raise the running score, so they never
    perturb the minimum.
    """
    if len(patterns) != len(texts):
        raise ValueError("patterns and texts must have equal length")
    result = np.zeros(len(patterns), dtype=np.int64)
    if not patterns:
        return result
    m_all = np.array([len(p) for p in patterns])
    if (m_all == 0).any():
        raise ValueError("patterns must be non-empty")
    groups: dict[int, list[int]] = {}
    for idx, m in enumerate(m_all):
        groups.setdefault(int((m + 63) // 64), []).append(idx)
    for W, members in sorted(groups.items()):
        # Sort by text length so padding waste inside a sweep stays low.
        members = sorted(members, key=lambda k: len(texts[k]))
        for lo in range(0, len(members), bucket_size):
            chunk = members[lo : lo + bucket_size]
            dists = _myers_sweep(
                [patterns[k] for k in chunk],
                [texts[k] for k in chunk],
                W,
                alphabet,
            )
            result[chunk] = dists
    return result


def _myers_sweep(
    patterns: Sequence[np.ndarray],
    texts: Sequence[np.ndarray],
    W: int,
    alphabet: int,
) -> np.ndarray:
    B = len(patterns)
    m_arr = np.array([len(p) for p in patterns])
    n_arr = np.array([len(t) for t in texts])
    n_max = int(n_arr.max()) if len(n_arr) else 0
    peq = np.zeros((alphabet + 1, B, W), dtype=np.uint64)
    for k, p in enumerate(patterns):
        idx = np.arange(len(p))
        np.bitwise_or.at(
            peq,
            (np.asarray(p, dtype=np.intp), k, idx >> 6),
            _U1 << (idx & 63).astype(np.uint64),
        )
    tpad = np.full((max(n_max, 1), B), alphabet, dtype=np.intp)
    for k, t in enumerate(texts):
        tpad[: len(t), k] = t
    EQ = peq[tpad, np.arange(B)[None, :], :]  # (n_max, B, W)

    Pv = np.full((W, B), ~np.uint64(0), dtype=np.uint64)
    Mv = np.zeros((W, B), dtype=np.uint64)
    score = m_arr.astype(np.int64).copy()
    best = score.copy()
    last_shift = ((m_arr - 1) & 63).astype(np.uint64)
    zeros = np.zeros(B, dtype=np.uint64)
    eq = np.empty(B, dtype=np.uint64)
    xv = np.empty_like(eq)
    xh = np.empty_like(eq)
    ph = np.empty_like(eq)
    mh = np.empty_like(eq)
    tmp = np.empty_like(eq)
    neg = np.empty_like(eq)
    for j in range(n_max):
        eqj = EQ[j]
        hin_p = zeros
        hin_m = zeros
        for w in range(W):
            pv = Pv[w]
            mv = Mv[w]
            np.bitwise_or(eqj[:, w], hin_m, out=eq)
            np.bitwise_or(eq, mv, out=xv)
            np.bitwise_and(eq, pv, out=tmp)
            np.add(tmp, pv, out=tmp)
            np.bitwise_xor(tmp, pv, out=tmp)
            np.bitwise_or(tmp, eq, out=xh)
            np.bitwise_or(xh, pv, out=tmp)
            np.bitwise_not(tmp, out=tmp)
            np.bitwise_or(mv, tmp, out=ph)
            np.bitwise_and(pv, xh, out=mh)
            if w == W - 1:
                np.right_shift(ph, last_shift, out=tmp)
                np.bitwise_and(tmp, _U1, out=tmp)
                score += tmp.astype(np.int64)
                np.right_shift(mh, last_shift, out=tmp)
                np.bitwise_and(tmp, _U1, out=tmp)
                score -= tmp.astype(np.int64)
                hout_p = hout_m = None
            else:
                hout_p = ph >> _U63
                hout_m = mh >> _U63
            np.left_shift(ph, _U1, out=ph)
            np.bitwise_or(ph, hin_p, out=ph)
            np.left_shift(mh, _U1, out=mh)
            np.bitwise_or(mh, hin_m, out=mh)
            np.bitwise_or(xv, ph, out=neg)
            np.bitwise_not(neg, out=neg)
            np.bitwise_or(mh, neg, out=Pv[w])
            np.bitwise_and(ph, xv, out=Mv[w])
            if hout_p is not None:
                hin_p, hin_m = hout_p, hout_m
        np.minimum(best, score, out=best)
    return best


# ---------------------------------------------------------------------------
# Containment engine (the RR >=95 % fast path)
# ---------------------------------------------------------------------------


def strict_diagonal_scheme(scheme: ScoringScheme) -> bool:
    """True when every diagonal entry is positive and a strict row max.

    Under such a scheme (BLOSUM62, identity) a perfect exact match is
    the *unique* optimal semiglobal alignment of a sequence against a
    text containing it: any substitution column scores strictly below
    the diagonal entry and any gap column scores negative, so only the
    gapless perfect diagonal attains the maximum score.
    """
    matrix = scheme.matrix
    diag = matrix.diagonal()
    if (diag <= 0).any():
        return False
    off = matrix - np.diag(diag)
    return bool((diag > off.max(axis=1)).all())


def containment_reject_threshold(
    m: int, n: int, similarity: float, coverage: float
) -> int | None:
    """Sound infix-edit-distance threshold for Definition 1 rejection.

    Let ``s = min(m, n)`` and ``l = max(m, n)`` and let ``D`` be the
    minimum unit-cost edit distance between the *shorter* sequence and
    any infix of the longer.  If either containment direction holds for
    the scalar-optimal overlap alignment (identity >= ``similarity``
    over ``L`` columns, covered fraction >= ``coverage``), that witness
    alignment converts into an infix edit script:

    * shorter-in-longer: at most ``s*(1-coverage)`` clipped residues of
      the shorter plus ``L - M <= (1-similarity) * s / similarity``
      window edits, so ``D <= s*(1-coverage) + s*(1-similarity)/similarity``;
    * longer-in-shorter: only feasible when ``l * similarity * coverage
      <= s`` (matches are bounded by the shorter length), and then
      ``D <= s*(1 - similarity*coverage) + s*(1-similarity)/similarity``.

    Returns the largest integer ``K`` such that ``D > K`` proves both
    directions fail (one unit of slack absorbs float rounding), or
    ``None`` when no rejection is sound (degenerate thresholds).
    """
    if similarity <= 0.0 or coverage <= 0.0:
        return None
    s, l = min(m, n), max(m, n)
    window = s * (1.0 - similarity) / similarity
    k = s * (1.0 - coverage) + window
    if l * similarity * coverage <= s + 1e-9:
        k = max(k, s * (1.0 - similarity * coverage) + window)
    return int(math.floor(k + 1e-9)) + 1


@dataclass(frozen=True)
class ContainmentBatch:
    """Outcome of :func:`batch_containment` for one pair list.

    ``stats[k]`` is the ``(identity, coverage_a, coverage_b)`` triple
    Definition 1 thresholds on; for pairs decided by the Myers reject
    path it is ``(0.0, 0.0, 0.0)`` — the decision (no containment
    either way) is identical, the floats are surrogates.
    """

    stats: list[tuple[float, float, float]]
    n_rejected: int
    n_exact: int
    n_dp: int


@dataclass(frozen=True)
class ContainmentPrefilter:
    """What the Myers sweep alone settles about a Definition 1 pair list.

    ``stats[k]`` is final where the sweep decided the pair — the
    ``(0.0, 0.0, 0.0)`` surrogate of a rejected pair, the closed form
    of a certified one — and None where the DP must judge
    (``undecided`` lists those); ``rejected[k]`` tells a surrogate from
    a measured triple.
    """

    pairs: list[tuple[np.ndarray, np.ndarray]]
    stats: list[tuple[float, float, float] | None]
    rejected: list[bool]
    undecided: list[int]


def containment_prefilter(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    *,
    scheme: ScoringScheme,
    similarity: float,
    coverage: float,
    myers_bucket: int = DEFAULT_MYERS_BUCKET,
) -> ContainmentPrefilter:
    """Routes 1 and 2 of :func:`batch_containment`: one Myers sweep over
    the pair list, then per pair the reject bound and the exact
    certificate.  No DP."""
    enc = [(_as_encoded(a), _as_encoded(b)) for a, b in pairs]
    stats: list[tuple[float, float, float] | None] = [None] * len(enc)
    rejected = [False] * len(enc)
    undecided: list[int] = []
    if not enc:
        return ContainmentPrefilter(enc, stats, rejected, undecided)
    obs.count("batch.pairs", len(enc))

    shorter = [a if len(a) <= len(b) else b for a, b in enc]
    longer = [b if len(a) <= len(b) else a for a, b in enc]
    dists = batch_myers_infix(shorter, longer, bucket_size=myers_bucket)
    exact_ok = strict_diagonal_scheme(scheme)

    n_exact = 0
    for k, (a, b) in enumerate(enc):
        m, n = len(a), len(b)
        threshold = containment_reject_threshold(m, n, similarity, coverage)
        if threshold is not None and dists[k] > threshold:
            stats[k] = (0.0, 0.0, 0.0)
            rejected[k] = True
        elif exact_ok and dists[k] == 0:
            # identity = matches/length = 1.0; coverage of the shorter
            # is full, of the longer it is s/l — exactly the perfect
            # diagonal the scalar argmax selects at the first occurrence.
            cov_a = 1.0 if m <= n else n / m
            cov_b = 1.0 if n <= m else m / n
            stats[k] = (1.0, cov_a, cov_b)
            n_exact += 1
        else:
            undecided.append(k)
    obs.count("batch.myers_rejects", sum(rejected))
    obs.count("batch.exact_certified", n_exact)
    return ContainmentPrefilter(enc, stats, rejected, undecided)


def containment_dp(
    prefilter: ContainmentPrefilter,
    scheme: ScoringScheme,
    *,
    bucket_size: int = DEFAULT_BUCKET,
) -> ContainmentBatch:
    """Route 3 of :func:`batch_containment`: one semiglobal
    :func:`batch_align` over what the prefilter left undecided."""
    enc, dp_idx = prefilter.pairs, prefilter.undecided
    if not enc:
        return ContainmentBatch([], 0, 0, 0)
    stats = list(prefilter.stats)
    if dp_idx:
        computed = batch_align(
            [enc[k] for k in dp_idx], scheme, "semiglobal",
            bucket_size=bucket_size,
        )
        for k, aln in zip(dp_idx, computed):
            a, b = enc[k]
            stats[k] = containment_stats(aln, len(a), len(b))
    obs.count("batch.dp_pairs", len(dp_idx))
    n_rejected = sum(prefilter.rejected)
    return ContainmentBatch(
        stats=stats,  # type: ignore[arg-type]
        n_rejected=n_rejected,
        n_exact=len(enc) - n_rejected - len(dp_idx),
        n_dp=len(dp_idx),
    )


def batch_containment(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    *,
    scheme: ScoringScheme | None = None,
    similarity: float,
    coverage: float,
    bucket_size: int = DEFAULT_BUCKET,
    myers_bucket: int = DEFAULT_MYERS_BUCKET,
) -> ContainmentBatch:
    """Definition 1 statistics for many pairs, decision-identical to a
    semiglobal DP of every pair.

    Three routes, cheapest first:

    1. **Myers reject** — infix distance above
       :func:`containment_reject_threshold` proves neither direction
       can pass; no alignment exists or is needed.
    2. **Exact certificate** — distance 0 under a strict-diagonal
       scheme proves the scalar optimum is the perfect diagonal, whose
       statistics are known in closed form.
    3. **Batched DP** — everything else runs through
       :func:`batch_align`, whose Alignments equal the scalar kernel's.

    Routes 1 and 2 are :func:`containment_prefilter`, route 3 is
    :func:`containment_dp`; a caller that times the two apart (the
    serve request path) calls them itself.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    prefilter = containment_prefilter(
        pairs, scheme=scheme, similarity=similarity, coverage=coverage,
        myers_bucket=myers_bucket,
    )
    return containment_dp(prefilter, scheme, bucket_size=bucket_size)
