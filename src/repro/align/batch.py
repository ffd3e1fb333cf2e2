"""The alignment engine: many pairs per NumPy sweep, every result the
one-pair definition's.

A DP vectorised *within* one matrix (the one-pair kernels
``tests/scalar_align.py`` keeps as the reference) leaves ~8 NumPy
dispatches per row of a single pair; for the paper's sequence lengths
that overhead is comparable to the arithmetic itself.  This module is
the only DP in ``src/`` — a lone pair is a batch of one — and packs many
promising pairs into shared sweeps along two complementary axes:

1. **Bucketed batch fill** (:func:`align_columns`): index columns over
   an encoded store are sorted by its lengths and packed into buckets
   of at most :data:`_BUCKET_CELLS` padded cells, each side's codes one
   gather from its buffer; the DP state is laid out *batch-last* —
   ``H[(m+1), (n+1), B]`` — so every row update is one contiguous NumPy
   op across the bucket.  The fill runs in G-space (``H - j * gap``),
   where the substitution scores of a block of :data:`_SUB_ROWS` rows
   are one gather from per-slot row tables and the left-gap chain is a
   prefix max: log-step on wide buckets, ``np.maximum.accumulate`` on
   narrow ones.  It computes the one-pair recurrence exactly on each
   real submatrix, one masked reduction per bucket replicates the
   one-pair ``argmax`` rules, and :func:`_bucket_walk` walks every slot
   back in lockstep until too few are left for
   :func:`~repro.align.pairwise._traceback` — tie-breaking is
   *identical*, not merely score-equivalent.  A call returns one
   ``(k, 8)`` int64 table, a row per pair in the field order of
   :class:`~repro.align.pairwise.Alignment`.

2. **Bit-parallel Myers prefilter** (:func:`containment_columns`,
   :func:`batch_myers_infix`): a multi-word Myers (1999) bit-vector
   edit-distance kernel swept as a *word wavefront* — at step ``t``
   word ``w`` of every pair processes text column ``t - w``, so one
   NumPy op advances every 64-bit word of every pair and a sweep is
   ``n + W - 1`` steps, not ``n * W`` word updates.  A sweep of fewer
   than :data:`_WAVEFRONT_MIN_LANES` pairs (a serve request's) would
   pay those dispatches for little arithmetic, so it runs *packed*
   instead: every pair is a guarded bit field of one Python integer
   and a text column is ~18 big-int operations.  Pairs are index
   columns over an encoded store
   (:class:`~repro.runtime.sharedseq.EncodedStore`) — a backend
   session's, a serve request's or a list-of-arrays call's private one
   — whose per-sequence match masks the wavefront reads.  For the RR
   phase's >=95 %-containment test a *sound* threshold on the infix
   edit distance (:func:`containment_reject_threshold`, computed for
   the whole pair list at once) proves that a pair cannot satisfy
   Definition 1 in either direction, so the full DP is skipped for the
   bulk of promising pairs without changing any decision.  A distance
   of zero, under schemes whose substitution diagonal is a strict
   positive row maximum (BLOSUM62, identity), *certifies* the scalar
   optimum exactly (perfect-diagonal match) and is answered without DP
   as well.

Every fast path is gated by a proof obligation, and the whole engine is
pinned to ``tests/scalar_align.py`` by the Hypothesis equivalence suite
in ``tests/test_batch_align.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.pairwise import Alignment, _alignment_row, _traceback, alignment_cells
from repro.align.predicates import containment_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime.sharedseq import EncodedStore

#: Most pairs per DP bucket.  Re-measured with the G-space, log-step
#: fill on a ~260-residue family, local mode (2-core Xeon, Python 3.11,
#: NumPy 2.4): 452/340/262/253/257 us per pair at 16/32/64/128/256,
#: against 648/534/462/468/488 for the quantum-bucketed accumulate fill.
#: Past 64 the cell budget, not this cap, sets the width.
DEFAULT_BUCKET = 64

#: Pairs per Myers sweep: from _WAVEFRONT_MIN_LANES lanes a sweep is the
#: word wavefront, whose step costs 19 NumPy dispatches whatever the
#: width, so wider sweeps amortise them until the (W, B) state and the
#: skewed masks outgrow the cache.  Re-measured with the
#: wavefront on the suite's RR pairs (seed 2008, machine above), us per
#: pair at 128/256/512/1024/2048: domain 10.0/7.0/5.6/5.0/5.9, giant
#: 30.3/21.8/19.0/18.4/18.6, skewed 17.2/13.1/10.5/11.9/13.1.
DEFAULT_MYERS_BUCKET = 1024

#: Padded DP cells per bucket: 64 slots of 289 x 289, the largest bucket
#: a 32-residue length quantum allowed, so packing by cells instead
#: never grows the worst-case H (10.7 MB at int16).
_BUCKET_CELLS = 64 * 289 * 289

#: Bucket width from which the left-gap chain is a log-step prefix max
#: instead of one np.maximum.accumulate per row (accumulate is a scalar
#: loop; the doubling steps are SIMD but pay ~log2(n) dispatches).  One
#: local fill of 254-residue pairs on the machine above, accumulate vs
#: log-step: 1.4 vs 2.9 ms at 1 slot, 3.1 vs 3.6 at 8, 4.1 vs 4.1 at
#: 12, 5.1 vs 4.5 at 16, 9.2 vs 6.7 at 32, 17.0 vs 10.1 at 64.
_DOUBLING_MIN_SLOTS = 16

#: Diagonal cells a bucket-walk step tests per slot: a longer run takes
#: more steps, a longer window makes every step dearer.  The walk of
#: every bucket of the suite's giant and skewed runs (seed 2008, 1,697
#: and 2,205 walks, machine above), ms at 16/32/64 with 8 slots: giant
#: 49.6/41.7/44.1, skewed 47.4/42.8/42.7; one _traceback per slot took
#: 104 and 86.
_WALK_WINDOW = 32

#: Live slots below which the bucket walk hands the rest to _traceback:
#: a lockstep step costs ~60 NumPy calls whatever the width, so a few
#: slots walk faster one at a time, and the serve path's 1-6-pair calls
#: never enter the lockstep.  Same buckets, ms at 4/8/16 with a 32-cell
#: window: giant 47.0/41.7/44.7, skewed 42.4/42.8/44.5.
_WALK_MIN_SLOTS = 8

#: DP rows whose substitution scores _bucket_fill gathers with one take.
#: One fill of 200-260-residue pairs on the machine above, against one
#: take a row, best of 7: ~0.8x at 1-3 slots, ~0.88x at 8, ~0.97x at
#: 16, 0.98-1.05x (neutral) at 64; the block buffer is ~1.2 MB at the
#: widest bucket.
_SUB_ROWS = 32

#: Lanes from which a Myers sweep runs as the word wavefront instead of
#: packed into one Python integer (_myers_packed), whose text column
#: costs ~18 big-int operations for every lane together but grows with
#: the lanes.  Packed / wavefront time on the machine above, random
#: pairs of 110-260 residues at 1/6/16/24/32/48/64/256 lanes:
#: 0.15/0.21/0.43/0.56/0.72/1.00/1.02/3.83; the suite's serve pairs
#: regrouped into sweeps of 8/16/24/32/64: 0.23/0.32/0.42/0.51/0.80.
#: Serve sweeps hold 2-8 lanes, batch RR sweeps hundreds.
_WAVEFRONT_MIN_LANES = 32

_U1 = np.uint64(1)
_U63 = np.uint64(63)


# ---------------------------------------------------------------------------
# Bucketed batch DP fill
# ---------------------------------------------------------------------------


def _chain_dtype(scheme: ScoringScheme, m: int, n: int) -> type:
    """Narrowest integer dtype that provably cannot overflow the fill.

    The scalar kernel runs its running-max chain in int64; any dtype
    holding every intermediate exactly yields bit-identical H values.
    |H| <= max|sub| * min(m, n) + |gap| * (m + n), and the fill stores
    ``G = H - j * gap`` (see :func:`_bucket_fill`), which adds at most
    |gap| * (n + 1): int16 to ~935 residues a side under BLOSUM62 with
    gap -8.
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


def _slot_codes(store: "EncodedStore", idx: np.ndarray) -> np.ndarray:
    """Sequences ``idx`` of a store batch-last, ``(max length, B)``:
    column ``k`` holds sequence ``idx[k]`` and residue 0 past its end.
    One gather from the store's buffer."""
    lengths = store.lengths[idx]
    rows = np.arange(int(lengths.max()))[:, None]
    codes = store.buffer.take(store.offsets[idx] + rows, mode="clip").astype(np.intp)
    codes[rows >= lengths] = 0
    return codes


def _fill_layout(
    scheme: ScoringScheme, m_pad: int, n_pad: int, B: int
) -> tuple[tuple[int, int, int], np.dtype, int]:
    """Shape, dtype and bytes of the H that :func:`_bucket_fill` fills
    for a bucket of ``B`` slots, ``m_pad`` by ``n_pad`` residues."""
    shape = (m_pad + 1, n_pad + 1, B)
    dtype = np.dtype(_chain_dtype(scheme, m_pad, n_pad))
    return shape, dtype, math.prod(shape) * dtype.itemsize


def _bucket_fill(
    a_pad: np.ndarray, b_pad: np.ndarray, scheme: ScoringScheme, mode: str,
    buffer: np.ndarray,
) -> np.ndarray:
    """Fill one bucket of pairs, given as the :func:`_slot_codes` of
    each side, into the front of the uint8 ``buffer`` (at least
    :func:`_fill_layout`'s bytes; its contents are never read); returns
    that view, H, batch-last ``(m_pad+1, n_pad+1, B)``.

    Slot ``k`` is the DP matrix of pair ``k`` padded with residue 0: its
    real submatrix ``H[:m_k+1, :n_k+1, k]`` equals the one-pair fill's H
    (a cell only reads cells at smaller indices) and every cell obeys
    :func:`_chain_dtype`'s bound.  Padded cells can outscore the real
    optimum, so :func:`_bucket_endpoints` confines itself to real ones.

    The fill runs in G-space, ``G[i, j] = H[i, j] - j * gap``: there the
    left-gap chain is a plain prefix max along each row, the diagonal
    move adds ``sub - gap`` and the up move adds ``gap``; one ``H -=
    offs`` at the end returns to H.  Row 0 and column 0 are set first
    and every other cell is written by its row update, so a reused
    buffer fills as a zeroed one.  Every operand of a row update is a
    view built once per bucket, never per row.
    """
    (m_pad, B), n_pad = a_pad.shape, len(b_pad)
    width = scheme.matrix.shape[1]
    gap = int(scheme.gap)
    shape, dtype, nbytes = _fill_layout(scheme, m_pad, n_pad, B)
    H = buffer[:nbytes].view(dtype).reshape(shape)
    # Row tables: table[i - 1] holds, slot by slot, the (G-shifted)
    # substitution row of a_k[i - 1], and b_slot indexes it flat, so
    # the scores of a block of _SUB_ROWS rows are one take into ``subs``
    # (bound >= max|sub| + |gap|: they fit).
    table = (scheme.matrix.astype(np.int64) - gap).astype(dtype)[a_pad]
    table = table.reshape(m_pad, B * width)
    b_slot = b_pad + width * np.arange(B)
    subs = np.empty((min(m_pad, _SUB_ROWS), n_pad, B), dtype=dtype)

    # offs[j] = -j * gap.  It and the local floor (offs in G-space) are
    # full-size: broadcast operands miss NumPy's fast loops (np.maximum
    # against a scalar is ~5x slower).
    offs = np.repeat((-gap) * np.arange(n_pad + 1, dtype=dtype), B).reshape(-1, B)
    if mode == "global":  # G[0, j] = 0, G[i, 0] = i * gap
        H[0] = 0
        H[:, 0, :] = (gap * np.arange(m_pad + 1, dtype=dtype))[:, None]
    else:  # H[0, j] = 0, H[i, 0] = 0
        H[0] = offs
        H[:, 0] = 0
    floor = offs[1:] if mode == "local" else None
    up = np.empty((n_pad, B), dtype=dtype)
    wide = B >= _DOUBLING_MIN_SLOTS
    if wide:
        # Hillis-Steele ping-pong: two row buffers behind a lead of the
        # dtype's minimum (max's identity), so every shifted view is full
        # length and no step copies; the last step writes H's row.  Each
        # step is a (src, shifted src, dst) triple of fixed views.
        shifts = [1 << s for s in range(n_pad.bit_length())]
        lead = shifts[-1]
        ping = np.full((lead + n_pad + 1, B), np.iinfo(dtype).min, dtype=dtype)
        pong = ping.copy()
        steps = []
        src, dst = ping, pong
        for s in shifts:
            steps.append((src[lead:], src[lead - s : -s], dst[lead:]))
            src, dst = dst, src
        *steps, (last, last_shifted, _) = steps
        # The chain of row i: ping[lead] holds the boundary H[i, 0] (the
        # chain origin), which every step keeps, and ping[lead + 1:] the
        # gap-free candidates, diagonal then up; the last step writes H[i].
        origin = ping[lead]
        origin[...] = 0
        origins = H[1:, 0] if mode == "global" else None
        chains = itertools.repeat(ping[lead + 1 :])
    else:  # the chain of row i is H[i] itself
        chains = H[1:, 1:]
    sub_rows = list(subs)
    # Step i fills row i + 1 from row i: diag[i] = H[i, :-1] (diagonal
    # moves) and vert[i] = H[i, 1:] (up moves).
    diag, vert = H[:-1, :-1], H[:-1, 1:]
    for i, (prev_diag, prev_vert, row, t) in enumerate(zip(diag, vert, H[1:], chains)):
        r = i % _SUB_ROWS
        if r == 0:  # codes checked on entry
            block = table[i : i + _SUB_ROWS]
            np.take(block, b_slot, axis=1, out=subs[: len(block)], mode="clip")
        np.add(prev_diag, sub_rows[r], out=t)
        np.add(prev_vert, gap, out=up)
        np.maximum(t, up, out=t)
        if floor is not None:
            np.maximum(t, floor, out=t)
        if not wide:
            np.maximum.accumulate(row, axis=0, out=row)
            continue
        if origins is not None:
            origin[...] = origins[i]
        for src, shifted, dst in steps:
            np.maximum(src, shifted, out=dst)
        np.maximum(last, last_shifted, out=row)
    H -= offs
    return H


def _bucket_endpoints(
    H: np.ndarray, m_arr: np.ndarray, n_arr: np.ndarray, mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Traceback start cells of a whole bucket, the scalar kernels'
    choice; slot ``k`` is ``m_arr[k]`` by ``n_arr[k]`` residues.

    Local: first row-major ``argmax`` of the real submatrix; the padding
    is zeroed in place first, sound because real cells are >= 0 and
    ``(0, 0)`` comes first, so a zeroed cell is never the first maximum.
    Semiglobal: first ``argmax`` of the last real row and of the last
    real column, the row winning ties (``>=``).
    """
    if mode == "global":
        return m_arr, n_arr
    rows, cols, slots = (np.arange(size) for size in H.shape)
    if mode == "local":
        m_min, n_min = int(m_arr.min()), int(n_arr.min())
        H[m_min + 1 :] *= (rows[m_min + 1 :, None] <= m_arr)[:, None, :]
        H[:, n_min + 1 :] *= (cols[n_min + 1 :, None] <= n_arr)[None, :, :]
        # Over j through the transpose: the reduction then runs along
        # whole (m_pad + 1, B) planes, not within each row of H.
        row_max = H.transpose(1, 0, 2).max(axis=0)
        start_i = (row_max == row_max.max(axis=0)).argmax(axis=0)
        return start_i, H[start_i, :, slots].argmax(axis=1)
    low = np.iinfo(H.dtype).min
    last_row = np.where(cols <= n_arr[:, None], H[m_arr, :, slots], low)
    last_col = np.where(rows <= m_arr[:, None], H[:, n_arr, slots].T, low)
    row_j, col_i = last_row.argmax(axis=1), last_col.argmax(axis=1)
    row_wins = last_row[slots, row_j] >= last_col[slots, col_i]
    return np.where(row_wins, m_arr, col_i), np.where(row_wins, row_j, n_arr)


def _bucket_walk(
    H: np.ndarray, store: "EncodedStore", ia: np.ndarray, ib: np.ndarray,
    codes: tuple[np.ndarray, np.ndarray], scheme: ScoringScheme,
    start_i: np.ndarray, start_j: np.ndarray, mode: str,
) -> np.ndarray:
    """Walk every slot of a bucket back at once; slot ``k``, sequences
    ``ia[k]`` and ``ib[k]`` of the store (``codes``: each side's
    :func:`_slot_codes`), gets :func:`_traceback`'s row from
    ``(start_i[k], start_j[k])``, as row ``k`` of a ``(B, 8)`` int64
    table.

    A step reads, for every live slot at ``(i, j)``, the window ``h[r] =
    H(i - r, j - r)`` for ``r <= K`` (:data:`_WALK_WINDOW`) and the K
    residue pairs beside it.  Cell ``r`` passes when ``r < min(i, j)``,
    ``h[r] == h[r + 1] + sub`` and, local, ``h[r] != 0``: the one-slot
    walk's diagonal predicate there.  So the slot moves back to its first
    failing cell ``r*`` (K if none fails), counting matches over those
    cells only, exactly as the one-slot run does.  At a failing cell the
    one-slot walk stops (``i = 0``, ``j = 0``, a local zero) or takes the
    up move, else the left move, else is stuck; the step does the same.
    The rows of the slots the lockstep stopped are built as columns by
    :func:`~repro.align.pairwise._alignment_row`, which builds
    :func:`_traceback`'s row too.  Once fewer than
    :data:`_WALK_MIN_SLOTS` slots are live (from the start, in a narrow
    bucket), the rest resume in :func:`_traceback` over the store's
    views, which builds their rows.
    """
    B = len(ia)
    rows = np.empty((B, 8), dtype=np.int64)
    zeros = np.zeros_like(start_i)
    at = np.array([start_i, start_j, zeros, zeros], dtype=np.intp)
    live = range(B)
    if B >= _WALK_MIN_SLOTS:
        live = _walk_lockstep(H, *codes, scheme, mode, at).tolist()
        score = H[start_i, start_j, np.arange(B)]
        for column, values in zip(rows.T, _alignment_row(score, start_i, start_j, *at, mode)):
            column[:] = values
    for k in live:
        rows[k] = _traceback(H[:, :, k], store.get(int(ia[k])), store.get(int(ib[k])),
                             scheme, int(start_i[k]), int(start_j[k]), mode,
                             at=tuple(at[:, k].tolist()))
    return rows


def _walk_lockstep(
    H: np.ndarray, a_pad: np.ndarray, b_pad: np.ndarray, scheme: ScoringScheme,
    mode: str, at: np.ndarray,
) -> np.ndarray:
    """The lockstep half of :func:`_bucket_walk`: advances ``at``, the
    rows ``(i, j, matches, diagonal)`` with one column per slot, until
    fewer than :data:`_WALK_MIN_SLOTS` slots are live, and returns
    those slots."""
    _, n1, B = H.shape
    cells = H.reshape(-1)
    width = scheme.matrix.shape[1]
    a_rows = (a_pad * width).ravel()  # a_rows[x] + b_cols[y]: a flat matrix index
    b_cols = b_pad.ravel()
    subs = scheme.matrix.ravel()
    same = np.eye(width, dtype=bool).ravel()
    gap, local, K = scheme.gap, mode == "local", _WALK_WINDOW
    diag_back = np.arange(K + 1) * ((n1 + 1) * B)  # flat step (i, j) -> (i-1, j-1)
    code_back = np.arange(K) * B
    first = np.tri(K + 1, K, -1, dtype=bool)  # first[r]: the window's first r cells
    ok = np.zeros((B, K + 1), dtype=bool)  # column K never passes
    rows = np.arange(B)
    s = rows
    i, j, matches, diagonal = at.copy()
    while len(s) >= _WALK_MIN_SLOTS:
        limit = np.minimum(i, j)
        cell = (i * n1 + j) * B + s
        h = cells.take(cell[:, None] - diag_back, mode="clip")
        pair = a_rows.take(((i - 1) * B + s)[:, None] - code_back, mode="clip")
        pair += b_cols.take(((j - 1) * B + s)[:, None] - code_back, mode="clip")
        passes = ok[: len(s), :K]
        np.equal(h[:, :K], h[:, 1:] + subs.take(pair), out=passes)
        if local:
            passes &= h[:, :K] != 0
        # Cells from min(i, j) on read clipped garbage: the limit cuts them.
        run = np.minimum(ok[: len(s)].argmin(axis=1), limit)
        matches += (same.take(pair) & first[run]).sum(axis=1)
        diagonal += run
        i -= run
        j -= run
        cell -= diag_back[1] * run
        h = h[rows[: len(s)], run]  # H(i, j)
        done = run == limit  # on row 0 or column 0
        if local:
            done |= h == 0
        turn = (run < K) & ~done
        up = h == cells.take(cell - n1 * B, mode="clip") + gap
        left = h == cells.take(cell - B, mode="clip") + gap
        stuck = turn & ~(up | left)
        if stuck.any():  # a fill bug, never a left move
            k = int(stuck.argmax())
            raise AssertionError(f"traceback of slot {s[k]} stuck at ({i[k]}, {j[k]})")
        up &= turn
        i -= up
        j -= turn & ~up
        if done.any():
            at[:, s[done]] = i[done], j[done], matches[done], diagonal[done]
            keep = ~done
            s, i, j = s[keep], i[keep], j[keep]
            matches, diagonal = matches[keep], diagonal[keep]
    at[:, s] = i, j, matches, diagonal
    return s


def _iter_buckets(
    m_arr: np.ndarray, n_arr: np.ndarray, bucket_size: int
) -> Iterable[np.ndarray]:
    """Pair indices in buckets of at most ``bucket_size`` pairs and
    :data:`_BUCKET_CELLS` padded cells (a lone pair may exceed it); pair
    ``k`` is ``m_arr[k]`` by ``n_arr[k]`` residues.

    Pairs are taken in ``(m, n)`` order (stable); from each start the
    greedy count that fits is the bucket's capacity, and what is left is
    split into equal buckets of at most that size rather than full ones
    and a thin tail.
    """
    order = np.lexsort((n_arr, m_arr))
    dims = list(zip(m_arr[order].tolist(), n_arr[order].tolist()))
    lo = 0
    while lo < len(order):
        fit = m_pad = n_pad = 0
        for m, n in dims[lo : lo + bucket_size]:
            m_pad, n_pad = max(m_pad, m), max(n_pad, n)
            if fit and (fit + 1) * (m_pad + 1) * (n_pad + 1) > _BUCKET_CELLS:
                break
            fit += 1
        rest = len(order) - lo
        size = -(-rest // -(-rest // fit))
        yield order[lo : lo + size]
        lo += size


def align_columns(
    store: "EncodedStore", ia: np.ndarray, ib: np.ndarray, *,
    scheme: ScoringScheme, mode: str,
) -> np.ndarray:
    """The alignments of sequences ``ia[r]`` and ``ib[r]`` of a store,
    as one ``(k, 8)`` int64 table: row ``r`` is ``(score, a_start,
    a_end, b_start, b_end, matches, length, gaps)`` and
    ``Alignment(*row, mode=mode)`` equals (all dataclass fields) the
    ``tests/scalar_align.py`` aligner of that ``mode`` on the pair.

    The one bucket loop, :data:`DEFAULT_BUCKET` pairs at most a bucket.
    Every bucket fills into one byte buffer, allocated once for the
    call's largest H, so one H is live at a time whatever the buckets'
    dtypes.  Counts ``batch.pairs`` and ``batch.cells`` (per *real*
    pair dimensions, never per padded slot); the store's codes are
    checked once per store.
    """
    ia, ib = _index_columns(store, ia, ib)
    table = np.zeros((len(ia), 8), dtype=np.int64)
    if not len(ia):
        return table
    store.check_codes(scheme.matrix.shape[1])
    m_arr, n_arr = store.lengths[ia], store.lengths[ib]
    obs.count("batch.pairs", len(ia))
    obs.count("batch.cells", int(alignment_cells(m_arr, n_arr).sum()))
    buckets = list(_iter_buckets(m_arr, n_arr, DEFAULT_BUCKET))
    buffer = np.empty(max(
        _fill_layout(scheme, int(m_arr[members].max()), int(n_arr[members].max()),
                     len(members))[2]
        for members in buckets
    ), dtype=np.uint8)
    for members in buckets:
        a, b = ia[members], ib[members]
        codes = _slot_codes(store, a), _slot_codes(store, b)
        H = _bucket_fill(*codes, scheme, mode, buffer)
        obs.count("batch.buckets")
        obs.count("batch.padded_cells", H.size)
        start_i, start_j = _bucket_endpoints(H, m_arr[members], n_arr[members], mode)
        table[members] = _bucket_walk(H, store, a, b, codes, scheme, start_i, start_j, mode)
    return table


def _index_columns(
    store: "EncodedStore", ia: np.ndarray, ib: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``ia`` and ``ib`` as int64 columns of equal length (else
    ``ValueError``) of indices into the store (else ``IndexError``)."""
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    if ia.shape != ib.shape or ia.ndim != 1:
        raise ValueError("ia and ib must be index columns of equal length")
    if len(ia) and (min(ia.min(), ib.min()) < 0 or max(ia.max(), ib.max()) >= len(store)):
        raise IndexError(f"sequence index out of range [0, {len(store)})")
    return ia, ib


def batch_align(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    scheme: ScoringScheme | None = None,
    mode: str = "semiglobal",
) -> list[Alignment]:
    """:func:`align_columns` of a list of ``(a, b)`` encoded arrays, in
    input order, each row as its :class:`Alignment`: the pairs are
    checked, their distinct arrays put in a private store and its index
    columns aligned."""
    if mode not in ("global", "local", "semiglobal"):
        raise ValueError(f"unknown alignment mode {mode!r}")
    if scheme is None:
        scheme = blosum62_scheme()
    store, ia, ib = _pair_store(pairs)
    table = align_columns(store, ia, ib, scheme=scheme, mode=mode)
    return [Alignment(*row, mode=mode) for row in table.tolist()]


def _pair_store(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple["EncodedStore", np.ndarray, np.ndarray]:
    """The pairs' distinct arrays in a private store and the pairs as its
    index columns (:func:`batch_align`, :func:`batch_containment`).  The
    store checks each array once, before its ``uint8`` cast, and the
    engine its codes against the matrix; an empty sequence is a
    ``ValueError`` here."""
    store, idx = _private_store([np.asarray(seq) for a, b in pairs for seq in (a, b)])
    if not store.lengths.all():
        raise ValueError("sequences must be non-empty 1-D integer arrays")
    return store, idx[0::2], idx[1::2]


def _check_codes(seqs: list[np.ndarray], width: int) -> None:
    """Checks sequences on their own values (no cast that could wrap or
    truncate a code): ``ValueError`` for one that is not a 1-D integer
    array, ``IndexError`` for a code outside ``[0, width)``."""
    if any(s.ndim != 1 or s.dtype.kind not in "iu" for s in seqs):
        raise ValueError("sequences must be 1-D integer arrays")
    if seqs:
        codes = np.concatenate(seqs)
        if codes.min() < 0 or codes.max() >= width:
            raise IndexError(f"residue code out of range for a {width}-letter alphabet")


# ---------------------------------------------------------------------------
# Bit-parallel Myers infix edit distance (vectorised across pairs)
# ---------------------------------------------------------------------------


def batch_myers_infix(
    patterns: Sequence[np.ndarray],
    texts: Sequence[np.ndarray],
    *,
    alphabet: int = 21,
) -> np.ndarray:
    """min over infixes ``t[x:y]`` of the unit-cost edit distance to
    the full pattern, for every (pattern, text) pair, vectorised.

    The distinct arrays go into a private store and
    :func:`_myers_columns` sweeps its index columns.  Every sequence
    must be a 1-D integer array (else ``ValueError``; texts may be
    empty, patterns may not) whose codes lie in ``[0, alphabet)`` and
    fit a byte; anything else raises ``IndexError`` (code ``alphabet``
    is the pad that matches nothing).
    """
    if len(patterns) != len(texts):
        raise ValueError("patterns and texts must have equal length")
    if not patterns:
        return np.zeros(0, dtype=np.int64)
    patterns = [np.asarray(p) for p in patterns]
    texts = [np.asarray(t) for t in texts]
    if any(p.size == 0 for p in patterns):
        raise ValueError("patterns must be non-empty")
    # An empty text holds no code, whatever its dtype.
    _check_codes([*patterns, *(t for t in texts if t.size or t.ndim != 1)], alphabet)
    texts = [t if t.size else t.astype(np.uint8) for t in texts]
    store, idx = _private_store([*patterns, *texts])
    return _myers_columns(store, idx[: len(patterns)], idx[len(patterns) :], alphabet)


def _private_store(seqs: Sequence[np.ndarray]) -> tuple["EncodedStore", np.ndarray]:
    """The distinct arrays of ``seqs`` (by identity) in a private store,
    and the store index of each element of ``seqs``."""
    from repro.runtime.sharedseq import EncodedStore  # the runtime imports this module

    slot: dict[int, int] = {}
    idx = np.array([slot.setdefault(id(seq), len(slot)) for seq in seqs], dtype=np.int64)
    distinct = {id(seq): seq for seq in seqs}
    return EncodedStore.from_sequences(list(distinct.values())), idx


def _myers_columns(
    store: "EncodedStore", pat: np.ndarray, txt: np.ndarray, alphabet: int
) -> np.ndarray:
    """The one Myers entry: :func:`batch_myers_infix` of sequence
    ``pat[k]`` against sequence ``txt[k]`` of a store, for every lane
    ``k`` (codes already checked against ``alphabet``).

    Lanes are sorted by text length (stable), so padding waste inside a
    sweep stays low, and cut :data:`DEFAULT_MYERS_BUCKET` at a time.  A
    sweep of :data:`_WAVEFRONT_MIN_LANES` lanes or more is the word
    wavefront over the store's mask table
    (:func:`_myers_table_sweep`, which builds the table the first
    time); a narrower one runs packed over the store's views
    (:func:`_myers_packed`), so a store swept only narrow (a serve
    request's) never builds a table.
    """
    result = np.zeros(len(pat), dtype=np.int64)
    order = np.argsort(store.lengths[txt], kind="stable")
    for lo in range(0, len(order), DEFAULT_MYERS_BUCKET):
        chunk = order[lo : lo + DEFAULT_MYERS_BUCKET]
        p, t = pat[chunk], txt[chunk]
        if len(chunk) >= _WAVEFRONT_MIN_LANES:
            result[chunk] = _myers_table_sweep(store, p, t, alphabet)
        else:
            result[chunk] = _myers_packed([store.get(k) for k in p.tolist()],
                                          [store.get(k) for k in t.tolist()], alphabet)
    return result


def _padded_codes(
    seqs: Sequence[np.ndarray], width: int, alphabet: int, lead: int = 0
) -> np.ndarray:
    """``(B, width)`` codes: row ``k`` holds ``seqs[k]`` from column
    ``lead`` on and the pad code ``alphabet`` everywhere else; one
    scatter for the whole list (codes checked on entry)."""
    lengths = np.array([len(s) for s in seqs])
    flat = np.concatenate(seqs)
    col = np.arange(width)
    codes = np.full((len(seqs), width), alphabet, dtype=np.intp)
    codes[(col >= lead) & (col < lead + lengths[:, None])] = flat
    return codes


def _myers_table_sweep(
    store: "EncodedStore", pat: np.ndarray, txt: np.ndarray, alphabet: int
) -> np.ndarray:
    """:func:`_myers_wavefront` over store indices: lane ``k`` sweeps
    sequence ``pat[k]`` over sequence ``txt[k]``, its match masks the
    store's rows for ``pat[k]``
    (:meth:`~repro.runtime.sharedseq.EncodedStore.myers_masks`, built
    once) and its text codes gathered from the store's buffer."""
    m_arr, n_arr = store.lengths[pat], store.lengths[txt]
    W = int((m_arr.max() + 63) // 64)
    steps = max(int(n_arr.max()), 1) + W - 1
    col = np.arange(1 - W, steps)[:, None]
    codes = store.buffer.take(store.offsets[txt] + col, mode="clip").astype(np.intp)
    codes[(col < 0) | (col >= n_arr)] = alphabet
    table, words = store.myers_masks(alphabet)
    return _myers_wavefront(_skewed_masks(table, words, pat, codes, W), m_arr)


def myers_mask_table(
    codes: np.ndarray, lengths: np.ndarray, alphabet: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Myers match masks of the sequences ``codes`` holds end to end
    (sequence ``k`` is ``lengths[k]`` codes long), ragged: ``(table,
    words)``, where sequence ``k``'s ``W_k = ceil(lengths[k] / 64)``
    words are rows ``words[k]`` to ``words[k + 1]`` of the ``(words[-1]
    + 1, alphabet + 1)`` uint64 ``table``, and bit ``b`` of ``[words[k]
    + w, c]`` is set iff residue ``64 w + b`` of sequence ``k`` is code
    ``c``.  So the table holds one row per 64 residues, not per longest
    sequence.  The pad code's column and the last row, which
    :func:`_skewed_masks` reads for a word past a lane's pattern, stay
    zero.  One scatter; codes must lie in ``[0, alphabet)`` (the caller
    checks them)."""
    A = alphabet + 1
    lengths = np.asarray(lengths, dtype=np.int64)
    words = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum((lengths + 63) // 64, out=words[1:])
    table = np.zeros((int(words[-1]) + 1) * A, dtype=np.uint64)
    if len(codes):
        ends = np.cumsum(lengths)
        pos = np.arange(int(ends[-1])) - np.repeat(ends - lengths, lengths)
        row = np.repeat(words[:-1], lengths) + (pos >> 6)
        cell = row * A + np.asarray(codes).astype(np.intp, copy=False)
        np.bitwise_or.at(table, cell, _U1 << (pos & 63).astype(np.uint64))
    return table.reshape(-1, A), words


def _skewed_masks(
    table: np.ndarray, words: np.ndarray, pat: np.ndarray, codes: np.ndarray, W: int
) -> np.ndarray:
    """The ``(steps, W, B)`` masks a wavefront reads: ``EQ[t, w, k]`` is
    word ``w`` of sequence ``pat[k]`` in ``(table, words)``
    (:func:`myers_mask_table`), zero past its last word, at the code of
    column ``t - w`` of lane ``k``'s text.  ``codes`` is ``(steps + W -
    1, B)``: row ``r`` holds column ``r - (W - 1)`` of every text (``W -
    1`` pad rows lead), the pad code outside the text, so word ``w``
    reads it from row ``W - 1 - w`` on."""
    A = table.shape[1]
    steps = len(codes) - W + 1
    first, n_words = words[pat], words[pat + 1] - words[pat]
    zero = len(table) - 1
    flat = table.reshape(-1)
    EQ = np.empty((steps, W, len(pat)), dtype=np.uint64)
    for w in range(W):
        rows = np.where(w < n_words, first + w, zero) * A
        EQ[:, w] = flat[codes[W - 1 - w : W - 1 - w + steps] + rows]
    return EQ


def _myers_wavefront(EQ: np.ndarray, m_arr: np.ndarray) -> np.ndarray:
    """Multi-word Myers (1999) over ``B`` lanes as a word wavefront.

    Lane ``k``'s pattern spans ``W_k`` 64-bit words, and the sweep runs
    ``W = max W_k`` of them: at step ``t`` word ``w`` of every lane
    processes text column ``t - w``, whose match mask is ``EQ[t, w]``,
    so each step is one NumPy op per bit operation across the whole
    ``(W, B)`` state, and a sweep is ``n_max + W - 1`` steps.  The
    horizontal deltas word ``w - 1`` emitted on step ``t - 1`` — for the
    same column — are word ``w``'s carry-in on step ``t`` (word 0's
    carry-in is always zero).  Columns outside a lane's text have a zero
    match mask: before the text, with zero carry-in, they leave the
    initial state unchanged and emit nothing; after it they can only
    raise the last-row score.  So a lane's distance (its pattern
    ``m_arr[k]`` residues long) is the minimum of its running score read
    at bit ``m_k - 1`` of word ``W_k - 1``, over every step.  The masks
    are a store's per-sequence table, skewed by :func:`_skewed_masks`
    (:func:`_myers_table_sweep`).
    """
    steps, W, B = EQ.shape
    lanes = np.arange(B)

    # State: PM stacks the horizontal +1 deltas of every word over the -1
    # deltas (ph, mh), so one op shifts both; row r of the carry buffer C
    # is what row r - 1 of PM emitted last step, with rows 0 and W (word
    # 0's carry-in of either sign) zero.  Cn receives the next step's.
    Pv = np.full((W, B), ~np.uint64(0), dtype=np.uint64)
    Mv = np.zeros((W, B), dtype=np.uint64)
    PM = np.empty((2 * W, B), dtype=np.uint64)
    ph, mh = PM[:W], PM[W:]
    C = np.zeros((2 * W, B), dtype=np.uint64)
    Cn = C.copy()
    eq = np.empty((W, B), dtype=np.uint64)
    xv, xh = np.empty_like(eq), np.empty_like(eq)
    # history[t] holds each lane's (ph, mh) word W_k - 1 before the shift.
    history = np.empty((steps, 2, B), dtype=np.uint64)
    last = lanes + ((m_arr - 1) >> 6) * B
    last_word = np.array([last, last + W * B])
    for t in range(steps):
        np.bitwise_or(EQ[t], C[W:], out=eq)
        np.bitwise_or(eq, Mv, out=xv)
        np.bitwise_and(eq, Pv, out=xh)
        np.add(xh, Pv, out=xh)
        np.bitwise_xor(xh, Pv, out=xh)
        np.bitwise_or(xh, eq, out=xh)
        np.bitwise_or(xh, Pv, out=ph)
        np.bitwise_not(ph, out=ph)
        np.bitwise_or(ph, Mv, out=ph)
        np.bitwise_and(Pv, xh, out=mh)
        np.take(PM, last_word, out=history[t], mode="clip")  # in range
        np.right_shift(PM[:-1], _U63, out=Cn[1:])
        Cn[W] = 0  # ph's last word carries into no mh word
        np.left_shift(PM, _U1, out=PM)
        np.bitwise_or(PM, C, out=PM)
        np.bitwise_or(xv, ph, out=Pv)
        np.bitwise_not(Pv, out=Pv)
        np.bitwise_or(Pv, mh, out=Pv)
        np.bitwise_and(ph, xv, out=Mv)
        C, Cn = Cn, C

    # Each step moves a lane's score by (ph bit) - (mh bit); the running
    # score starts at m_k and its minimum is the distance.
    np.bitwise_and(history, _U1 << ((m_arr - 1) & 63).astype(np.uint64), out=history)
    deltas = history.astype(bool).view(np.int8)
    score = np.cumsum(deltas[:, 0] - deltas[:, 1], axis=0, dtype=np.int32)
    return m_arr + np.minimum(score.min(axis=0), 0)


def _myers_packed(
    patterns: Sequence[np.ndarray], texts: Sequence[np.ndarray], alphabet: int
) -> np.ndarray:
    """Myers (1999) over ``B`` lanes packed into one Python integer.

    Lane ``k`` holds bits ``[k * 8L, k * 8L + m_k)`` at a uniform stride
    of ``L = m_max // 8 + 1`` bytes, so a zero guard bit sits above
    every lane.  The add ``(Eq & Pv) + Pv`` can carry out of lane ``k``
    into its guard bit but no further (the guard is zero in both
    operands); ``& lanes`` after the add and after each shift clears it
    again, so every lane's bit 0 takes carry-in 0 (search mode), as word
    0 of :func:`_myers_wavefront` does.  A text column is then ~18 big-int
    operations for every lane together.  As there, a column past a
    lane's text has a zero mask and can only raise the lane's score; a
    sweep whose texts are all empty has no column, and every distance
    is ``m_k``.
    """
    B = len(patterns)
    m_arr = np.array([len(p) for p in patterns])
    L = int(m_arr.max()) // 8 + 1
    n = max(len(t) for t in texts)

    # peq[k, c]: lane k's match mask of code c as L little-endian bytes
    # (the pad code's stays zero); lanes: every lane's bits set.
    codes = _padded_codes(patterns, 8 * L, alphabet)
    onehot = codes[:, None, :] == np.arange(alphabet)[:, None]
    peq = np.zeros((B, alphabet + 1, L), dtype=np.uint8)
    peq[:, :alphabet] = np.packbits(onehot, axis=2, bitorder="little")
    lanes = int.from_bytes(np.packbits(codes < alphabet, bitorder="little").tobytes(), "little")
    # Every column's masks, lane after lane: one gather, one buffer.
    masks = memoryview(peq[np.arange(B), _padded_codes(texts, n, alphabet).T].tobytes())

    size = B * L
    pv, mv = lanes, 0
    history: list[int] = []  # (ph, mh) of every column, before the shift
    for at in range(0, n * size, size):
        eq = int.from_bytes(masks[at : at + size], "little")
        xv = eq | mv
        xh = ((((eq & pv) + pv) & lanes) ^ pv) | eq
        ph = mv | ((xh | pv) ^ lanes)
        mh = pv & xh
        history.append(ph)
        history.append(mh)
        ph = (ph << 1) & lanes
        mh = (mh << 1) & lanes
        pv = mh | ((xv | ph) ^ lanes)
        mv = ph & xv

    # Lane k's last-row bit of every (ph, mh): byte (m_k - 1) // 8 of
    # its stride, as in _myers_wavefront a +1 / -1 step of the running score.
    raw = b"".join(x.to_bytes(size, "little") for x in history)
    deltas = np.frombuffer(raw, dtype=np.uint8).reshape(n, 2, B, L)
    top = deltas[:, :, np.arange(B), (m_arr - 1) >> 3] >> ((m_arr - 1) & 7) & 1
    score = np.cumsum(top[:, 0].astype(np.int32) - top[:, 1], axis=0)
    return m_arr + score.min(axis=0, initial=0)


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
    m: int | np.ndarray, n: int | np.ndarray, similarity: float, coverage: float
) -> int | np.ndarray | None:
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
    ``None`` when no rejection is sound (degenerate thresholds).  Given
    integer arrays of lengths it returns the array of ``K``, element for
    element the value of the int form.
    """
    if similarity <= 0.0 or coverage <= 0.0:
        return None
    s, l = np.minimum(m, n), np.maximum(m, n)
    window = s * (1.0 - similarity) / similarity
    k = s * (1.0 - coverage) + window
    longer_fits = l * similarity * coverage <= s + 1e-9
    k = np.where(longer_fits, np.maximum(k, s * (1.0 - similarity * coverage) + window), k)
    bound = np.floor(k + 1e-9).astype(np.int64) + 1
    return bound if np.ndim(bound) else int(bound)


@dataclass(frozen=True)
class ContainmentPrefilter:
    """What the Myers sweep alone settles about the pairs ``(ia[r],
    ib[r])`` of a store, as columns.

    ``stats`` is the ``(k, 3)`` float64 rows, final where the sweep
    decided the pair — the ``(0.0, 0.0, 0.0)`` surrogate of a rejected
    pair (``rejected[r]``), the closed form of a certified one — and
    zero where the DP must judge: the rows ``undecided`` lists, in
    ascending order.
    """

    stats: np.ndarray
    rejected: np.ndarray
    undecided: np.ndarray


def containment_prefilter(
    store: "EncodedStore",
    ia: np.ndarray,
    ib: np.ndarray,
    *,
    scheme: ScoringScheme,
    similarity: float,
    coverage: float,
) -> ContainmentPrefilter:
    """Routes 1 and 2 of :func:`containment_columns`: one Myers pass
    (:func:`_myers_columns`, the shorter sequence of each pair swept
    over the longer), then the reject bound and the exact certificate
    as whole columns.  No DP: the pairs it decides are counted in
    ``batch.pairs`` here, the rest by :func:`containment_dp`.

    The store's codes are checked against the matrix once per store,
    the columns by :func:`_index_columns`; an empty sequence is a
    ``ValueError``.
    """
    ia, ib = _index_columns(store, ia, ib)
    if not len(ia):
        return ContainmentPrefilter(np.zeros((0, 3)), np.zeros(0, dtype=bool),
                                    np.zeros(0, dtype=np.int64))
    m, n = store.lengths[ia], store.lengths[ib]
    if not (m.all() and n.all()):
        raise ValueError("sequences must be non-empty 1-D integer arrays")
    width = scheme.matrix.shape[1]
    store.check_codes(width)

    pat, txt = np.where(m <= n, ia, ib), np.where(m <= n, ib, ia)
    dists = _myers_columns(store, pat, txt, width)
    threshold = containment_reject_threshold(m, n, similarity, coverage)
    rejected = dists > threshold if threshold is not None else np.zeros(len(dists), bool)
    exact = ~rejected & (dists == 0) & strict_diagonal_scheme(scheme)
    obs.count("batch.pairs", int(rejected.sum()) + int(exact.sum()))
    obs.count("batch.myers_rejects", int(rejected.sum()))
    obs.count("batch.exact_certified", int(exact.sum()))
    # identity = matches/length = 1.0; coverage of the shorter is full,
    # of the longer it is s/l — exactly the perfect diagonal the scalar
    # argmax selects at the first occurrence.
    stats = np.zeros((len(ia), 3))
    stats[exact] = np.column_stack(
        (np.ones(len(ia)), np.where(m <= n, 1.0, n / m), np.where(n <= m, 1.0, m / n))
    )[exact]
    return ContainmentPrefilter(stats, rejected, np.flatnonzero(~(rejected | exact)))


def containment_dp(
    store: "EncodedStore",
    ia: np.ndarray,
    ib: np.ndarray,
    prefilter: ContainmentPrefilter | None,
    scheme: ScoringScheme,
) -> np.ndarray:
    """Route 3 of :func:`containment_columns`: the prefilter's ``(k,
    3)`` rows, the undecided ones measured by one semiglobal
    :func:`align_columns` (which counts them in ``batch.pairs``; they
    are counted in ``batch.dp_pairs`` too).  With no ``prefilter``
    every pair is undecided: the pairs a sweep left to the DP, gathered
    from several sweeps (the runtime's ``"contain_dp"`` task)."""
    if prefilter is None:
        prefilter = ContainmentPrefilter(
            np.zeros((len(ia), 3)), np.zeros(len(ia), dtype=bool),
            np.arange(len(ia)),
        )
    stats = prefilter.stats.copy()
    if not len(stats):
        return stats
    undecided = prefilter.undecided
    obs.count("batch.dp_pairs", len(undecided))
    if len(undecided):
        a, b = np.asarray(ia)[undecided], np.asarray(ib)[undecided]
        table = align_columns(store, a, b, scheme=scheme, mode="semiglobal")
        stats[undecided] = containment_stats(table, store.lengths[a], store.lengths[b])
    return stats


def containment_columns(
    store: "EncodedStore",
    ia: np.ndarray,
    ib: np.ndarray,
    *,
    scheme: ScoringScheme,
    similarity: float,
    coverage: float,
) -> np.ndarray:
    """Definition 1 statistics of the pairs ``(ia[r], ib[r])`` of a
    sequence store, as one ``(k, 3)`` float64 array of ``(identity,
    coverage_a, coverage_b)``, decision-identical to a semiglobal DP of
    every pair.

    Three routes, cheapest first:

    1. **Myers reject** — infix distance above
       :func:`containment_reject_threshold` proves neither direction
       can pass; the row is the ``(0.0, 0.0, 0.0)`` surrogate and no
       alignment exists or is needed.
    2. **Exact certificate** — distance 0 under a strict-diagonal
       scheme proves the scalar optimum is the perfect diagonal, whose
       statistics are known in closed form.
    3. **Batched DP** — everything else runs through the bucket loop of
       :func:`align_columns`, whose rows equal the scalar kernel's.

    Routes 1 and 2 are :func:`containment_prefilter`, route 3 is
    :func:`containment_dp`; a caller that times the two apart (the
    serve request path) calls them itself.
    """
    prefilter = containment_prefilter(
        store, ia, ib, scheme=scheme, similarity=similarity, coverage=coverage
    )
    return containment_dp(store, ia, ib, prefilter, scheme)


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


def batch_containment(
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    *,
    scheme: ScoringScheme | None = None,
    similarity: float,
    coverage: float,
) -> ContainmentBatch:
    """:func:`containment_columns` of a list of ``(a, b)`` encoded
    arrays: the pairs are checked as :func:`batch_align` checks them,
    their distinct arrays put in a private store, and the rows come back
    as a list of tuples with each route's count."""
    if scheme is None:
        scheme = blosum62_scheme()
    store, ia, ib = _pair_store(pairs)
    prefilter = containment_prefilter(
        store, ia, ib, scheme=scheme, similarity=similarity, coverage=coverage
    )
    stats = containment_dp(store, ia, ib, prefilter, scheme)
    n_rejected, n_dp = int(prefilter.rejected.sum()), len(prefilter.undecided)
    return ContainmentBatch(
        stats=[tuple(row) for row in stats.tolist()],
        n_rejected=n_rejected,
        n_exact=len(ia) - n_rejected - n_dp,
        n_dp=n_dp,
    )
