"""Banded (k-band) global alignment.

When two sequences are near-identical — exactly the situation the
redundancy-removal phase tests for — the optimal alignment path stays
within a narrow band around the main diagonal.  Restricting the DP to a
band of half-width ``k`` reduces the work from O(m*n) to O((m+n)*k)
while returning the same alignment whenever the optimum fits the band.
"""

from __future__ import annotations

import numpy as np

from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.pairwise import Alignment, _as_encoded, _traceback

_NEG_INF = np.int32(-(1 << 30))


def banded_global_align(
    a: np.ndarray,
    b: np.ndarray,
    band: int,
    scheme: ScoringScheme | None = None,
) -> Alignment:
    """Global alignment restricted to ``|i - j| <= band``.

    ``band`` must be at least ``|len(a) - len(b)|`` or no global path
    exists inside the band; a ``ValueError`` is raised in that case.
    The returned alignment equals :func:`global_align`'s whenever the
    unrestricted optimum stays within the band.
    """
    if scheme is None:
        scheme = blosum62_scheme()
    a = _as_encoded(a)
    b = _as_encoded(b)
    m, n = len(a), len(b)
    if band < abs(m - n):
        raise ValueError(
            f"band {band} narrower than length difference {abs(m - n)}; "
            "no global path exists inside the band"
        )
    gap = np.int32(scheme.gap)
    matrix = scheme.matrix.astype(np.int32)

    # Row sweep over band slices: m contiguous-row iterations of width
    # <= 2*band+1, scores looked up only inside the band: O((m+n)*band)
    # arithmetic.  H stays a full (m+1, n+1) array of _NEG_INF, the one
    # O(m*n) allocation left, so the shared traceback can index it.
    H = np.full((m + 1, n + 1), _NEG_INF, dtype=np.int32)
    boundary = np.arange(0, band + 1, dtype=np.int32)
    H[boundary[boundary <= m], 0] = gap * boundary[boundary <= m]
    H[0, boundary[boundary <= n]] = gap * boundary[boundary <= n]

    for i in range(1, m + 1):
        lo = max(1, i - band)
        hi = min(n, i + band)
        if lo > hi:  # pragma: no cover - impossible once band >= |m - n|
            continue
        sub_row = matrix[a[i - 1], b[lo - 1 : hi]]
        # Down/diagonal candidates first (left-independent), exactly as
        # the unbanded kernel's _fill: out-of-band neighbours hold
        # _NEG_INF, which any in-band path beats (scores are bounded
        # below by gap * (m + n) >> _NEG_INF + O(band * |gap|)).
        t = np.maximum(
            H[i - 1, lo - 1 : hi] + sub_row,
            H[i - 1, lo : hi + 1] + gap,
        )
        # Left moves via the prefix-max chain (same trick as _fill):
        # H[i, j] = max_k<=j (chain[k] + gap * (j - k)).
        offs = -gap * np.arange(hi - lo + 2, dtype=np.int32)
        chain = np.empty(hi - lo + 2, dtype=np.int32)
        chain[0] = H[i, lo - 1]
        chain[1:] = t
        chain += offs
        np.maximum.accumulate(chain, out=chain)
        H[i, lo : hi + 1] = chain[1:] - offs[1:]

    if H[m, n] <= _NEG_INF // 2:  # pragma: no cover - guarded by band check
        raise ValueError("band excluded the terminal cell")
    return _traceback(H, a, b, scheme, m, n, "global")
