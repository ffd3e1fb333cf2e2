"""Streaming log-scale latency histograms for the serving SLO surface.

A :class:`LatencyHistogram` is the daemon-side half of the serving
latency story: the load generator keeps raw client-side samples, but a
long-lived daemon cannot (unbounded memory), so it folds every request
duration into a fixed array of geometric buckets and answers
percentile queries from the bucket counts.

Bucket scheme (fixed, never negotiated on the wire):

* the resolvable range is ``MIN_LATENCY_S`` (1 µs) to ``MAX_LATENCY_S``
  (100 s) at :data:`BUCKETS_PER_DECADE` (10) buckets per decade — a
  geometric grid with ratio ``10^(1/10) ≈ 1.2589`` between consecutive
  bucket edges;
* bucket 0 is the underflow bucket (``value <= 1 µs``), the last bucket
  is the overflow bucket (``value > 100 s``); everything in between
  covers the half-open interval ``(edge[i-1], edge[i]]``.

Accuracy contract: :meth:`percentile` uses the same nearest-rank
definition as :func:`repro.serve.loadgen.percentile` and returns the
*upper edge* of the bucket holding the ranked sample, so its estimate
is always >= the exact sample and over-reads by at most one bucket
ratio (~26%) — "within one bucket width", which the histogram tests
pin down.  Only the digest (:meth:`summary`) leaves the daemon: the
``metrics`` protocol verb and the ``serve`` probe of its telemetry
stream carry count and p50/p99/p999 per verb, not the buckets.

Not thread-safe by itself: the daemon mutates histograms under its own
metrics lock (one short critical section per finished request).
"""

from __future__ import annotations

import bisect
import math

#: Smallest resolvable latency in seconds (underflow bucket edge).
MIN_LATENCY_S = 1e-6

#: Largest resolvable latency in seconds (overflow past this).
MAX_LATENCY_S = 1e2

#: Geometric resolution of the grid.
BUCKETS_PER_DECADE = 10

#: Ratio between consecutive bucket upper edges.
BUCKET_FACTOR = 10.0 ** (1.0 / BUCKETS_PER_DECADE)

#: Decades spanned by the resolvable range.
_DECADES = int(round(math.log10(MAX_LATENCY_S / MIN_LATENCY_S)))

#: Upper edges of the resolvable buckets: edge[i] = 1e-6 * 10^(i/10).
#: Computed from integer decade/step so edges are bit-stable across
#: platforms (no accumulated multiplication error).
_EDGES: list[float] = [
    MIN_LATENCY_S * 10.0 ** (i / BUCKETS_PER_DECADE)
    for i in range(_DECADES * BUCKETS_PER_DECADE + 1)
]

#: Total bucket count: underflow-inclusive grid plus the overflow slot.
N_BUCKETS = len(_EDGES) + 1


def bucket_index(seconds: float) -> int:
    """The bucket holding a latency of ``seconds`` (clamped range)."""
    if seconds <= MIN_LATENCY_S:
        return 0
    # bisect_left finds the first edge >= value, i.e. the bucket whose
    # half-open interval (edge[i-1], edge[i]] contains it.
    idx = bisect.bisect_left(_EDGES, seconds)
    return min(idx, N_BUCKETS - 1)


class LatencyHistogram:
    """Fixed-bucket geometric latency histogram (seconds in, seconds out)."""

    __slots__ = ("_counts", "_count")

    def __init__(self) -> None:
        self._counts = [0] * N_BUCKETS
        self._count = 0

    # -- recording ---------------------------------------------------------

    def record(self, seconds: float) -> None:
        """Fold one request duration into the histogram."""
        self._counts[bucket_index(seconds)] += 1
        self._count += 1

    @property
    def count(self) -> int:
        """Total recorded samples."""
        return self._count

    # -- percentile estimation ---------------------------------------------

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile estimate, in seconds.

        Matches :func:`repro.serve.loadgen.percentile`'s rank rule on
        the same samples, then reports the upper edge of the bucket
        the ranked sample fell into — so the estimate never under-reads
        and over-reads by at most one bucket ratio.  Overflow-bucket
        ranks report ``inf`` (visible, rather than silently clamped).
        """
        if self._count == 0:
            raise ValueError("percentile of an empty histogram")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"pct must be in [0, 100], got {pct}")
        rank = max(0, min(self._count - 1,
                          int(round(pct / 100.0 * (self._count - 1)))))
        seen = 0
        for index, n in enumerate(self._counts):
            seen += n
            if seen > rank:  # the overflow slot has no upper edge
                return _EDGES[index] if index < len(_EDGES) else math.inf
        return math.inf  # unreachable: seen == count > rank by then

    def summary(self) -> dict[str, float]:
        """The SLO digest per verb: count plus p50/p99/p999 in ms."""
        out: dict[str, float] = {"count": float(self._count)}
        if self._count:
            for label, pct in (("p50_ms", 50.0), ("p99_ms", 99.0),
                               ("p999_ms", 99.9)):
                out[label] = round(self.percentile(pct) * 1e3, 4)
        return out
