"""The ad-hoc monotonic clock read and the one duration formatter."""

from __future__ import annotations

import time


def monotonic_now() -> float:
    """The sanctioned ad-hoc monotonic read for duration measurement.

    ``repro lint`` rule R4 bans raw ``time.time()``/``perf_counter()``
    everywhere except this module and :mod:`repro.obs.clock`:
    *timestamps* that must be comparable across processes go through
    one explicit :class:`~repro.obs.clock.ClockSync` pairing, while
    plain elapsed-time measurement (backends, benchmarks) subtracts two
    ``monotonic_now()`` reads.  The value is process-local and has an
    arbitrary zero — never ship it to another process.
    """
    return time.perf_counter()


def format_seconds(seconds: float) -> str:
    """Render a duration like the paper does ("3h 20m", "45.2s"); one
    under a second in milliseconds ("12.5ms")."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    if 0 < seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h {minutes:02d}m"
    return f"{minutes}m {secs:02d}s"
