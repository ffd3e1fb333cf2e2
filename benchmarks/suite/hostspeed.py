"""Reading the host's speed beside every measurement.

The benchmark runs on shared cores whose speed moves by 20-40% on every
time scale from a tenth of a second to a minute (a fixed loop read
back to back for three minutes: block means still differ by 9% at 3 s
blocks and 7% at 10 s blocks).  No statistic over the repetitions of a
10-second run removes that, so raw medians of identical code differed
by up to 22% between two sets of ten runs and spread by up to 30% within
one, more than the largest bound the benchmark may declare.

What slows is the core, not the scheduler: the reference kernel's CPU
seconds rise with its wall-clock (ratio 1.01 over 2,100 readings), and so
do the pipeline's (raw ``cpu_s`` spreads like raw ``wall_s``).  So every
timed unit (a pipeline repetition, a request round, a set-up) is
bracketed by two *readings* of a fixed reference kernel, about 75 ms of
interpreter loops, cache-resident NumPy and sorting that no change to
the repo touches, and reported as the seconds it would have taken at
the reference speed: wall-clock scaled by the kernel's wall-clock,
CPU seconds by the kernel's CPU seconds (which preemption and steal do
not inflate, so a busy scheduler cannot bias ``cpu_s`` low).  On an
unloaded reference core the factor is 1 and the metric is the plain
reading; ratios between two commits are unaffected by the constant.

The correction is partial: the pipeline does not slow exactly as the
kernel does, two 75 ms samples do not describe a 3 s unit exactly, and
the kernel is single-threaded where ``process`` and the daemon under two
clients are not.  README.md has the spreads with and without it.  Raw
medians and the mean factor travel in each run's DETAIL line, and the
traced pass reports the factor as ``host.speed_factor``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.util.timing import monotonic_now

#: What one reading takes on an unloaded core of the reference box (the
#: fastest of 400 readings there).  It only fixes the scale.
REFERENCE_S = 0.068

#: Which clock a measurement was read from: index into a reading.
WALL, CPU = 0, 1

_GRID = (np.arange(64 * 3000, dtype=np.int64) * 7919 % 101).astype(np.int32).reshape(64, 3000)
_KEYS = np.arange(130_000, dtype=np.int64) * 2654435761 % 1000003


def reading() -> tuple[float, float]:
    """(wall-clock, CPU) seconds the reference kernel takes right now.

    Three parts of roughly 2 : 1 : 2 in time — interpreter loops over
    ints and a dict, NumPy sweeps over a cache-resident grid, sorting
    and hashing — the mix that tracked the pipeline best when each part
    was recorded beside `skewed`, `giant` and `domain` for nine minutes.
    """
    start, cpu0 = monotonic_now(), time.process_time()
    total = 0
    slots: dict[int, int] = {}
    for i in range(250_000):
        total += i * i % 7
    for i in range(100_000):
        slots[i % 997] = i
    for _ in range(20):
        np.maximum(np.maximum.accumulate(_GRID, axis=1), _GRID[:, ::-1]).sum()
    order = np.argsort(_KEYS, kind="stable")
    np.unique(_KEYS[order] // 7)
    len(set(sorted(_KEYS[:26_000].tolist())))
    return monotonic_now() - start, time.process_time() - cpu0


def at_reference_speed(
    seconds: Sequence[float], readings: Sequence[tuple[float, float]], clock: int
) -> list[float]:
    """``seconds[i]``, measured between ``readings[i]`` and
    ``readings[i + 1]``, as it would read at the reference speed;
    ``clock`` is the clock ``seconds`` were read from."""
    return [
        value * REFERENCE_S / ((readings[i][clock] + readings[i + 1][clock]) / 2.0)
        for i, value in enumerate(seconds)
    ]


def factor(readings: Sequence[tuple[float, float]]) -> float:
    """How much slower than the reference the host ran, on average."""
    return sum(wall for wall, _ in readings) / len(readings) / REFERENCE_S
