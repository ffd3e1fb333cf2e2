"""The reference in-process backend.

Executes every work item synchronously on the master — the pipeline's
default, and the measured baseline every other backend and the
simulator are compared (and result-checked) against.  ``submit``
computes immediately through the shared
:class:`~repro.pace.cache.AlignmentCache`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import obs
from repro.align.batch import batch_containment
from repro.pace.cache import AlignmentCache
from repro.runtime.base import (
    AlignmentStream,
    Backend,
    ContainmentStream,
    PhaseStats,
)
from repro.util.timing import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.plan import FaultPlan


class _SerialStream(AlignmentStream):
    def __init__(self, kind: str, cache: AlignmentCache, phase: PhaseStats,
                 backend: "SerialBackend"):
        if kind not in ("local", "semiglobal"):
            raise ValueError(f"unknown alignment kind {kind!r}")
        self._kind = kind
        self._cache = cache
        self._phase = phase
        self._backend = backend
        self._done: list[tuple[int, int, object]] = []

    def submit(self, i: int, j: int) -> None:
        if i > j:
            i, j = j, i
        self._backend._apply_fault(self._phase.name)
        hit = self._cache.peek(self._kind, i, j) is not None
        start = monotonic_now()
        if self._kind == "local":
            aln = self._cache.local(i, j)
        else:
            aln = self._cache.semiglobal(i, j)
        elapsed = monotonic_now() - start
        self._phase.busy_seconds += elapsed
        self._phase.tasks += 1
        if hit:
            self._phase.cache_hits += 1
        obs.heartbeat(0, elapsed)
        self._done.append((i, j, aln))

    def submit_many(self, pairs) -> None:
        """Chunked path: one cache-batch lookup, misses through the
        batched kernel (:meth:`AlignmentCache.batch`).  Counter
        semantics are pinned per pair (see the cache docstring), so a
        chunked run records exactly what the per-pair loop records.
        """
        if not pairs:
            return
        canon = [(i, j) if i < j else (j, i) for i, j in pairs]
        self._backend._apply_fault(self._phase.name)
        start = monotonic_now()
        hits = 0
        seen: set[tuple[int, int]] = set()
        for key in canon:
            if self._cache.peek(self._kind, *key) is not None or key in seen:
                hits += 1
            else:
                seen.add(key)
        alns = self._cache.batch(self._kind, canon)
        elapsed = monotonic_now() - start
        self._phase.busy_seconds += elapsed
        self._phase.tasks += len(canon)
        self._phase.cache_hits += hits
        obs.heartbeat(0, elapsed)
        self._done.extend(
            (i, j, aln) for (i, j), aln in zip(canon, alns)
        )

    def ready(self) -> list[tuple[int, int, object]]:
        out = self._done
        self._done = []
        return out

    def drain(self) -> Iterator[tuple[int, int, object]]:
        yield from self.ready()


class _SerialContainmentStream(ContainmentStream):
    """In-process containment engine stream (RR fast path).

    Cached pairs are answered through the cache accessors (counting
    the hit); the rest go through
    :func:`repro.align.batch.batch_containment` — Myers-rejected and
    exact-certified pairs never touch the cache (no alignment was
    computed), DP'd pairs are inserted exactly as a worker result
    would be.
    """

    def __init__(self, cache: AlignmentCache, phase: PhaseStats,
                 backend: "SerialBackend", similarity: float,
                 coverage: float):
        self._cache = cache
        self._phase = phase
        self._backend = backend
        self._similarity = similarity
        self._coverage = coverage
        self._done: list[tuple[int, int, tuple[float, float, float]]] = []

    def _stats(self, i: int, j: int, aln) -> tuple[float, float, float]:
        return (
            aln.identity,
            aln.coverage_a(len(self._cache.encoded(i))),
            aln.coverage_b(len(self._cache.encoded(j))),
        )

    def submit_many(self, pairs) -> None:
        if not pairs:
            return
        self._backend._apply_fault(self._phase.name)
        start = monotonic_now()
        misses: list[tuple[int, int]] = []
        for i, j in pairs:
            if i > j:
                i, j = j, i
            if self._cache.peek("semiglobal", i, j) is not None:
                aln = self._cache.semiglobal(i, j)
                self._phase.cache_hits += 1
                self._done.append((i, j, self._stats(i, j, aln)))
            else:
                misses.append((i, j))
        if misses:
            result = batch_containment(
                [
                    (self._cache.encoded(i), self._cache.encoded(j))
                    for i, j in misses
                ],
                scheme=self._backend._scheme,
                similarity=self._similarity,
                coverage=self._coverage,
            )
            for (i, j), stats, aln in zip(
                misses, result.stats, result.alignments
            ):
                if aln is not None:
                    self._cache.insert("semiglobal", i, j, aln)
                self._done.append((i, j, stats))
        elapsed = monotonic_now() - start
        self._phase.busy_seconds += elapsed
        self._phase.tasks += len(pairs)
        obs.heartbeat(0, elapsed)

    def ready(self) -> list[tuple[int, int, tuple[float, float, float]]]:
        out = self._done
        self._done = []
        return out

    def drain(self) -> Iterator[tuple[int, int, tuple[float, float, float]]]:
        yield from self.ready()


class SerialBackend(Backend):
    """Single-process reference backend.

    A :class:`~repro.faults.plan.FaultPlan` may be attached: ``delay``
    faults targeting worker 0 sleep in-line (there is only the master),
    while kill/poison faults are unsatisfiable here — there is no
    process to lose — and are recorded as skipped events instead.  The
    run's results are unaffected either way, which keeps the serial
    reference usable as the chaos baseline.
    """

    name = "serial"

    def __init__(self, *, fault_plan: "FaultPlan | None" = None) -> None:
        self.workers = 1
        super().__init__()
        self._open = False
        self._scheme = None
        self._injector = None
        if fault_plan is not None and fault_plan:
            from repro.faults.plan import FaultInjector

            self._injector = FaultInjector(fault_plan)

    def _apply_fault(self, phase: str) -> None:
        if self._injector is None:
            return
        marker = self._injector.marker_for_send(phase, 0)
        if marker is None:
            return
        if marker[0] == "delay":
            obs.count("faults.injected")
            obs.event("fault.injected", kind="delay_task", worker=0,
                      phase=phase)
            time.sleep(marker[1])
        else:
            obs.event("fault.skipped", kind="kill_worker", phase=phase,
                      reason="serial backend has no worker to kill")

    def open(self, sequences, scheme) -> None:
        self._open = True
        self._scheme = scheme

    def close(self) -> None:
        self._open = False

    def alignment_stream(self, kind: str, cache: AlignmentCache) -> _SerialStream:
        return _SerialStream(kind, cache, self._phase_stats(), self)

    def containment_stream(
        self, cache: AlignmentCache, *, similarity: float, coverage: float
    ) -> _SerialContainmentStream:
        return _SerialContainmentStream(
            cache, self._phase_stats(), self, similarity, coverage
        )

    def map_components(
        self,
        graphs: Sequence,
        reduction: str,
        params,
        min_size: int,
        tau: float,
    ) -> list[tuple]:
        from repro.pace.densesub import shingle_component

        phase = self._phase_stats()
        out = []
        for graph in graphs:
            self._apply_fault(phase.name)
            start = monotonic_now()
            out.append(shingle_component(graph, reduction, params, min_size, tau))
            elapsed = monotonic_now() - start
            phase.busy_seconds += elapsed
            phase.tasks += 1
            obs.heartbeat(0, elapsed)
        return out
