"""Execution-backend interface: real wall-clock parallelism.

The :mod:`repro.parallel` simulator *models* the paper's BlueGene/L runs
(virtual seconds, message counts, memory ceilings) while executing every
algorithm in-process.  This package is its physical counterpart: a
:class:`Backend` actually distributes the pipeline's hot work — pair
alignment for the RR/CCD/bipartite phases, the per-component Shingle
runs of the DSD phase — across real cores, and reports *measured*
wall-clock timings and worker utilisation instead of simulated ones.

Two contracts every backend honours:

1. **Result invariance.**  For a fixed configuration, ``families`` and
   the Table I row are bit-identical across backends.  The phases
   guarantee this the same way the simulator does: the RR and bipartite
   phases align a deterministic pair set with order-independent
   decisions, the CCD transitive-closure filter only ever skips pairs
   that are already intra-component, and all collected edge/verdict
   sets are canonically sorted before use.
2. **Master-side state.**  The union–find, the dedup sets, and the
   :class:`~repro.pace.cache.AlignmentCache` live only on the master
   (mirroring the paper's PaCE master); workers are stateless alignment
   engines over a shared read-only sequence store.
"""

from __future__ import annotations

import abc
import contextlib
import multiprocessing
import os
import platform
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.align.matrices import ScoringScheme
    from repro.align.pairwise import Alignment
    from repro.graph.bipartite import BipartiteGraph
    from repro.pace.cache import AlignmentCache
    from repro.sequence.record import SequenceSet
    from repro.shingle.algorithm import ShingleParams


class BackendError(RuntimeError):
    """A backend failed to execute work."""


class WorkerCrashError(BackendError):
    """A worker process raised or died; the master surfaces it cleanly."""


@dataclass
class PhaseStats:
    """Measured execution statistics for one pipeline phase.

    ``tasks`` counts work items shipped to the backend (alignments or
    component Shingle runs); ``cache_hits`` counts alignments answered
    from the master-side memo without dispatch; ``busy_seconds`` is the
    summed compute time across workers, so ``busy / (wall * workers)``
    is the classic utilisation figure.
    """

    name: str
    wall_seconds: float = 0.0
    tasks: int = 0
    cache_hits: int = 0
    busy_seconds: float = 0.0

    def utilization(self, workers: int) -> float:
        if self.wall_seconds <= 0.0 or workers <= 0:
            return 0.0
        return min(self.busy_seconds / (self.wall_seconds * workers), 1.0)


@dataclass
class RuntimeStats:
    """Measured wall-clock counterpart of the simulator's PhaseTimings."""

    backend: str
    workers: int
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    cache: dict[str, float] = field(default_factory=dict)
    """Snapshot of ``AlignmentCache.stats()`` at end of run."""

    @property
    def total_wall(self) -> float:
        return sum(p.wall_seconds for p in self.phases.values())

    @property
    def total_tasks(self) -> int:
        return sum(p.tasks for p in self.phases.values())

    def utilization(self) -> float:
        """Busy-time fraction over all phases (1.0 = perfectly packed)."""
        wall = self.total_wall
        if wall <= 0.0 or self.workers <= 0:
            return 0.0
        busy = sum(p.busy_seconds for p in self.phases.values())
        return min(busy / (wall * self.workers), 1.0)

    def summary_lines(self) -> list[str]:
        """Human-readable per-phase report for the CLI."""
        lines = [
            f"backend={self.backend} workers={self.workers} "
            f"wall={self.total_wall:.3f}s utilization={self.utilization():.0%}"
        ]
        for stats in self.phases.values():
            lines.append(
                f"  {stats.name:<16s} {stats.wall_seconds:>9.3f}s  "
                f"tasks={stats.tasks:<8d} cache_hits={stats.cache_hits:<8d} "
                f"util={stats.utilization(self.workers):.0%}"
            )
        return lines


class AlignmentStream(abc.ABC):
    """Streaming pair-alignment channel — the backends' hot-path primitive.

    The master submits ``(i, j)`` global index pairs; completed
    :class:`~repro.align.pairwise.Alignment` results come back through
    :meth:`ready` (non-blocking) or :meth:`drain` (blocking flush) in an
    unspecified order.  Phase drivers interleave ``submit`` with
    ``ready`` so master-side state (e.g. the CCD union–find filter)
    advances while workers align.
    """

    @abc.abstractmethod
    def submit(self, i: int, j: int) -> None:
        """Request alignment of global sequence pair (i, j)."""

    def submit_many(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Request alignment of many pairs at once.

        The default forwards pair by pair; backends override it to hand
        whole chunks to the batched kernels
        (:func:`repro.align.batch.batch_align`) so the per-dispatch
        NumPy overhead amortises across the pair axis.
        """
        for i, j in pairs:
            self.submit(i, j)

    @abc.abstractmethod
    def ready(self) -> list[tuple[int, int, "Alignment"]]:
        """Completed results available now, without blocking."""

    @abc.abstractmethod
    def drain(self) -> Iterator[tuple[int, int, "Alignment"]]:
        """Flush: block until every submitted pair has a result."""


class ContainmentStream(abc.ABC):
    """Streaming Definition 1 statistics channel — the RR phase primitive.

    Same submit/ready/drain shape as :class:`AlignmentStream`, but the
    result for a pair is ``(i, j, (identity, coverage_i, coverage_j))``
    oriented to the canonical ``i < j`` order.  RR verdicts consume only
    these three floats, never the traceback — which is what lets
    backends route pairs through alignment-free fast paths
    (:func:`repro.align.batch.batch_containment`): a pair *proven*
    unable to pass Definition 1 in either direction ships the surrogate
    ``(0.0, 0.0, 0.0)`` and the decision is unchanged.
    """

    @abc.abstractmethod
    def submit_many(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Request Definition 1 statistics for many pairs."""

    def submit(self, i: int, j: int) -> None:
        self.submit_many([(i, j)])

    @abc.abstractmethod
    def ready(self) -> list[tuple[int, int, tuple[float, float, float]]]:
        """Completed statistics available now, without blocking."""

    @abc.abstractmethod
    def drain(self) -> Iterator[tuple[int, int, tuple[float, float, float]]]:
        """Flush: block until every submitted pair has statistics."""


class Backend(abc.ABC):
    """Abstract execution backend.

    Lifecycle::

        backend = ProcessBackend(workers=4)
        with backend.session(sequences, scheme):
            stream = backend.alignment_stream("local", cache)
            ...
        backend.stats  # RuntimeStats, populated per phase
    """

    name: str = "abstract"
    workers: int = 1

    def __init__(self) -> None:
        self.stats = RuntimeStats(backend=self.name, workers=self.workers)
        self._current_phase: PhaseStats | None = None

    # -- lifecycle ---------------------------------------------------------

    @abc.abstractmethod
    def open(self, sequences: "SequenceSet", scheme: "ScoringScheme") -> None:
        """Bind the backend to a sequence set (builds stores / pools)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release every resource; idempotent."""

    @contextlib.contextmanager
    def session(self, sequences: "SequenceSet", scheme: "ScoringScheme"):
        self.open(sequences, scheme)
        try:
            yield self
        finally:
            self.close()

    # -- phase bookkeeping -------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record wall-clock time of a pipeline phase under ``name``.

        Besides the backend's own :class:`PhaseStats`, the interval is
        mirrored as a phase span on the ambient :mod:`repro.obs`
        recorder (when one is installed), so backend runs and serial
        runs share one timeline vocabulary.
        """
        from repro import obs
        from repro.util.timing import monotonic_now

        stats = self.stats.phases.setdefault(name, PhaseStats(name))
        previous = self._current_phase
        self._current_phase = stats
        start = monotonic_now()
        try:
            with obs.span(name, cat="phase", backend=self.name,
                          workers=self.workers):
                yield stats
        finally:
            stats.wall_seconds += monotonic_now() - start
            self._current_phase = previous

    def _phase_stats(self) -> PhaseStats:
        if self._current_phase is None:
            # Work outside an explicit phase is still accounted for.
            return self.stats.phases.setdefault("adhoc", PhaseStats("adhoc"))
        return self._current_phase

    # -- telemetry ---------------------------------------------------------

    def telemetry_probe(self) -> dict:
        """Live backend state for the telemetry sampler (thread-safe).

        Backends with worker processes override this to report queue
        depth and per-worker liveness; the default describes an
        in-process backend where the lone "worker" is the master itself.
        """
        return {
            "outstanding": 0,
            "workers": [{"index": 0, "alive": True, "exitcode": None}],
        }

    # -- work primitives ---------------------------------------------------

    @abc.abstractmethod
    def alignment_stream(
        self, kind: str, cache: "AlignmentCache"
    ) -> AlignmentStream:
        """Open a stream of ``kind`` ("local" or "semiglobal") alignments."""

    @abc.abstractmethod
    def containment_stream(
        self,
        cache: "AlignmentCache",
        *,
        similarity: float,
        coverage: float,
    ) -> ContainmentStream:
        """Open a Definition 1 statistics stream for the RR phase.

        Backends answer it through the batched containment engine
        (:func:`repro.align.batch.batch_containment`), whose decisions
        are provably identical to a full semiglobal DP per pair;
        ``similarity``/``coverage`` parameterise its sound rejection
        threshold.
        """

    @abc.abstractmethod
    def map_components(
        self,
        graphs: Sequence["BipartiteGraph"],
        reduction: str,
        params: "ShingleParams",
        min_size: int,
        tau: float,
    ) -> list[tuple[list[tuple[int, ...]], list, object]]:
        """Run the Shingle phase over independent component graphs.

        Returns one ``(finals, raw, stats)`` triple per graph, in input
        order (components are independent, so any execution order gives
        identical results).
        """


def default_worker_count() -> int:
    """Workers to use when the user does not say: usable cores minus one
    (the master needs a core for pair generation and union–find)."""
    return max(1, usable_cpu_count() - 1)


def usable_cpu_count() -> int:
    """Cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def preferred_start_method() -> str:
    """``fork`` where available (cheap, inherits imports), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def shared_memory_available() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - stdlib always has it on 3.8+
        return False
    return True


def runtime_info() -> dict:
    """Environment report for the ``repro runtime-info`` subcommand."""
    return {
        "python": platform.python_version(),
        "platform": platform.system().lower(),
        "cpu_count": os.cpu_count() or 1,
        "usable_cpus": usable_cpu_count(),
        "default_workers": default_worker_count(),
        "start_methods": multiprocessing.get_all_start_methods(),
        "preferred_start_method": preferred_start_method(),
        "shared_memory": shared_memory_available(),
        "backends": {
            "serial": True,
            "process": shared_memory_available(),
        },
    }
