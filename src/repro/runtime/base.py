"""The runtime, stated once: a task function, a pair stream, a backend.

The :mod:`repro.parallel` simulator *models* the paper's BlueGene/L runs
in virtual time; this package *executes* on the host's cores and reports
measured wall-clock.  The paper's runtime is one sentence — a master
owns the union–find, the dedup sets and the filter, and stateless
workers align whatever pairs they are sent — and this module says it
once:

* :func:`run_task` is the only statement of the runtime's kinds of work,
  over the session's one encoded store
  (:class:`~repro.runtime.sharedseq.EncodedStore`: a flat code buffer,
  its offsets and lengths, in process or in shared memory); every
  executor runs it through :func:`execute`, which spans and times it.
* :class:`PairStream` is the master side of every pair phase: int64
  index columns in (:meth:`PairStream.submit_columns`), one ``(ia, ib,
  results)`` triple per task back through ``ready``/``drain``.  Nothing
  answers a pair from memory: every pair submitted is sent to the
  engine, so each pair a phase admits is aligned exactly once.  A task
  is exactly what a phase driver submits (an ``RR_CHUNK`` of index
  columns, one ``LOCAL_CHUNK`` or CCD batch, one component graph), or
  for RR's :class:`ContainmentStream` a ``LOCAL_CHUNK`` of the pairs
  its sweeps left to the DP, cut in submission order, so every backend
  runs the same task bodies.
* :class:`Backend` makes ``alignment_stream``, ``containment_stream``
  and ``map_components`` concrete over the hooks an executor
  (:class:`~repro.runtime.serial.SerialBackend`,
  :class:`~repro.runtime.process.ProcessBackend`) implements:
  ``_dispatch``, ``_pump`` and ``_throttle`` (hold the next task until
  a worker is free).

**Result invariance.**  For a fixed configuration, ``families`` and the
Table I row are bit-identical across backends: RR and bipartite align a
deterministic pair set with order-independent decisions, the CCD
transitive-closure filter only ever skips pairs that are already
intra-component, and all collected edge/verdict sets are canonically
sorted before use.
"""

from __future__ import annotations

import abc
import contextlib
import functools
import multiprocessing
import os
import platform
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.align.batch import align_columns, containment_dp, containment_prefilter
from repro.pace.densesub import shingle_component
from repro.runtime.sharedseq import EncodedStore
from repro.suffix.suffix_array import GeneralizedSuffixArray
from repro.util.timing import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.align.matrices import ScoringScheme
    from repro.graph.bipartite import BipartiteGraph
    from repro.sequence.record import SequenceSet
    from repro.shingle.algorithm import ShingleParams

#: A task's completion callback: ``sink(result, busy_seconds)``.
Sink = Callable[[object, float], None]

class BackendError(RuntimeError):
    """A backend failed to execute work."""


class WorkerCrashError(BackendError):
    """A worker process raised or died; the master surfaces it cleanly."""


def run_task(body: tuple, store: EncodedStore, scheme: "ScoringScheme"):
    """Compute one task — the only statement of the runtime's work.

    * ``("local", ia, ib)`` → the ``(k, 8)`` int64 table of local
      alignments, one row per pair
      (:func:`~repro.align.batch.align_columns`);
    * ``("contain", similarity, coverage, ia, ib)`` → the one Myers
      sweep of :func:`~repro.align.batch.containment_prefilter`: the
      ``(k, 3)`` float64 rows ``(identity, coverage_i, coverage_j)`` of
      the pairs it decides, a NaN row for each pair it leaves to the DP;
    * ``("contain_dp", ia, ib)`` → the ``(k, 3)`` rows of those pairs,
      each measured by the semiglobal DP
      (:func:`~repro.align.batch.containment_dp`);
    * ``("shingle", graph, reduction, params, min_size, tau)`` → the
      component's families, the ``finals`` list of
      :func:`~repro.pace.densesub.shingle_component`.

    A pair task's pairs are ``(ia[r], ib[r])``, two int64 columns of
    global sequence indices into ``store``, which every pair kind hands
    the engine as they are: no list of pairs is built, and a pair task
    answers one array, the one object a worker pickles back.  Its one
    caller is :func:`execute`, so a task's result cannot depend on where
    it ran.
    """
    kind = body[0]
    if kind == "local":
        _, ia, ib = body
        return align_columns(store, ia, ib, scheme=scheme, mode="local")
    if kind == "contain":
        _, similarity, coverage, ia, ib = body
        prefilter = containment_prefilter(
            store, ia, ib, scheme=scheme, similarity=similarity, coverage=coverage
        )
        prefilter.stats[prefilter.undecided] = np.nan
        return prefilter.stats
    if kind == "contain_dp":
        _, ia, ib = body
        return containment_dp(store, ia, ib, None, scheme)
    if kind == "shingle":
        return shingle_component(*body[1:])
    raise ValueError(f"unknown task kind {kind!r}")


def task_span(body: tuple, **args: object):
    """A task's span on every backend: ``shingle.component`` with
    ``left=``, else ``align.<kind>`` with ``pairs=`` (``np.size``, so a
    malformed body still reaches :func:`run_task`'s ``ValueError``)."""
    if body[0] == "shingle":
        return obs.span("shingle.component", cat="task", left=body[1].n_left, **args)
    return obs.span(f"align.{body[0]}", cat="task", pairs=np.size(body[-1]), **args)


def execute(body: tuple, store: EncodedStore, scheme: "ScoringScheme", *,
            lane: int = obs.MASTER_LANE, **span_args: object) -> tuple[object, float]:
    """Run one task here under its :func:`task_span` on ``lane``:
    ``(result, seconds)``.  Every executor runs a task through this one
    function, so every backend spans and times a task alike."""
    start = monotonic_now()
    with task_span(body, lane=lane, **span_args):
        result = run_task(body, store, scheme)
    return result, monotonic_now() - start


@dataclass
class PhaseStats:
    """Measured execution statistics for one pipeline phase.

    ``tasks`` counts units of dispatched work — the pairs a phase
    submitted to be aligned, or component graphs sent to Shingle — on
    every backend.  ``busy_seconds`` is the summed compute time of the
    dispatched work, so ``busy / (wall * workers)`` is the classic
    utilisation figure.

    A plain record the backend fills in as it goes, not a view of the
    run's recorder: a phase function can be called with no recorder
    installed (the benchmark suite replays the phases that way) and
    must still say what it did.
    """

    name: str
    wall_seconds: float = 0.0
    tasks: int = 0
    busy_seconds: float = 0.0

    def utilization(self, workers: int) -> float:
        if self.wall_seconds <= 0.0 or workers <= 0:
            return 0.0
        return min(self.busy_seconds / (self.wall_seconds * workers), 1.0)


@dataclass
class RuntimeStats:
    """Measured wall-clock seconds and work of one backend run, per phase."""

    backend: str
    workers: int
    phases: dict[str, PhaseStats] = field(default_factory=dict)

    @property
    def total_wall(self) -> float:
        return sum(p.wall_seconds for p in self.phases.values())

    def utilization(self) -> float:
        """Busy-time fraction over all phases (1.0 = perfectly packed)."""
        wall = self.total_wall
        if wall <= 0.0 or self.workers <= 0:
            return 0.0
        busy = sum(p.busy_seconds for p in self.phases.values())
        return min(busy / (wall * self.workers), 1.0)


class PairStream:
    """The master side of a pair phase: index columns in, tasks out,
    results back.

    The master submits global index columns ``(ia, ib)``; each pair comes
    back exactly once through :meth:`ready` (non-blocking) or
    :meth:`drain` (blocking flush), canonical (``ia[r] < ib[r]``), in
    one ``(ia, ib, results)`` triple per task, the triples in an
    unspecified order.  ``results`` is an array with a row per pair: the
    ``(k, 8)`` int64 alignment table for ``kind`` ``"local"``
    (:func:`~repro.align.batch.align_columns`), and for ``"contain"``
    (:class:`ContainmentStream`) the ``(k, 3)`` float64 rows of
    Definition 1's ``(identity, coverage_i, coverage_j)``.  The RR and
    bipartite drivers interleave :meth:`submit_columns` with ``ready``
    so verdicts are absorbed while tasks are out; the CCD driver submits
    a batch and drains it.

    Every pair of one :meth:`submit_columns` call is work, and the call
    is one task (RR's also leaves its undecided pairs to the stream's own
    DP tasks); no stream keeps a result for a later submit.  RR's
    containment stream never reads the traceback, which is what lets
    the containment engine answer a pair *proven* unable to pass with
    ``(0.0, 0.0, 0.0)`` and no alignment at all.
    """

    def __init__(self, backend: "Backend", stream_id: int, kind: str,
                 params: tuple = ()):
        self._backend = backend
        self.stream_id = stream_id
        self.kind = kind
        self._params = params
        self._phase = backend._phase_stats()
        self._done: list[tuple[np.ndarray, np.ndarray, object]] = []
        self.in_flight = 0
        obs.gauge(f"stream.{stream_id}.kind", kind)

    def submit_columns(self, ia: np.ndarray, ib: np.ndarray) -> None:
        """Request results for the pairs ``(ia[r], ib[r])``: one task."""
        ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
        ia, ib = np.minimum(ia, ib), np.maximum(ia, ib)
        self._phase.tasks += len(ia)
        if not len(ia):
            return
        obs.count("runtime.batch_pairs", len(ia))
        self._send((self.kind, *self._params, ia, ib), self._sink(ia, ib))

    def _send(self, body: tuple, sink: Sink) -> None:
        """Dispatch one task of this stream once a worker is free."""
        self._backend._throttle()
        self.in_flight += 1
        obs.gauge(f"stream.{self.stream_id}.in_flight", self.in_flight)
        self._backend._dispatch(body, sink)

    def _sink(self, ia: np.ndarray, ib: np.ndarray) -> Sink:
        """The sink of a submitted task."""
        return functools.partial(self._absorb, ia, ib)

    def _absorb(self, ia: np.ndarray, ib: np.ndarray, results, busy: float) -> None:
        """A task's sink, or the part of it that hands over verdicts —
        called exactly once per dispatched task, wherever it ended up
        running."""
        self.in_flight -= 1
        obs.gauge(f"stream.{self.stream_id}.in_flight", self.in_flight)
        self._phase.busy_seconds += busy
        obs.count(f"runtime.pairs_done.{self._phase.name}", len(ia))
        if len(ia):
            self._done.append((ia, ib, results))

    def _advance(self, *, final: bool) -> None:
        """Dispatch the work the stream itself owes after results came
        back (``final``: the master is draining).  Nothing for a stream
        whose every task is a submit."""

    def ready(self) -> list[tuple[np.ndarray, np.ndarray, object]]:
        """Completed results available now, without blocking."""
        self._backend._pump(block=False)
        self._advance(final=False)
        out, self._done = self._done, []
        return out

    def drain(self) -> Iterator[tuple[np.ndarray, np.ndarray, object]]:
        """Flush: block until every submitted pair has a result."""
        self._advance(final=True)
        while self.in_flight > 0:
            self._backend._pump(block=True)
            self._advance(final=True)
        yield from self.ready()


class ContainmentStream(PairStream):
    """RR's stream: Definition 1 statistics in two stages.

    A submit is one ``"contain"`` task, the Myers sweep alone
    (:func:`~repro.align.batch.containment_prefilter`): the rows it
    decides come back as that task's triple, and the pairs it leaves to
    the DP (its NaN rows) join one queue in submission order — a sweep's
    rows only once every earlier sweep is back.  The stream cuts the
    queue into ``("contain_dp", ia, ib)`` tasks of exactly ``dp_chunk``
    pairs, and sends the remainder when the master drains, so the DP
    task bodies depend on what was submitted, never on which sweep
    finished first, and each DP call is as wide as the local ones
    instead of a sweep's few leftovers.

    The DP tasks are the stream's own work, not submits: ``tasks``,
    ``runtime.batch_pairs`` and ``runtime.pairs_done.*`` count each
    submitted pair once, the last when its verdict is back.
    """

    def __init__(self, backend: "Backend", stream_id: int, params: tuple,
                 dp_chunk: int):
        super().__init__(backend, stream_id, "contain", params)
        self._dp_chunk = dp_chunk
        self._sweeps = 0
        self._queued_sweeps = 0
        self._swept: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._queue = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def _sink(self, ia: np.ndarray, ib: np.ndarray) -> Sink:
        self._sweeps += 1
        return functools.partial(self._sweep_back, self._sweeps - 1, ia, ib)

    def _sweep_back(self, sweep: int, ia: np.ndarray, ib: np.ndarray,
                    stats: np.ndarray, busy: float) -> None:
        """A sweep's sink: its decided rows are done; its undecided
        pairs wait for the earlier sweeps, then join the queue."""
        undecided = np.isnan(stats[:, 0])
        decided = ~undecided
        self._absorb(ia[decided], ib[decided], stats[decided], busy)
        self._swept[sweep] = (ia[undecided], ib[undecided])
        while self._queued_sweeps in self._swept:
            a, b = self._swept.pop(self._queued_sweeps)
            self._queued_sweeps += 1
            self._queue = (np.concatenate((self._queue[0], a)),
                           np.concatenate((self._queue[1], b)))

    def _advance(self, *, final: bool) -> None:
        """Send the queue's full ``dp_chunk`` tasks, and with ``final``,
        once every sweep is back, its remainder too.  A send may take
        sweeps back (the throttle pumps), so the queue is re-read after
        each."""
        while True:
            queued = len(self._queue[0])
            last = final and self._queued_sweeps == self._sweeps
            if queued < self._dp_chunk and not (last and queued):
                return
            take = min(queued, self._dp_chunk)
            a, b = self._queue[0][:take], self._queue[1][:take]
            self._queue = (self._queue[0][take:], self._queue[1][take:])
            self._send(("contain_dp", a, b), functools.partial(self._absorb, a, b))


class Backend(abc.ABC):
    """An executor for the runtime's tasks.

    Lifecycle::

        backend = ProcessBackend(workers=4)
        with backend.session(sequences, scheme):
            stream = backend.alignment_stream()
            ...
        backend.stats  # RuntimeStats, populated per phase

    A subclass implements :meth:`_dispatch`; one whose tasks outlive it
    also extends :meth:`open` / :meth:`close` (pools), places the
    session's store where its tasks run (:meth:`_make_store`) and
    implements :meth:`_pump` and :meth:`_throttle`.
    """

    name: str = "abstract"
    workers: int = 1

    def __init__(self) -> None:
        self.stats = RuntimeStats(backend=self.name, workers=self.workers)
        self._current_phase: PhaseStats | None = None
        self._store: EncodedStore | None = None
        self._scheme: "ScoringScheme | None" = None
        self._encoded: "list[np.ndarray]" = []
        self._index: GeneralizedSuffixArray | None = None
        self._next_stream_id = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self, sequences: "SequenceSet", scheme: "ScoringScheme") -> None:
        """Bind the backend to a sequence set."""
        self._encoded = [record.encoded for record in sequences]
        self._store = self._make_store(self._encoded)
        self._scheme = scheme

    def _make_store(self, encoded: "list[np.ndarray]") -> EncodedStore:
        """The session's encoded store: a private one in this process."""
        return EncodedStore.from_sequences(encoded)

    def close(self) -> None:
        """Release every resource; idempotent."""
        if self._store is not None:
            self._store.close()
        self._encoded, self._store, self._index = [], None, None

    @contextlib.contextmanager
    def session(self, sequences: "SequenceSet", scheme: "ScoringScheme"):
        self.open(sequences, scheme)
        try:
            yield self
        finally:
            self.close()

    def _require_open(self) -> None:
        if self._store is None:
            raise BackendError("backend is not open (use session())")

    @property
    def index(self) -> GeneralizedSuffixArray:
        """The string index over the session's sequences, which every
        pair phase reads whole (CCD and B_d mask its match stream to
        their sub-collections).  Built on first use — in
        the first pair phase's span, after an executor has forked its
        workers, never in a session without a pair phase (a resumed
        run) — and dropped on close."""
        self._require_open()
        if self._index is None:
            self._index = GeneralizedSuffixArray(self._encoded)
        return self._index

    # -- phase bookkeeping -------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record wall-clock time of a pipeline phase under ``name``.

        Besides the backend's own :class:`PhaseStats`, the interval is
        mirrored as a phase span on the ambient :mod:`repro.obs`
        recorder (when one is installed), so backend runs and serial
        runs share one timeline vocabulary.
        """
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

    # -- executor hooks ----------------------------------------------------

    @abc.abstractmethod
    def _dispatch(self, body: tuple, sink: Sink) -> None:
        """Have ``execute(body, ...)`` run somewhere and arrange
        for ``sink(result, busy_seconds)`` to be called exactly once,
        on the master, with what it returned."""

    def _pump(self, *, block: bool) -> None:
        """Deliver finished tasks to their sinks; with ``block``, wait
        for at least one while any is outstanding.  Nothing to do for
        an executor that completes every task inside ``_dispatch``."""

    def _throttle(self) -> None:
        """Hold the master until the next task can start (called before
        every dispatch).  Nothing to do for an executor that completes
        every task inside ``_dispatch``."""

    # -- work primitives ---------------------------------------------------

    def _open_stream(self, cls: type[PairStream], *args) -> PairStream:
        self._require_open()
        stream = cls(self, self._next_stream_id, *args)
        self._next_stream_id += 1
        return stream

    def alignment_stream(self) -> PairStream:
        """Open a stream of local alignments."""
        return self._open_stream(PairStream, "local")

    def containment_stream(self, *, similarity: float, coverage: float,
                           dp_chunk: int) -> ContainmentStream:
        """Open a Definition 1 statistics stream for the RR phase.

        Its tasks run the column containment engine over the session's
        store in two stages (:class:`ContainmentStream`): a submit is
        one Myers sweep, whose ``similarity``/``coverage`` parameterise
        its sound rejection threshold, and the pairs no sweep decides
        are aligned in DP tasks of ``dp_chunk`` pairs.  Decisions are
        provably identical to a full semiglobal DP per pair.
        """
        return self._open_stream(ContainmentStream, (similarity, coverage), dp_chunk)

    def map_components(
        self,
        graphs: Sequence["BipartiteGraph"],
        reduction: str,
        params: "ShingleParams",
        min_size: int,
        tau: float,
    ) -> list[list[tuple[int, ...]]]:
        """Run the Shingle phase over independent component graphs.

        Returns one ``finals`` list (the component's families) per
        graph, in input order (components are independent, so any
        execution order gives identical results).  Graphs are dispatched
        largest first (most edges, ties by index), so the longest task
        does not start last.
        """
        self._require_open()
        phase = self._phase_stats()
        results: dict[int, list] = {}

        def sink(index: int, result: list, busy: float) -> None:
            results[index] = result
            phase.busy_seconds += busy

        obs.count("runtime.shingle_jobs", len(graphs))
        for index in sorted(range(len(graphs)), key=lambda k: (-graphs[k].n_edges, k)):
            phase.tasks += 1
            self._throttle()
            self._dispatch(
                ("shingle", graphs[index], reduction, params, min_size, tau),
                functools.partial(sink, index),
            )
        while len(results) < len(graphs):
            self._pump(block=True)
        return [results[index] for index in range(len(graphs))]


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
