"""Span/Counter/Event primitives and the :class:`Recorder` behind them.

One observability vocabulary for every execution backend: the serial
reference and the worker-process backend both talk to a
:class:`Recorder` through the ambient helpers (:func:`count`,
:func:`span`, :func:`event`), which are no-ops when no recorder is
installed — instrumented library code never pays for observability it
did not ask for, and never needs a recorder argument threaded through.

Timeline model (mirrors Chrome's ``trace_event`` terminology): every
span and event is measured wall-clock time on one host, and its **lane**
is a Chrome ``tid`` — lane 0 is the master, lane ``w + 1`` is worker
``w``.

Safety contract:

* **thread-safe** — every mutation takes the recorder lock, so a
  threaded backend may count/span concurrently with the master;
* **process-safe by message passing** — worker processes never share a
  recorder; they record into a private :class:`Recorder` and ship its
  :meth:`Recorder.wall_spans` buffer and counter snapshot back with
  their result batch, which the master merges via
  :meth:`Recorder.absorb_wall_spans` / :meth:`Recorder.merge_counts`.
  Worker spans are projected onto the host wall-clock axis (comparable
  across processes on one host) and rebased onto the master's epoch;
  both conversions go through one explicit :class:`repro.obs.clock.
  ClockSync` per recorder, which documents and bounds the skew.

Besides counters (accumulating) the recorder holds **gauges**: named
last-value-wins readings (current phase, queue depth, worker heartbeat
times) that the :mod:`repro.obs.telemetry` sampler snapshots
periodically.  Gauges never enter the scientific-counter contract.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field

from repro.obs.clock import ClockSync
from repro.util.lockwatch import named_lock

#: The master's lane ("tid").
MASTER_LANE = 0


def _freeze_args(args: dict[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(args.items()))


@dataclass(frozen=True)
class Span:
    """One closed interval of work on a lane's timeline; ``start`` and
    ``end`` are seconds since the recorder epoch."""

    name: str
    cat: str
    start: float
    end: float
    lane: int = MASTER_LANE
    args: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Event:
    """One instantaneous occurrence on a lane's timeline."""

    name: str
    cat: str
    ts: float
    lane: int = MASTER_LANE
    args: tuple[tuple[str, object], ...] = ()


class Counter:
    """Handle onto one named counter of a :class:`Recorder`.

    A convenience for hot loops that would otherwise repeat the name
    lookup; ``Counter.add`` and ``Recorder.count`` are interchangeable.
    """

    __slots__ = ("name", "_recorder")

    def __init__(self, recorder: "Recorder", name: str):
        self.name = name
        self._recorder = recorder

    def add(self, n: int | float = 1) -> None:
        self._recorder.count(self.name, n)

    @property
    def value(self) -> float:
        return self._recorder.value(self.name)


@dataclass
class Recorder:
    """Thread-safe sink for spans, counters, and events of one run."""

    meta: dict[str, object] = field(default_factory=dict)
    """Free-form run description (mode, workers, config digest, ...)."""

    def __post_init__(self) -> None:
        self._lock = named_lock("Recorder._lock")
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, object] = {}
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.clock = ClockSync.capture()

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this recorder was created (monotonic)."""
        return self.clock.now()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_max(self, name: str, value: int | float) -> None:
        """Record a high-water mark: ``name`` becomes max(current, value)."""
        with self._lock:
            current = self._counters.get(name)
            if current is None or value > current:
                self._counters[name] = value

    def value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def counter(self, name: str) -> Counter:
        return Counter(self, name)

    def counters(self) -> dict[str, float]:
        """Name-sorted snapshot of every counter."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def merge_counts(self, counts: dict[str, float]) -> None:
        """Fold a worker's counter snapshot into this recorder."""
        with self._lock:
            for name, n in counts.items():
                self._counters[name] = self._counters.get(name, 0) + n

    # -- gauges ------------------------------------------------------------

    def gauge(self, name: str, value: object) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge_value(self, name: str, default: object = None) -> object:
        with self._lock:
            return self._gauges.get(name, default)

    def gauges(self) -> dict[str, object]:
        """Name-sorted snapshot of every gauge."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    # -- spans and events --------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "phase",
             lane: int = MASTER_LANE, **args: object):
        """Record the enclosed block as one span.

        Phase-category spans also drive the live ``phase``/
        ``phase.start`` gauges while they are open, so the telemetry
        sampler can report which phase a running pipeline is in.
        """
        start = self.now()
        if cat == "phase":
            self.gauge("phase", name)
            self.gauge("phase.start", start)
        try:
            yield self
        finally:
            self.add_span(name, cat, start, self.now(), lane=lane, **args)
            if cat == "phase" and self.gauge_value("phase") == name:
                self.gauge("phase", "")

    def add_span(self, name: str, cat: str, start: float, end: float, *,
                 lane: int = MASTER_LANE, **args: object) -> None:
        """Record a span with explicit epoch-relative timestamps."""
        record = Span(name=name, cat=cat, start=start, end=end,
                      lane=lane, args=_freeze_args(args))
        with self._lock:
            self.spans.append(record)

    def event(self, name: str, cat: str = "event", *,
              lane: int = MASTER_LANE, **args: object) -> None:
        record = Event(name=name, cat=cat, ts=self.now(),
                       lane=lane, args=_freeze_args(args))
        with self._lock:
            self.events.append(record)

    # -- cross-process shipping --------------------------------------------

    def wall_spans(self) -> list[tuple[str, str, float, float, tuple]]:
        """This recorder's spans as wall-clock tuples, args kept, for
        shipping to another process (the worker half of the protocol)."""
        to_wall = self.clock.to_wall
        with self._lock:
            return [
                (s.name, s.cat, to_wall(s.start), to_wall(s.end), s.args)
                for s in self.spans
            ]

    def absorb_wall_spans(self, spans: list[tuple[str, str, float, float, tuple]],
                          *, lane: int) -> None:
        """Rebase wall-clock span tuples from a worker onto this
        recorder's epoch, placing them in the given lane.

        The rebase goes through the recorder's :class:`ClockSync`; a
        span that started during worker spin-up may land marginally
        before this recorder's epoch (bounded pairing skew, see
        :mod:`repro.obs.clock`), which is preserved here — duration
        math must not be distorted — and clamped at export time.
        """
        from_wall = self.clock.from_wall
        rebased = [
            Span(name=name, cat=cat, start=from_wall(start),
                 end=from_wall(end), lane=lane, args=args)
            for name, cat, start, end, args in spans
        ]
        with self._lock:
            self.spans.extend(rebased)

    # -- derived views -----------------------------------------------------

    def phase_seconds(self) -> dict[str, float]:
        """Summed wall seconds per phase-category span name, in first-seen
        order — the unified successor of per-mode timing structs."""
        out: dict[str, float] = {}
        with self._lock:
            for s in self.spans:
                if s.cat == "phase":
                    out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def lane_busy_seconds(self) -> dict[int, float]:
        """Summed non-phase busy seconds per lane (worker rollup)."""
        out: dict[int, float] = {}
        with self._lock:
            for s in self.spans:
                if s.cat != "phase":
                    out[s.lane] = out.get(s.lane, 0.0) + s.duration
        return out


# ---------------------------------------------------------------------------
# The ambient recorder: instrumentation points call these module helpers,
# which no-op unless a recorder is installed via recording().
#
# Two installation scopes compose here.  recording() installs a recorder
# process-wide (the batch pipeline: one run, one recorder, every thread
# reports into it).  request_recording() installs a recorder for the
# *current thread only* — the serving daemon gives each in-flight
# request a private child recorder on whichever thread is advancing it
# (connection thread, then the applier thread), without hijacking the
# ambient sink of every other connection.  Resolution order is
# thread-local first, then the process-wide recorder.
# ---------------------------------------------------------------------------

_active: Recorder | None = None
_thread_active = threading.local()


def active() -> Recorder | None:
    """The currently installed recorder, or None.

    A thread-local override (see :func:`request_recording`) wins over
    the process-wide recorder installed by :func:`recording`.
    """
    recorder = getattr(_thread_active, "recorder", None)
    if recorder is not None:
        return recorder
    return _active


@contextlib.contextmanager
def recording(recorder: Recorder):
    """Install ``recorder`` as the ambient sink for the enclosed block.

    Nests: the previous recorder (if any) is restored on exit.
    """
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous


@contextlib.contextmanager
def request_recording(recorder: Recorder):
    """Thread-locally route the ambient helpers to ``recorder``.

    Only the calling thread is redirected; every other thread keeps
    resolving to the process-wide recorder.  Nests within one thread
    (the previous thread-local override is restored on exit), and a
    request context can be re-installed on a different thread — that is
    how an insert's spans follow the job across the connection thread /
    applier thread hand-off.
    """
    previous = getattr(_thread_active, "recorder", None)
    _thread_active.recorder = recorder
    try:
        yield recorder
    finally:
        _thread_active.recorder = previous


def count(name: str, n: int | float = 1) -> None:
    recorder = active()
    if recorder is not None:
        recorder.count(name, n)


def set_max(name: str, value: int | float) -> None:
    recorder = active()
    if recorder is not None:
        recorder.set_max(name, value)


def gauge(name: str, value: object) -> None:
    recorder = active()
    if recorder is not None:
        recorder.gauge(name, value)


def heartbeat(worker_index: int, busy: float | None = None) -> None:
    """Mark worker ``worker_index`` as alive now (per task: the serial
    backend's master is worker 0); ``busy`` adds to the worker's
    per-lane busy-seconds counter, from which ``repro top`` derives the
    lane's busy fraction."""
    recorder = active()
    if recorder is None:
        return
    recorder.gauge(f"worker.{worker_index}.last_seen", recorder.now())
    recorder.count("runtime.heartbeats")
    if busy:
        recorder.count(f"runtime.worker.{worker_index}.busy_seconds", busy)


def event(name: str, cat: str = "event", **args: object) -> None:
    recorder = active()
    if recorder is not None:
        recorder.event(name, cat, **args)


@contextlib.contextmanager
def span(name: str, cat: str = "phase", lane: int = MASTER_LANE,
         **args: object):
    recorder = active()
    if recorder is None:
        yield None
        return
    with recorder.span(name, cat=cat, lane=lane, **args):
        yield recorder
