"""Request-scoped tracing: one id + one child recorder per request.

The serving daemon handles many concurrent requests on many threads,
and an insert even migrates threads mid-request (connection thread ->
applier thread).  A single shared recorder cannot attribute spans or
counters to an individual request, so each request gets a
:class:`RequestContext`:

* a **monotonic request id**, unique for the daemon's lifetime, carried
  in the slow-request log so a span tree can be tied back to a wire
  exchange;
* a **connection lane** — the Chrome-trace ``tid`` the request's spans
  land on when they are absorbed into the daemon recorder, mirroring
  PR 2's worker-span shipping (lane 0 stays the daemon master);
* a private **child recorder** that the ambient obs helpers resolve to
  (via the thread-local override, :func:`repro.obs.core.
  request_recording`) on whichever thread is currently advancing the
  request, so instrumented library code (``incremental.py``, the cache,
  the representative index) needs no request plumbing.

Lifecycle: the server builds a context per received line, installs it
around parsing/dispatch/ack, then calls :meth:`finish_into_parent` —
counters and gauges always merge into the daemon recorder (cheap,
bounded), while the span tree is only absorbed for *slow* requests
(tail sampling: a long-lived daemon must not accumulate every
request's spans in memory).
"""

from __future__ import annotations

import itertools

from repro.obs.core import MASTER_LANE, Recorder, request_recording
from repro.util.lockwatch import named_lock

_ids = itertools.count(1)
_ids_lock = named_lock("request._ids_lock")


def next_request_id() -> int:
    """Process-wide monotonic request id (1-based)."""
    with _ids_lock:
        return next(_ids)


class RequestContext:
    """Identity + private recorder for one in-flight serve request."""

    __slots__ = ("request_id", "parent", "lane", "op", "recorder",
                 "_duration")

    def __init__(self, parent: Recorder, *, lane: int = MASTER_LANE,
                 op: str = ""):
        self.request_id = next_request_id()
        self.parent = parent
        self.lane = lane
        #: Wire verb, set once the request parses ("" until then; the
        #: server attributes unparseable lines to a "rejected" pseudo-verb).
        self.op = op
        self.recorder = Recorder(meta={"request_id": self.request_id})
        self._duration: float | None = None

    # -- installation ------------------------------------------------------

    def install(self):
        """Context manager routing this thread's ambient obs calls to
        the request's child recorder (thread-local, re-installable on
        another thread for cross-thread hand-offs)."""
        return request_recording(self.recorder)

    def stage(self, name: str):
        """Record the enclosed block as one ``cat="stage"`` span of the
        request (parse / candidates / myers_reject / dp / journal_fsync
        / ack)."""
        return self.recorder.span(name, cat="stage")

    # -- derived views -----------------------------------------------------

    def duration(self) -> float:
        """Seconds since the request context was created; frozen by the
        first :meth:`finish_into_parent` call."""
        if self._duration is not None:
            return self._duration
        return self.recorder.now()

    def stage_seconds(self) -> dict[str, float]:
        """Summed seconds per stage span, in first-seen order."""
        out: dict[str, float] = {}
        for s in list(self.recorder.spans):
            if s.cat == "stage":
                out[s.name] = out.get(s.name, 0.0) + s.duration
        return out

    def span_records(self) -> list[dict]:
        """The span tree as JSON-ready rows (ms relative to request
        start, plus the span's ``args`` where it has any — the batch
        size of a sweep stage) — the slow-log payload."""
        return [
            {
                "name": s.name,
                "cat": s.cat,
                "start_ms": round(s.start * 1e3, 4),
                "dur_ms": round(s.duration * 1e3, 4),
                **({"args": dict(s.args)} if s.args else {}),
            }
            for s in list(self.recorder.spans)
        ]

    # -- completion --------------------------------------------------------

    def finish_into_parent(self) -> float:
        """Freeze the request duration and merge the child's counters
        and gauges into the parent recorder; returns the duration.

        Spans are *not* merged here — the server absorbs them onto the
        connection lane only for slow requests (tail sampling), via
        ``parent.absorb_wall_spans(ctx.recorder.wall_spans(),
        lane=ctx.lane)``.
        """
        if self._duration is None:
            self._duration = self.recorder.now()
            self.parent.merge_counts(self.recorder.counters())
            for name, value in self.recorder.gauges().items():
                self.parent.gauge(name, value)
        return self._duration
