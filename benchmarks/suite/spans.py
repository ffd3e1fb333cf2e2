"""Spans recorded by the benchmark around its calls into each layer.

Nothing inside ``src/`` is touched: a span is opened here, by the
benchmark, at each layer boundary it calls through, kept in memory, and
written out when the run ends.  Only the traced pass records spans; the
end-to-end metrics are measured with tracing off.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.util.timing import monotonic_now


class Tracer:
    """Span tree of one thread of the benchmark.

    A span carries its name, start, end, the span that caused it
    (``parent``) and any counts taken at the same boundary.  Spans of
    one request (or one pipeline repetition) share ``trace``.
    """

    def __init__(self, thread: str = "main"):
        self.thread = thread
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str = "", **counts: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "thread": self.thread,
            "trace": trace,
            "name": name,
            "start": monotonic_now(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = monotonic_now()
            self._stack.pop()

    def add(self, name: str, trace: str, start: float, end: float,
            **counts: Any) -> None:
        """Record a leaf span that was timed by the caller."""
        self.spans.append({
            "id": len(self.spans), "parent": None, "thread": self.thread,
            "trace": trace, "name": name, "start": start, "end": end,
            "counts": counts,
        })

    def self_seconds(self, span: dict[str, Any]) -> float:
        """Duration minus the part its child spans cover."""
        children = sum(
            duration(s) for s in self.spans if s["parent"] == span["id"]
        )
        return duration(span) - children


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def span_cost_seconds(n: int = 20000) -> float:
    """What one empty span costs, measured on a throw-away tracer."""
    tracer = Tracer("calibration")
    start = monotonic_now()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (monotonic_now() - start) / n


def write_trace(path: Path, tracers: Sequence[Tracer], **header: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [span for tracer in tracers for span in tracer.spans]
    path.write_text(json.dumps({**header, "spans": spans}, indent=1) + "\n",
                    encoding="ascii")


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}
