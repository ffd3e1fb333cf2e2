"""Exporters: Chrome ``trace_event`` JSON and the run record.

The trace format is the stable subset documented for ``chrome://tracing``
and Perfetto: an object with a ``traceEvents`` array of complete-duration
events (``ph: "X"``, microsecond ``ts``/``dur``), instant events
(``ph: "i"``) and metadata events (``ph: "M"``) naming the process and
threads.  Every recorded span is measured wall-clock time on one host,
so a trace has one pid, :data:`HOST_TRACK`; recorder lanes map to tids,
so a ``repro profile`` trace opens directly in https://ui.perfetto.dev
with master and worker activity on separate rows.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.clock import clamp_rebased
from repro.obs.core import MASTER_LANE, Recorder
from repro.obs.registry import scientific_view
from repro.obs.telemetry import read_records

#: Version tag of the run record (:func:`counters_payload`).
RUN_SCHEMA = "repro-run/1"

#: The Chrome-trace "pid" of every exported span and event.
HOST_TRACK = 1


def _lane_name(lane: int) -> str:
    return "master" if lane == MASTER_LANE else f"worker {lane - 1}"


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace_events(recorder: Recorder) -> list[dict]:
    """The recorder's spans/events as a ``traceEvents`` array."""
    events: list[dict] = []
    lanes: set[int] = set()
    for s in recorder.spans:
        lanes.add(s.lane)
        events.append({
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            # Rebased worker spans may carry bounded negative skew
            # (repro.obs.clock); the timeline position is clamped while
            # the duration uses the unclamped endpoints.
            "ts": _us(clamp_rebased(s.start)),
            "dur": _us(max(s.duration, 0.0)),
            "pid": HOST_TRACK,
            "tid": s.lane,
            "args": dict(s.args),
        })
    for e in recorder.events:
        lanes.add(e.lane)
        events.append({
            "name": e.name,
            "cat": e.cat,
            "ph": "i",
            "s": "t",
            "ts": _us(e.ts),
            "pid": HOST_TRACK,
            "tid": e.lane,
            "args": dict(e.args),
        })
    meta: list[dict] = []
    if lanes:
        meta.append({
            "name": "process_name", "ph": "M", "pid": HOST_TRACK, "tid": 0,
            "args": {"name": "host (measured wall-clock)"},
        })
    for lane in sorted(lanes):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": HOST_TRACK, "tid": lane,
            "args": {"name": _lane_name(lane)},
        })
    return meta + events


def chrome_trace(recorder: Recorder) -> dict:
    """Full Chrome trace document, counters included as ``otherData``."""
    return {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {
            "meta": dict(recorder.meta),
            "counters": recorder.counters(),
        },
    }


def write_chrome_trace(recorder: Recorder, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(recorder)), encoding="ascii")
    return path


def counters_payload(recorder: Recorder) -> dict:
    """The run record — the one JSON document a run leaves behind and
    the regression gate (:mod:`repro.obs.regression`) diffs two of: the
    run's meta block, all counters, the scientific slice (the subset
    guaranteed identical across execution modes) and the measured
    seconds per phase."""
    counters = recorder.counters()
    return {
        "schema": RUN_SCHEMA,
        "meta": dict(recorder.meta),
        "counters": counters,
        "scientific": scientific_view(counters),
        "phase_seconds": recorder.phase_seconds(),
    }


def write_counters_json(recorder: Recorder, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(counters_payload(recorder), indent=1), encoding="ascii"
    )
    return path


# ---------------------------------------------------------------------------
# Slow requests -> Chrome trace (the `repro serve` tail-sampled spans).
# ---------------------------------------------------------------------------


def read_slow_log(path: str | Path) -> list[dict]:
    """The ``slow_request`` records of a daemon's telemetry stream
    (``<run_dir>/telemetry.jsonl``, or the run dir itself) — every
    daemon life the file holds, a SIGKILLed one included."""
    return [r for r in read_records(path) if r.get("type") == "slow_request"]


def slow_trace(records: list[dict]) -> dict:
    """Slow-request records as a Chrome trace document.

    Each record's spans carry request-relative millisecond offsets plus
    the request's wall-clock epoch; all requests are placed on one
    shared timeline (origin = earliest request) with one trace thread
    per connection lane, so a multi-connection burst opens in Perfetto
    with concurrent slow requests visibly overlapping.
    """
    events: list[dict] = []
    lanes: set[int] = set()
    origins = [r["wall"] for r in records
               if isinstance(r.get("wall"), (int, float))]
    origin = min(origins) if origins else 0.0
    for record in records:
        lane = int(record.get("lane", 0))
        lanes.add(lane)
        base = float(record.get("wall", origin)) - origin
        args = {"request_id": record.get("request_id"),
                "op": record.get("op")}
        for span in record.get("spans", []):
            events.append({
                "name": span["name"],
                "cat": span.get("cat", "stage"),
                "ph": "X",
                "ts": _us(base + span["start_ms"] / 1e3),
                "dur": _us(max(span["dur_ms"], 0.0) / 1e3),
                "pid": HOST_TRACK,
                "tid": lane,
                "args": {**args, **span.get("args", {})},
            })
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": HOST_TRACK, "tid": 0,
        "args": {"name": "serve daemon (slow requests)"},
    }]
    for lane in sorted(lanes):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": HOST_TRACK, "tid": lane,
            "args": {"name": f"connection lane {lane}"},
        })
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"slow_requests": len(records)},
    }


def write_slow_trace(log_path: str | Path, out_path: str | Path) -> Path:
    """Convert a daemon's slow requests into a Chrome trace file."""
    out_path = Path(out_path)
    document = slow_trace(read_slow_log(log_path))
    out_path.write_text(json.dumps(document), encoding="ascii")
    return out_path
