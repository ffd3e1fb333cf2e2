"""``repro top``: render a telemetry stream as a refreshing status screen.

One screen for every producer: a batch run's stream renders phase
progress, worker lanes, queues and counters; a ``repro serve``
daemon's (its samples carry a ``serve`` probe) renders the per-verb
latency table, stage shares, applier and request totals.  Works on
both ends of a process's life: attached to a *live*
``telemetry.jsonl`` it re-reads the file each refresh (the producer
flushes every line, so tailing the file is the whole protocol — no
socket, no signal handling, no shared state with the producing
process), and pointed at a *finished* file it renders the final state
once.  Because the file is the only coupling, a run that died without
an end record (SIGKILL, OOM) still renders — as a degraded view:
status "no end record", worker lanes whose heartbeats went stale
marked ``LOST``, and the last known queue/cache/counter state.

Rendering is pure (``render_screen`` returns lines for a parsed file),
so tests replay recorded files byte-for-byte; the refresh loop is the
only part that touches the terminal.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import IO

from repro.obs.progress import phase_progress
from repro.obs.telemetry import read_telemetry
from repro.util.timing import format_seconds

#: A heartbeat older than this many sampling intervals marks the lane
#: as stale; combined with a dead liveness probe it renders as LOST.
STALE_INTERVALS = 4.0

#: Never flag staleness under this age (seconds) — protects runs whose
#: task granularity is naturally coarser than the sampling interval.
MIN_STALE_AGE = 2.0

_BAR_WIDTH = 24


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = round(width * fraction)
    return f"|{'#' * filled:<{width}s}|"


def _busy_fraction(samples: list[dict], counter: str) -> float:
    """How much of the trailing window (the last 8 samples) a
    busy-seconds counter grew by, capped at 1."""
    window = samples[-8:]
    dt = window[-1]["t"] - window[0]["t"] if len(window) >= 2 else 0.0
    if dt <= 0:
        return 0.0
    grew = (window[-1].get("counters", {}).get(counter, 0.0)
            - window[0].get("counters", {}).get(counter, 0.0))
    return min(grew / dt, 1.0)


def _worker_indices(samples: list[dict], meta: dict | None) -> list[int]:
    """Every worker lane the run has mentioned, in index order."""
    indices: set[int] = set()
    for sample in samples:
        for name in sample.get("gauges", {}):
            if name.startswith("worker.") and name.endswith(".last_seen"):
                try:
                    indices.add(int(name.split(".")[1]))
                except ValueError:
                    continue
        runtime = sample.get("probes", {}).get("runtime") or {}
        for row in runtime.get("workers", []) or []:
            if isinstance(row, dict) and "index" in row:
                indices.add(int(row["index"]))
    if not indices and meta:
        workers = meta.get("meta", {}).get("workers")
        if isinstance(workers, int):
            indices.update(range(workers))
    return sorted(indices)


def _worker_rows(samples: list[dict], meta: dict | None) -> list[str]:
    last = samples[-1]
    now = last["t"]
    interval = float((meta or {}).get("interval") or 0.25)
    runtime_probe = last.get("probes", {}).get("runtime") or {}
    alive_by_index = {
        int(row["index"]): row
        for row in runtime_probe.get("workers", []) or []
        if isinstance(row, dict) and "index" in row
    }
    stale_after = max(STALE_INTERVALS * interval, MIN_STALE_AGE)
    rows = []
    for w in _worker_indices(samples, meta):
        busy_frac = _busy_fraction(samples, f"runtime.worker.{w}.busy_seconds")
        seen = last.get("gauges", {}).get(f"worker.{w}.last_seen")
        age = now - seen if isinstance(seen, (int, float)) else None
        probe_row = alive_by_index.get(w)
        dead = probe_row is not None and probe_row.get("alive") is False
        stale = age is None or age > stale_after
        if dead or (stale and probe_row is None and age is not None):
            state = "LOST"
        elif age is None:
            state = "idle"
        elif stale:
            state = "stale"
        else:
            state = "busy" if busy_frac > 0.05 else "idle"
        age_txt = f"{age:6.1f}s ago" if age is not None else "  never    "
        rows.append(
            f"  worker {w:<3d} {_bar(busy_frac)} {busy_frac:>4.0%} busy   "
            f"heartbeat {age_txt}  {state}"
        )
    return rows


def _stream_rows(last: dict) -> list[str]:
    gauges = last.get("gauges", {})
    rows = []
    for name in sorted(gauges):
        if not (name.startswith("stream.") and name.endswith(".in_flight")):
            continue
        stream_id = name.split(".")[1]
        kind = gauges.get(f"stream.{stream_id}.kind", "?")
        rows.append(
            f"  stream {stream_id} ({kind}): "
            f"{gauges[name]} batch(es) in flight"
        )
    outstanding = gauges.get("runtime.outstanding")
    if outstanding is not None:
        rows.append(f"  task queue: {outstanding} batch(es) outstanding")
    return rows


def render_screen(
    meta: dict | None,
    samples: list[dict],
    end: dict | None,
    *,
    live: bool = False,
) -> list[str]:
    """The full status screen for one parsed telemetry stream.

    Header, status and RSS are shared; the body follows what the last
    sample carries — a daemon's ``serve`` probe gets the SLO body
    (:func:`_serve_rows`), anything else the pipeline body
    (:func:`_pipeline_rows`).
    """
    if not samples:
        return ["repro top: no samples yet" if live else
                "repro top: telemetry file has no samples"]
    last = samples[-1]
    now = last["t"]
    run_meta = (meta or {}).get("meta", {})

    if end is not None:
        status = end.get("status", "finished")
        if status == "error":
            status = f"error ({end.get('error')})"
    elif live:
        status = "running"
    else:
        status = "no end record — run still live or died unreported"

    lines = [
        "repro top — "
        + " ".join(f"{k}={v}" for k, v in run_meta.items()),
        f"status: {status}   t={format_seconds(now)}   "
        f"samples={last.get('seq', len(samples))}",
    ]
    probe = last.get("probes", {}).get("serve")
    if probe is None:
        lines.extend(_pipeline_rows(meta, samples, end))
    else:
        lines.extend(_serve_rows(samples, probe))
    rss = last.get("rss_bytes")
    if rss:
        lines.append(f"  rss: {rss / (1024 * 1024):,.1f} MiB")
    return lines


def _pipeline_rows(
    meta: dict | None, samples: list[dict], end: dict | None
) -> list[str]:
    """A batch run's body: phase progress, workers, queues, counters."""
    last = samples[-1]
    lines = []
    progress = phase_progress(samples)
    if progress is not None:
        lines.append("")
        frac = progress.fraction if progress.fraction is not None else 0.0
        lines.append(f"phase {_bar(frac)} {progress.describe()}")
    elif end is None:
        lines.append("")
        lines.append("phase: (none active)")

    worker_rows = _worker_rows(samples, meta)
    if worker_rows:
        lines.append("")
        lines.append("workers:")
        lines.extend(worker_rows)

    stream_rows = _stream_rows(last)
    if stream_rows:
        lines.append("")
        lines.append("queues:")
        lines.extend(stream_rows)

    counters = last.get("counters", {})
    cache = last.get("probes", {}).get("cache") or {}
    lines.append("")
    lines.append("counters:")
    pair_bits = []
    for label, name in (
        ("pairs", "rr.pairs"), ("ccd pairs", "ccd.pairs"),
        ("filtered", "ccd.filtered"), ("bipartite", "bipartite.pairs"),
    ):
        if name in counters:
            pair_bits.append(f"{label}={int(counters[name]):,d}")
    if pair_bits:
        lines.append("  " + "  ".join(pair_bits))
    components = last.get("gauges", {}).get("ccd.components_now")
    if components is not None:
        lines.append(f"  union-find components: {int(components):,d}")
    recovery_bits = []
    for label, name in (
        ("requeued", "runtime.tasks_requeued"),
        ("respawns", "runtime.worker_respawns"),
        ("quarantined", "runtime.poison_quarantined"),
        ("faults", "faults.injected"),
    ):
        if counters.get(name):
            recovery_bits.append(f"{label}={int(counters[name]):,d}")
    if last.get("gauges", {}).get("runtime.degraded"):
        recovery_bits.append("DEGRADED(in-master)")
    if recovery_bits:
        lines.append("  recovery: " + "  ".join(recovery_bits))
    if isinstance(cache, dict) and "hit_rate" in cache:
        lines.append(
            f"  cache: {int(cache.get('entries', 0)):,d} entries, "
            f"{cache['hit_rate']:.1%} hit rate"
        )
    elif isinstance(cache, dict) and "error" in cache:
        lines.append(f"  cache: probe degraded ({cache['error']})")
    return lines


def _ms(value: object) -> str:
    """Format a millisecond reading from a metrics probe ('-' if absent
    or saturated into the histogram overflow bucket)."""
    if not isinstance(value, (int, float)) or value != value:
        return "      -"
    if value == float("inf"):
        return "   >1e5"
    if value >= 1000:
        return f"{value:7.0f}"
    return f"{value:7.2f}"


def _serve_rows(samples: list[dict], probe: dict) -> list[str]:
    """A daemon's body, from the last sample's ``serve`` probe (the
    :meth:`ServeServer.metrics_snapshot` payload) and its counters:
    per-verb request counts and p50/p99/p999 latency, per-verb stage
    time shares, insert-queue depth, the applier thread's busy fraction
    and the request totals."""
    last = samples[-1]
    if "error" in probe:
        return ["", f"metrics probe degraded ({probe['error']})"]
    lines = []
    percentiles = probe.get("percentiles") or {}
    if percentiles:
        lines.append("")
        lines.append(
            f"  {'verb':<14s} {'count':>8s} {'p50 ms':>7s} "
            f"{'p99 ms':>7s} {'p999 ms':>7s}"
        )
        for verb in sorted(percentiles):
            digest = percentiles[verb]
            lines.append(
                f"  {verb:<14s} {int(digest.get('count', 0)):>8,d} "
                f"{_ms(digest.get('p50_ms'))} {_ms(digest.get('p99_ms'))} "
                f"{_ms(digest.get('p999_ms'))}"
            )

    stage_seconds = probe.get("stage_seconds") or {}
    stage_rows = []
    for verb in sorted(stage_seconds):
        stages = {k: v for k, v in stage_seconds[verb].items() if v > 0}
        total = sum(stages.values())
        if total <= 0:
            continue
        shares = "  ".join(
            f"{name}={seconds / total:.0%}"
            for name, seconds in sorted(
                stages.items(), key=lambda kv: -kv[1]
            )
        )
        stage_rows.append(f"  {verb:<14s} {shares}")
    if stage_rows:
        lines.append("")
        lines.append("stage time shares:")
        lines.extend(stage_rows)

    busy_frac = _busy_fraction(samples, "serve.applier_busy_seconds")
    queue_depth = probe.get("queue_depth")
    if queue_depth is None:
        queue_depth = last.get("gauges", {}).get("serve.queue_depth", 0)
    lines.append("")
    lines.append(
        f"applier {_bar(busy_frac)} {busy_frac:>4.0%} busy   "
        f"insert queue: {int(queue_depth)} job(s)"
    )

    counters = last.get("counters", {})
    totals = (
        f"requests={int(counters.get('serve.requests', 0)):,d}  "
        f"errors={int(counters.get('serve.errors', 0)):,d}  "
        f"slow={int(counters.get('serve.slow_requests', 0)):,d}"
    )
    threshold = probe.get("slow_threshold_ms")
    if threshold is not None:
        totals += f" (>{threshold:g} ms)"
    lines.append(totals)
    return lines


def follow(
    path: str | Path,
    *,
    refresh: float = 0.5,
    stream: IO[str] | None = None,
    clear: bool = True,
    max_refreshes: int | None = None,
) -> int:
    """Refresh loop: re-read and re-render until an end record appears.

    Returns 0 on a finished run, 1 when the telemetry never produced a
    sample.  ``max_refreshes`` bounds the loop for tests and for
    attaching to a file that will never finish.
    """
    out = stream if stream is not None else sys.stdout
    refreshes = 0
    while True:
        meta, samples, end = read_telemetry(path)
        refreshes += 1
        done = end is not None or (
            max_refreshes is not None and refreshes >= max_refreshes
        )
        try:
            if clear and out.isatty():  # pragma: no cover - terminal only
                out.write("\x1b[2J\x1b[H")
            for line in render_screen(meta, samples, end, live=end is None):
                out.write(line + "\n")
            out.flush()
        except BrokenPipeError:  # downstream pager/head closed the pipe
            return 0 if samples else 1
        if done:
            return 0 if samples else 1
        time.sleep(refresh)
