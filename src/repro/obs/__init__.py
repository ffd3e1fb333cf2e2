"""Unified observability: one tracing/metrics vocabulary for all modes.

The pipeline's performance claims (the paper's Table II master
bottleneck, the >99.9% transitive-closure kill rate, the Figure 6
scaling curves) are claims about internal counters and per-phase
timelines.  This package gives every :mod:`repro.runtime` backend (the
serial reference among them) the same instruments:

* :class:`Recorder` collects :class:`Span`/:class:`Event` timelines and
  named counters; library code reports through the ambient helpers
  (:func:`count`, :func:`span`, :func:`event`), which no-op when no
  recorder is installed via :func:`recording`;
* :mod:`repro.obs.registry` declares every counter and which of them
  are *scientific* (mode-invariant) versus *work* (concurrency-
  dependent) — the contract ``tests/test_obs.py`` pins down;
* :mod:`repro.obs.export` writes Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto) and the run record
  (:func:`counters_payload`, schema :data:`RUN_SCHEMA`);
* :mod:`repro.obs.clock` is the single monotonic clock source — one
  explicit perf-counter/wall-clock pairing per recorder, with the
  cross-process skew model documented and tested;
* :mod:`repro.obs.telemetry` samples live process state (counters,
  gauges, probes, RSS) to one append-only ``telemetry.jsonl`` per
  process — a batch run's, or a daemon's, where slow requests land too;
* :mod:`repro.obs.progress` derives per-phase progress/ETA from the
  sample history (work-done vs. pair-generation estimate);
* :mod:`repro.obs.top` renders that stream — live or finished, batch
  or daemon — as the ``repro top`` status screen;
* :mod:`repro.obs.regression` is the metrics-regression gate behind
  ``repro compare-metrics``: it diffs two run records, of which
  ``BENCH_baseline.json`` is one.

``ProteinFamilyPipeline.run`` installs a recorder automatically and
returns it as ``result.obs``; ``repro run --trace-out/--counters-out``
(``repro profile`` by default) wires the exporters.
"""

from repro.obs.clock import ClockSync, clamp_rebased
from repro.obs.core import (
    MASTER_LANE,
    Counter,
    Event,
    Recorder,
    Span,
    active,
    count,
    event,
    gauge,
    heartbeat,
    recording,
    request_recording,
    set_max,
    span,
)
from repro.obs.hist import LatencyHistogram
from repro.obs.progress import PhaseProgress, phase_progress
from repro.obs.request import RequestContext, next_request_id
from repro.obs.regression import compare_metrics, compare_report
from repro.obs.telemetry import (
    DEFAULT_INTERVAL,
    TELEMETRY_FILENAME,
    TelemetrySampler,
    read_telemetry,
)
from repro.obs.export import (
    HOST_TRACK,
    RUN_SCHEMA,
    chrome_trace,
    chrome_trace_events,
    counters_payload,
    read_slow_log,
    slow_trace,
    write_chrome_trace,
    write_counters_json,
    write_slow_trace,
)
from repro.obs.registry import (
    REGISTRY,
    SCIENTIFIC_COUNTERS,
    CounterSpec,
    describe,
    scientific_view,
)

__all__ = [
    "ClockSync",
    "Counter",
    "CounterSpec",
    "DEFAULT_INTERVAL",
    "Event",
    "HOST_TRACK",
    "LatencyHistogram",
    "MASTER_LANE",
    "PhaseProgress",
    "REGISTRY",
    "RUN_SCHEMA",
    "Recorder",
    "RequestContext",
    "SCIENTIFIC_COUNTERS",
    "Span",
    "TELEMETRY_FILENAME",
    "TelemetrySampler",
    "active",
    "chrome_trace",
    "chrome_trace_events",
    "clamp_rebased",
    "compare_metrics",
    "compare_report",
    "count",
    "counters_payload",
    "describe",
    "event",
    "gauge",
    "heartbeat",
    "next_request_id",
    "phase_progress",
    "read_slow_log",
    "read_telemetry",
    "recording",
    "request_recording",
    "scientific_view",
    "set_max",
    "slow_trace",
    "span",
    "write_chrome_trace",
    "write_counters_json",
    "write_slow_trace",
]
