"""Per-phase progress and ETA, derived from telemetry sample history.

The pipeline cannot know its total work upfront — promising pairs are
*generated* by streaming suffix-structure traversal, so the only honest
total is "pairs generated so far", a monotone lower bound that tightens
as the generator advances.  The model therefore reports progress as
**work-done versus pair-generation estimate**:

* ``done``       — work units completed (absorbed alignment results,
  finished Shingle components);
* ``generated``  — work units produced so far by the phase's generator
  (the running estimate of the total);
* ``fraction``   — ``done / generated`` (an overestimate early in a
  phase, exact once generation finishes — stated as "of generated");
* ``rate``       — completion throughput over a trailing sample window;
* ``eta_seconds``— ``(generated - done) / rate``, again a lower bound
  that converges as generation drains.

Which counters mean "done"/"generated" per phase is declared in
:data:`PHASE_WORK`.  The runtime's pair stream feeds the per-phase
``runtime.pairs_done.<phase>`` counters on every backend (on the serial
one submit *is* completion, so ``done`` tracks ``generated``); a phase
that never emitted them falls back to ``generated`` as ``done``, making
progress exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.timing import format_seconds

#: phase -> (generated counter, done counter). ``done`` counters with a
#: trailing dot are per-phase families completed as ``<name><phase>``.
PHASE_WORK: dict[str, tuple[str, str]] = {
    "redundancy": ("rr.pairs", "runtime.pairs_done.redundancy"),
    "clustering": ("ccd.alignments", "runtime.pairs_done.clustering"),
    "bipartite": ("bipartite.pairs", "runtime.pairs_done.bipartite"),
    "dense_subgraphs": ("runtime.shingle_jobs", "dsd.components"),
}

#: Trailing samples used for the throughput estimate.
RATE_WINDOW = 8


@dataclass(frozen=True)
class PhaseProgress:
    """One phase's live progress figure (all floats in seconds/units)."""

    phase: str
    elapsed: float
    generated: float | None
    done: float | None
    fraction: float | None
    rate: float | None
    eta_seconds: float | None

    def describe(self) -> str:
        """One-line human rendering, degraded gracefully per field."""
        parts = [f"{self.phase}: {format_seconds(self.elapsed)} elapsed"]
        if self.done is not None and self.generated is not None:
            parts.append(
                f"{int(self.done):,d}/{int(self.generated):,d} of generated"
            )
        if self.rate is not None and self.rate > 0:
            parts.append(f"{self.rate:,.0f}/s")
        if self.eta_seconds is not None:
            parts.append(f"ETA {format_seconds(self.eta_seconds)}")
        return "  ".join(parts)


def _phase_work(sample: dict, phase: str) -> tuple[float | None, float | None]:
    """(generated, done) for ``phase`` as of ``sample``; None = unknown."""
    spec = PHASE_WORK.get(phase)
    if spec is None:
        return None, None
    generated_name, done_name = spec
    counters = sample.get("counters", {})
    generated = counters.get(generated_name)
    done = counters.get(done_name)
    if done is None and generated is not None:
        # No backend completion counter: submit was completion (serial
        # reference path), so done tracks generation exactly.
        done = generated
    if done is not None and generated is not None:
        done = min(done, generated)
    return generated, done


def phase_progress(
    samples: list[dict], *, now: float | None = None
) -> PhaseProgress | None:
    """Progress of the phase current in the *last* sample.

    ``samples`` is the parsed sample list of one telemetry file (see
    :func:`repro.obs.telemetry.read_telemetry`); ``now`` overrides the
    observation time (defaults to the last sample's ``t``, which is
    correct for both live tails and post-hoc reads).
    """
    if not samples:
        return None
    last = samples[-1]
    phase = last.get("phase") or ""
    if not phase:
        return None
    t_now = last["t"] if now is None else now
    started = last.get("gauges", {}).get("phase.start")
    elapsed = t_now - started if isinstance(started, (int, float)) else 0.0

    generated, done = _phase_work(last, phase)
    fraction = None
    if done is not None and generated:
        fraction = min(done / generated, 1.0)

    # Throughput over the trailing window of same-phase samples.
    window = [s for s in samples[-RATE_WINDOW:] if s.get("phase") == phase]
    rate = None
    if done is not None and len(window) >= 2:
        _, first_done = _phase_work(window[0], phase)
        dt = window[-1]["t"] - window[0]["t"]
        if first_done is not None and dt > 0:
            rate = max(done - first_done, 0.0) / dt

    eta = None
    if rate is not None and rate > 0 and generated is not None and done is not None:
        eta = max(generated - done, 0.0) / rate
    return PhaseProgress(
        phase=phase,
        elapsed=max(elapsed, 0.0),
        generated=generated,
        done=done,
        fraction=fraction,
        rate=rate,
        eta_seconds=eta,
    )
