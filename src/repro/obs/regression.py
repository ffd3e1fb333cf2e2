"""Metrics-regression gate: diff two run records.

Two kinds of drift end a perf PR's honeymoon: *scientific* drift (the
algorithm now makes different decisions — never acceptable as a silent
side effect) and *wall-clock* regression (the run got slower than the
stated tolerance).  ``repro compare-metrics RUN --baseline RECORD``
checks both by diffing two run records
(:func:`repro.obs.export.counters_payload`, what ``--counters-out``
writes) and exits non-zero on either, which is what lets CI refuse the
merge.  The committed baseline, ``BENCH_baseline.json`` at the repo
root, is such a record; refreshing it is a file copy.

Scientific counters are compared **exactly** (they are mode- and
machine-invariant by the tested contract in ``tests/test_obs.py``);
wall-clock is compared with a relative tolerance, because the baseline
was measured on *some* machine and CI runs on another — callers pick
the tolerance that matches how comparable the machines are.  The
report lists the per-phase seconds of both records side by side: what
changed since the baseline run, by phase.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.export import RUN_SCHEMA

#: Default relative wall-clock tolerance (0.20 = fail beyond +20%).
DEFAULT_SLOWDOWN_TOLERANCE = 0.20


def _checked(record: object, what: str) -> Mapping:
    """``record`` if it is a run record the gate can compare, else a
    ValueError saying why not — a gate that compared nothing must not
    pass."""
    if not isinstance(record, Mapping):
        raise ValueError(f"{what} is not a JSON object")
    if record.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"{what} is not a run record: schema is "
            f"{record.get('schema')!r}, expected {RUN_SCHEMA!r}")
    if not record.get("scientific"):
        raise ValueError(f"{what} carries no scientific counters")
    return record


def _wall(record: Mapping) -> float:
    return sum(record.get("phase_seconds", {}).values())


def compare_metrics(
    run: Mapping,
    baseline: Mapping,
    *,
    slowdown_tolerance: float = DEFAULT_SLOWDOWN_TOLERANCE,
    check_wallclock: bool = True,
) -> list[str]:
    """Violations of the baseline contract; empty means the gate passes.

    * every scientific counter of the baseline must match the run
      **exactly** (counter drift);
    * total phase wall-clock must not exceed the baseline's by more
      than ``slowdown_tolerance`` (relative).

    Raises ValueError when either side is not a run record.
    """
    run_sci = _checked(run, "run")["scientific"]
    baseline_sci = _checked(baseline, "baseline")["scientific"]
    violations = [
        f"counter drift: {counter} = {run_sci.get(counter, 0):g} "
        f"(baseline {expected:g})"
        for counter, expected in sorted(baseline_sci.items())
        if run_sci.get(counter, 0) != expected
    ]
    baseline_wall, run_wall = _wall(baseline), _wall(run)
    limit = baseline_wall * (1.0 + slowdown_tolerance)
    if check_wallclock and baseline_wall and run_wall > limit:
        violations.append(
            f"wall-clock regression: {run_wall:.3f}s > {limit:.3f}s "
            f"(baseline {baseline_wall:.3f}s "
            f"+{slowdown_tolerance:.0%} tolerance)"
        )
    return violations


def compare_report(
    run: Mapping,
    baseline: Mapping,
    violations: list[str],
) -> list[str]:
    """Human-readable gate report (printed by the CLI either way)."""
    meta = " ".join(f"{k}={v}" for k, v in baseline.get("meta", {}).items())
    lines = [
        f"baseline: {meta or '(no meta)'} "
        f"({len(baseline['scientific'])} scientific counters)",
    ]
    baseline_phases = baseline.get("phase_seconds", {})
    run_phases = run.get("phase_seconds", {})
    if baseline_wall := _wall(baseline):
        run_wall = _wall(run)
        lines.append(
            f"wall-clock: run {run_wall:.3f}s vs baseline "
            f"{baseline_wall:.3f}s ({run_wall / baseline_wall:.2f}x)"
        )
        for name in {**baseline_phases, **run_phases}:
            was, now = baseline_phases.get(name, 0.0), run_phases.get(name, 0.0)
            lines.append(
                f"  {name:<16s} {now:>9.3f}s vs {was:>9.3f}s ({now - was:+.3f}s)"
            )
    if violations:
        lines.append(f"FAIL: {len(violations)} violation(s)")
        lines.extend(f"  {v}" for v in violations)
    else:
        lines.append("OK: scientific counters match, wall-clock within "
                     "tolerance")
    return lines
