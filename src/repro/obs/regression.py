"""Metrics-regression gate: diff a run against a committed baseline.

Two kinds of drift end a perf PR's honeymoon: *scientific* drift (the
algorithm now makes different decisions — never acceptable as a silent
side effect) and *wall-clock* regression (the run got slower than the
stated tolerance).  ``repro compare-metrics`` checks both by diffing a
run's counters payload (what ``repro profile --counters-out`` writes)
against a committed baseline file, and exits non-zero on either, which
is what lets CI refuse the merge.

The baseline — ``BENCH_baseline.json`` at the repo root — is one
versioned document (:data:`BENCH_SCHEMA`)::

    {
      "schema": "<BENCH_SCHEMA>",
      "name": "baseline",
      "git_sha": "<commit that produced it>",
      "params": {...},           # the run's meta block, for humans+diffs
      "metrics": {...}           # "scientific", "wall_seconds",
    }                            #   "phase_seconds"

Scientific counters are compared **exactly** (they are mode- and
machine-invariant by the tested contract in ``tests/test_obs.py``);
wall-clock is compared with a relative tolerance, because the baseline
was measured on *some* machine and CI runs on another — callers pick
the tolerance that matches how comparable the machines are.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Mapping

#: Version tag stamped on the baseline document.
BENCH_SCHEMA = "repro-bench/1"

#: Default relative wall-clock tolerance (0.20 = fail beyond +20%).
DEFAULT_SLOWDOWN_TOLERANCE = 0.20


def git_sha(repo_root: str | Path | None = None) -> str:
    """Current commit SHA, or "unknown" outside a usable git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_payload(name: str, params: Mapping, metrics: Mapping,
                  *, repo_root: str | Path | None = None) -> dict:
    """A named result document in the baseline schema."""
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "git_sha": git_sha(repo_root),
        "params": dict(params),
        "metrics": dict(metrics),
    }


def baseline_from_run(run_payload: Mapping, *, name: str = "baseline",
                      repo_root: str | Path | None = None) -> dict:
    """Build a baseline document from a profile counters payload."""
    phase_seconds = dict(run_payload.get("phase_seconds", {}))
    return bench_payload(
        name,
        params=dict(run_payload.get("meta", {})),
        metrics={
            "scientific": dict(run_payload.get("scientific", {})),
            "wall_seconds": round(sum(phase_seconds.values()), 4),
            "phase_seconds": {
                k: round(v, 4) for k, v in phase_seconds.items()
            },
        },
        repo_root=repo_root,
    )


def compare_metrics(
    run_payload: Mapping,
    baseline: Mapping,
    *,
    slowdown_tolerance: float = DEFAULT_SLOWDOWN_TOLERANCE,
    check_wallclock: bool = True,
) -> list[str]:
    """Violations of the baseline contract; empty means the gate passes.

    * every scientific counter present in the baseline must match the
      run **exactly** (counter drift);
    * total phase wall-clock must not exceed the baseline's
      ``wall_seconds`` by more than ``slowdown_tolerance`` (relative).
    """
    violations: list[str] = []
    metrics = baseline.get("metrics", {})

    baseline_sci = metrics.get("scientific", {})
    run_sci = run_payload.get("scientific", {})
    for counter in sorted(baseline_sci):
        expected = baseline_sci[counter]
        actual = run_sci.get(counter, 0)
        if actual != expected:
            violations.append(
                f"counter drift: {counter} = {actual:g} "
                f"(baseline {expected:g})"
            )

    if check_wallclock:
        baseline_wall = metrics.get("wall_seconds")
        run_wall = sum(run_payload.get("phase_seconds", {}).values())
        if baseline_wall and run_wall > 0:
            limit = baseline_wall * (1.0 + slowdown_tolerance)
            if run_wall > limit:
                violations.append(
                    f"wall-clock regression: {run_wall:.3f}s > "
                    f"{limit:.3f}s "
                    f"(baseline {baseline_wall:.3f}s "
                    f"+{slowdown_tolerance:.0%} tolerance)"
                )
    return violations


def compare_report(
    run_payload: Mapping,
    baseline: Mapping,
    violations: list[str],
) -> list[str]:
    """Human-readable gate report (printed by the CLI either way)."""
    metrics = baseline.get("metrics", {})
    n_counters = len(metrics.get("scientific", {}))
    baseline_wall = metrics.get("wall_seconds")
    run_wall = sum(run_payload.get("phase_seconds", {}).values())
    lines = [
        f"baseline: {baseline.get('name', '?')} "
        f"@ {baseline.get('git_sha', '?')[:12]} "
        f"({n_counters} scientific counters)",
    ]
    if baseline_wall:
        ratio = run_wall / baseline_wall if baseline_wall else 0.0
        lines.append(
            f"wall-clock: run {run_wall:.3f}s vs baseline "
            f"{baseline_wall:.3f}s ({ratio:.2f}x)"
        )
    if violations:
        lines.append(f"FAIL: {len(violations)} violation(s)")
        lines.extend(f"  {v}" for v in violations)
    else:
        lines.append("OK: scientific counters match, wall-clock within "
                     "tolerance")
    return lines
