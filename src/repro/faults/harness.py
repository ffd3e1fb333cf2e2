"""The chaos harness: prove recovery never changes the science.

``run_chaos`` executes the same workload twice — fault-free baseline,
then under a :class:`~repro.faults.plan.FaultPlan` — and diffs the two
runs through the existing ``compare-metrics`` machinery: the
scientific-counter slice must match **bit-exactly** and the final
families must be identical.  Any divergence means the recovery path
(requeue, respawn, quarantine, degraded completion) leaked into the
algorithm's decisions, which is exactly the bug class this harness
exists to catch.

Two identical runs only mean something if there was something to
disturb and something disturbed it: the verdict is IDENTICAL only when
the baseline found a family and a planned fault was actually injected,
otherwise VACUOUS (not ok).  The report lists every planned fault with
whether it fired, so one whose coordinates the run never reached (too
few tasks in that phase, a slot already respawned) cannot pass silently.

Only worker-task faults (kill/delay/poison) are verifiable in-process:
checkpoint faults (``abort_master``/``truncate_checkpoint``) terminate
the run by design and are exercised by the resume round-trip tests
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, FaultPlanError
from repro.obs.export import counters_payload
from repro.obs.regression import compare_metrics
from repro.sequence.generator import MetagenomeSpec, generate_metagenome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import PipelineConfig
    from repro.sequence.record import SequenceSet

#: Recovery counters reported alongside the verdict.
RECOVERY_COUNTERS = (
    "faults.injected",
    "runtime.tasks_requeued",
    "runtime.worker_respawns",
    "runtime.poison_quarantined",
    "runtime.duplicate_results",
)


def default_chaos_sequences(seed: int) -> "SequenceSet":
    """The no-FASTA input of ``repro chaos`` and ``repro chaos --serve``.

    Three flat families of 32 close homologues: at every seed each
    yields hundreds of promising pairs, so on two workers RR cuts
    several containment tasks, CCD and bipartite generation each dispatch
    the alignments of their own admitted pairs, and DSD gets a component
    per family — every phase dispatches tasks and the baseline is never
    empty.
    """
    return generate_metagenome(MetagenomeSpec(
        n_families=3, mean_family_size=32, max_family_size=32,
        zipf_exponent=8.0, mean_length=100, length_stddev=10,
        identity_low=0.85, identity_high=0.90,
        redundant_fraction=0.1, noise_fraction=0.05, seed=seed,
    )).sequences


@dataclass
class ChaosReport:
    """Outcome of one fault-free versus faulted comparison."""

    plan: FaultPlan
    violations: list[str] = field(default_factory=list)
    families_identical: bool = True
    baseline_families: int = 0
    faulted_families: int = 0
    recovery: dict[str, float] = field(default_factory=dict)
    injected: frozenset[int] = frozenset()
    """Plan indices of the faults the faulted run actually injected."""

    @property
    def vacuous(self) -> str:
        """Why identical runs would prove nothing here ("" if they do)."""
        if self.baseline_families == 0:
            return "the baseline found no family"
        if not self.injected:
            return "no planned fault was injected"
        return ""

    @property
    def ok(self) -> bool:
        return (not self.violations and self.families_identical
                and not self.vacuous)

    def lines(self) -> list[str]:
        if self.violations or not self.families_identical:
            verdict = "DRIFT"
        elif self.vacuous:
            verdict = f"VACUOUS ({self.vacuous})"
        else:
            verdict = "IDENTICAL"
        out = [
            f"chaos: {len(self.plan)} fault(s) planned, "
            f"{len(self.injected)} injected",
            *(
                f"  [{idx}] {fault.kind} phase={fault.phase or 'any'} "
                f"worker={fault.worker} at_task={fault.at_task}: "
                f"{'injected' if idx in self.injected else 'NOT injected'}"
                for idx, fault in enumerate(self.plan.faults)
            ),
            "  " + "  ".join(
                f"{name.split('.')[-1]}={int(self.recovery.get(name, 0))}"
                for name in RECOVERY_COUNTERS[1:]
            ),
            f"families: baseline={self.baseline_families} "
            f"faulted={self.faulted_families} "
            f"{'identical' if self.families_identical else 'DIFFERENT'}",
        ]
        out.extend(f"  {v}" for v in self.violations)
        out.append(f"chaos verdict: {verdict}")
        return out


def run_chaos(
    sequences: "SequenceSet",
    config: "PipelineConfig",
    plan: FaultPlan,
    *,
    run_dir: "str | Path | None" = None,
) -> ChaosReport:
    """Run fault-free and faulted, return the identity verdict.

    Both runs use the configuration's backend/worker settings; the
    faulted run additionally streams telemetry into ``run_dir`` (when
    given) so the recovery can be inspected with ``repro top``.
    """
    from repro.core.pipeline import ProteinFamilyPipeline

    if plan.checkpoint_faults:
        raise FaultPlanError(
            "chaos verification only supports worker-task faults "
            "(kill_worker/delay_task/poison_task); checkpoint faults "
            "terminate the run and are covered by --resume"
        )
    if plan.serve_faults:
        raise FaultPlanError(
            "serve faults target the daemon, not the batch pipeline; "
            "run them through `repro chaos --serve`"
        )

    base_config = replace(config, fault_plan=None)
    fault_config = replace(config, fault_plan=plan)

    baseline = ProteinFamilyPipeline(base_config).run(
        sequences, backend=base_config.backend
    )
    faulted = ProteinFamilyPipeline(fault_config).run(
        sequences,
        backend=fault_config.backend,
        telemetry_dir=run_dir,
    )

    faulted_payload = counters_payload(faulted.obs)
    violations = compare_metrics(
        faulted_payload, counters_payload(baseline.obs),
        check_wallclock=False,
    )

    report = ChaosReport(
        plan=plan,
        violations=violations,
        families_identical=baseline.families == faulted.families,
        baseline_families=len(baseline.families),
        faulted_families=len(faulted.families),
        recovery={
            name: faulted_payload["counters"].get(name, 0.0)
            for name in RECOVERY_COUNTERS
        },
        injected=frozenset(
            dict(event.args)["fault"]
            for event in faulted.obs.events
            if event.name == "fault.injected"
        ),
    )
    if run_dir is not None:
        _write_report(report, run_dir)
    return report


def _write_report(report: ChaosReport, run_dir: "str | Path") -> Path:
    import json

    path = Path(run_dir)
    path.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": "repro-chaos/1",
        "ok": report.ok,
        "plan": [f.to_dict() for f in report.plan.faults],
        "injected": [idx in report.injected
                     for idx in range(len(report.plan))],
        "violations": report.violations,
        "families_identical": report.families_identical,
        "baseline_families": report.baseline_families,
        "faulted_families": report.faulted_families,
        "recovery": report.recovery,
    }
    out = path / "chaos_report.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return out
