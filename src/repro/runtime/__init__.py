"""Execution backends — real multi-core execution beside the simulator.

``repro.parallel`` *models* the paper's clusters (virtual time on a
machine model) for the RR and CCD phases; ``repro.runtime`` *executes*
all four on the host's cores.  Both drive the same master-side phase
state (:mod:`repro.pace`), and both guarantee output equal to the
reference — this package's serial backend, which every pipeline run
uses unless told otherwise.  See DESIGN.md,
"Simulator versus runtime".

Usage::

    from repro import ProteinFamilyPipeline, PipelineConfig, report_lines

    result = ProteinFamilyPipeline(PipelineConfig()).run(
        sequences, backend="process", workers=4)
    print("\n".join(report_lines(result)))

or from the command line::

    repro run input.fasta --backend process --workers 4
    repro runtime-info
"""

from repro.runtime.base import (
    Backend,
    BackendError,
    PairStream,
    PhaseStats,
    RuntimeStats,
    WorkerCrashError,
    default_worker_count,
    runtime_info,
    usable_cpu_count,
)
from repro.runtime.process import ProcessBackend
from repro.runtime.serial import SerialBackend
from repro.runtime.sharedseq import SharedSequenceStore, StoreSpec

BACKENDS = ("serial", "process")


def make_backend(
    spec: "str | Backend | None",
    workers: int | None = None,
    *,
    fault_plan=None,
    task_deadline: float | None = None,
    respawn_budget: int | None = None,
) -> Backend | None:
    """Resolve a backend specification.

    ``None`` -> ``None`` (caller decides the default), a :class:`Backend`
    instance passes through, ``"serial"``/``"process"`` construct one.
    The fault-tolerance knobs (``fault_plan``, ``task_deadline``,
    ``respawn_budget``) only apply when this call constructs the
    backend; a passed-in instance keeps its own settings.
    """
    if spec is None or isinstance(spec, Backend):
        return spec
    if spec == "serial":
        return SerialBackend(fault_plan=fault_plan)
    if spec == "process":
        return ProcessBackend(
            workers=workers,
            fault_plan=fault_plan,
            task_deadline=task_deadline,
            respawn_budget=respawn_budget,
        )
    raise ValueError(
        f"unknown backend {spec!r}; expected one of {', '.join(BACKENDS)}"
    )


__all__ = [
    "Backend",
    "BackendError",
    "BACKENDS",
    "PairStream",
    "PhaseStats",
    "ProcessBackend",
    "RuntimeStats",
    "SerialBackend",
    "SharedSequenceStore",
    "StoreSpec",
    "WorkerCrashError",
    "default_worker_count",
    "make_backend",
    "runtime_info",
    "usable_cpu_count",
]
