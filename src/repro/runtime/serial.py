"""The reference executor: run the task now, on the master.

``_dispatch`` runs the task in-line through
:func:`~repro.runtime.base.execute`, on worker 0's lane, and hands the
result straight to the sink, so a task is complete before ``submit``
returns — the pipeline's default, and the measured baseline
every other backend and the simulator are compared (and result-checked)
against.  Tasks read the session's private
:class:`~repro.runtime.sharedseq.EncodedStore`, and a task is one phase
driver submit, as on every backend, so a chunk or batch is one call
into the batched engine.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro import obs
from repro.runtime.base import Backend, Sink, execute

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.plan import FaultPlan


class SerialBackend(Backend):
    """Single-process reference backend: the master is worker 0, so
    its task spans sit on lane 1 and its heartbeat feeds
    ``runtime.worker.0.busy_seconds``, as a one-worker process run's do.

    A :class:`~repro.faults.plan.FaultPlan` may be attached: ``delay``
    faults targeting worker 0 sleep in-line (there is only the master),
    while kill/poison faults are unsatisfiable here — there is no
    process to lose — and are recorded as skipped events instead.  The
    run's results are unaffected either way, which keeps the serial
    reference usable as the chaos baseline.
    """

    name = "serial"

    def __init__(self, *, fault_plan: "FaultPlan | None" = None) -> None:
        self.workers = 1
        super().__init__()
        self._injector = None
        if fault_plan is not None and fault_plan:
            from repro.faults.plan import FaultInjector

            self._injector = FaultInjector(fault_plan)

    def _apply_fault(self, phase: str) -> None:
        if self._injector is None:
            return
        marker = self._injector.marker_for_send(phase, 0)
        if marker is None:
            return
        if marker[0] == "delay":
            obs.count("faults.injected")
            obs.event("fault.injected", kind="delay_task", worker=0,
                      fault=self._injector.last_fired, phase=phase)
            time.sleep(marker[1])
        else:
            obs.event("fault.skipped", kind="kill_worker", phase=phase,
                      reason="serial backend has no worker to kill")

    def _dispatch(self, body: tuple, sink: Sink) -> None:
        self._apply_fault(self._phase_stats().name)
        result, seconds = execute(body, self._store, self._scheme, lane=1)
        obs.heartbeat(0, seconds)
        sink(result, seconds)
