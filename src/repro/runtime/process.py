"""The worker-pool executor: the paper's master–worker design on real cores.

Topology mirrors PaCE: one master (this process) owns all clustering
state — promising-pair generation, the dedup sets and the union–find —
while ``N`` worker processes are stateless engines whose whole loop is
"receive a task body, run it through :func:`~repro.runtime.base.execute`,
send the result back".  This module is only the *placement* of that
work:

* a task is exactly what a phase driver submits — an ``RR_CHUNK`` of
  index columns, one ``LOCAL_CHUNK`` or CCD batch, one component graph
  — or a ``LOCAL_CHUNK`` of the pairs RR's sweeps left to the DP, cut
  in submission order, so a worker runs the serial backend's task
  bodies, one at a time;
* ``_throttle`` holds the next task until a worker is free: at most one
  task per worker is in flight, so the next one goes to whichever
  worker returns one first, not into the queue of a worker that shares
  its core with the master (no filter waits on a verdict: CCD decides
  under speculation, see
  :func:`repro.runtime.phases.backend_component_detection`);
* ``_dispatch`` enters the task body and its sink into the master-side
  **ledger** and sends the body to an idle worker's queue;
* workers resolve sequence indices against the shared-memory encoded
  store (:mod:`repro.runtime.sharedseq` — written once, mapped
  zero-copy by every worker, never re-pickled; each worker builds its
  per-sequence Myers masks once a session), so a task message is index
  columns and a result message one array: the alignment table or the
  statistic rows;
* ``_pump`` receives results and completes their ledger entries, which
  calls each task's sink exactly once; the RR and bipartite drivers
  interleave it with pair generation, the CCD driver drains a whole
  batch and puts its verdicts back in stream order.

Fault tolerance (the PaCE paper assumed BlueGene nodes that never die;
we do not): every in-flight task is a ledger record keyed by a unique
``task_id`` and owned by exactly one worker slot.  When a worker dies —
crash, OOM-kill, or a hang past ``task_deadline`` — its ledger entries
are requeued to survivors, the worker is respawned under a bounded
**respawn budget**, and a task that has now killed two workers is
**quarantined**: the master runs the same ``execute`` on it itself,
isolating poison inputs.  With the budget exhausted and no workers left
the backend degrades to in-master completion of every task instead of
raising.  A ledger entry completes exactly once (a late result from a
presumed-dead worker finds no entry and is dropped), which is what
keeps worker-recorded scientific counters bit-identical under recovery.
Worker *exceptions* are still caught, serialised, and re-raised on the
master as :class:`~repro.runtime.base.WorkerCrashError` — a
deterministic bug in a task is surfaced, not retried.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import TYPE_CHECKING

from repro import obs
from repro.runtime.base import (
    Backend,
    BackendError,
    Sink,
    WorkerCrashError,
    default_worker_count,
    execute,
    preferred_start_method,
)
from repro.runtime.sharedseq import SharedSequenceStore, StoreSpec
from repro.util.lockwatch import named_lock
from repro.util.timing import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.faults.plan import FaultPlan

#: Respawn budget default: each slot may be refilled twice.
DEFAULT_RESPAWN_FACTOR = 2

#: A task that has killed this many workers is quarantined in-master.
POISON_DEATHS = 2

_STOP = None


def _worker_main(worker_index: int, task_queue, result_queue,
                 store_spec: StoreSpec, scheme) -> None:
    """Worker loop: attach the store once, then serve tasks until told
    to stop.

    A task arrives as ``(task_id, fault, body)``.  The ``fault`` slot is
    normally None; under a :class:`~repro.faults.plan.FaultPlan` the
    master attaches ``("die",)`` (exit immediately — the SIGKILL/OOM
    stand-in, injected *before* any result exists so recovery decides
    the science) or ``("delay", seconds)`` (sleep, then compute —
    exercises the hang detector).

    Every exception is reported as an ("error", ...) message rather than
    allowed to kill the process silently, so the master can surface the
    original traceback.

    Observability: each task runs under a private worker-local
    :class:`repro.obs.Recorder`; its span buffer (wall-clock stamped,
    comparable across processes) and counter snapshot ride back with the
    result message, and the master rebases them onto the run recorder —
    workers never share observability state with the master.
    """
    store = SharedSequenceStore.attach(store_spec)
    try:
        while True:
            task = task_queue.get()
            if task is _STOP:
                break
            task_id, fault, body = task
            if fault is not None:
                if fault[0] == "die":
                    # Between messages, as the docstring says: a feeder
                    # thread killed mid-write would die holding the
                    # result queue's shared write lock, and every other
                    # worker would block on it for good.
                    result_queue.close()
                    result_queue.join_thread()
                    os._exit(137)
                if fault[0] == "delay":
                    time.sleep(fault[1])
            try:
                recorder = obs.Recorder()
                with obs.recording(recorder):
                    result, seconds = execute(body, store, scheme)
                result_queue.put(
                    ("done", task_id, result, seconds,
                     (worker_index, recorder.wall_spans(),
                      recorder.counters()))
                )
            except Exception:
                result_queue.put(
                    ("error", worker_index, task_id, traceback.format_exc())
                )
    finally:
        store.close()


@dataclass
class _TaskRecord:
    """One in-flight task in the master-side ledger."""

    task_id: int
    body: tuple
    """What :func:`~repro.runtime.base.run_task` is given, fault-free."""
    sink: Sink
    """Called exactly once, when the ledger entry completes."""
    phase: str
    worker: int = -1
    dispatched_at: float = 0.0
    deaths: int = 0
    poisoned: bool = False


class ProcessBackend(Backend):
    """Real multi-core execution via ``multiprocessing`` workers."""

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        *,
        start_method: str | None = None,
        fault_plan: "FaultPlan | None" = None,
        task_deadline: float | None = None,
        respawn_budget: int | None = None,
    ):
        self.workers = int(workers) if workers else default_worker_count()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if task_deadline is not None and task_deadline <= 0:
            raise ValueError(f"task_deadline must be > 0, got {task_deadline}")
        if respawn_budget is not None and respawn_budget < 0:
            raise ValueError(
                f"respawn_budget must be >= 0, got {respawn_budget}"
            )
        super().__init__()
        self._start_method = (
            preferred_start_method() if start_method is None else start_method
        )
        self.task_deadline = task_deadline
        self.respawn_budget = (
            DEFAULT_RESPAWN_FACTOR * self.workers
            if respawn_budget is None else respawn_budget
        )
        self._injector = None
        if fault_plan is not None and fault_plan:
            from repro.faults.plan import FaultInjector

            self._injector = FaultInjector(fault_plan)
        self._ctx = None
        self._procs: list[multiprocessing.Process | None] = []
        self._task_queues: list = []
        self._dead_queues: list = []
        self._incarnation: list[int] = []
        self._results = None
        self._next_task_id = 0
        # In-flight ledger: every dispatched-but-unabsorbed task, plus
        # the per-worker view of it.  Mutated by the master thread
        # (dispatch/complete/recover), read by the telemetry sampler thread.
        self._ledger_lock = named_lock("ProcessBackend._ledger_lock")
        self._ledger: dict[int, _TaskRecord] = {}  # guarded by _ledger_lock
        self._worker_tasks: dict[int, set[int]] = {}  # guarded by _ledger_lock
        self._respawns_used = 0
        self._degraded = False

    # -- lifecycle ---------------------------------------------------------

    def open(self, sequences, scheme) -> None:
        if self._procs:
            raise BackendError("backend already open")
        super().open(sequences, scheme)
        self._ctx = multiprocessing.get_context(self._start_method)
        self._results = self._ctx.Queue()
        self._procs = [None] * self.workers
        self._task_queues = [None] * self.workers
        self._dead_queues = []
        self._incarnation = [0] * self.workers
        with self._ledger_lock:
            self._worker_tasks = {w: set() for w in range(self.workers)}
        self._respawns_used = 0
        self._degraded = False
        obs.gauge("runtime.degraded", 0)
        for w in range(self.workers):
            self._start_worker(w)

    def _make_store(self, encoded) -> SharedSequenceStore:
        """The session's store, written once into shared memory."""
        return SharedSequenceStore.create(encoded)

    def _start_worker(self, slot: int) -> None:
        """Launch (or relaunch) the worker in ``slot`` with a fresh
        private task queue — a dead incarnation's queued tasks must
        never execute twice, so its queue dies with it."""
        task_queue = self._ctx.Queue()
        self._task_queues[slot] = task_queue
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, task_queue, self._results,
                  self._store.spec(), self._scheme),
            daemon=True,
            name=f"repro-worker-{slot}",
        )
        self._procs[slot] = proc
        proc.start()

    def close(self) -> None:
        """Shut everything down; idempotent, and cannot hang.

        The master waits on the workers' process sentinels and the
        result pipe together, for at most 5 s, and drains the result
        queue each time it wakes (a worker blocked on a full result
        queue can never exit); a worker that ignores both the stop
        sentinel and ``terminate()`` is ``kill()``-ed.
        """
        for slot, proc in enumerate(self._procs):
            task_queue = self._task_queues[slot]
            if proc is not None and proc.is_alive() and task_queue is not None:
                try:
                    task_queue.put(_STOP)
                except (OSError, ValueError):
                    obs.event("runtime.close_put_failed", slot=slot)
        deadline = monotonic_now() + 5.0
        while True:
            self._drain_results_nonblocking()
            live = [p.sentinel for p in self._procs
                    if p is not None and p.is_alive()]
            if not live or monotonic_now() >= deadline:
                break
            wait([*live, self._results._reader],
                 timeout=deadline - monotonic_now())
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc is not None and proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=1.0)
        for proc in self._procs:
            if proc is not None and not proc.is_alive():
                proc.join(timeout=0.1)
        self._procs = []
        self._drain_results_nonblocking()
        for q in [*self._task_queues, *self._dead_queues, self._results]:
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_queues = []
        self._dead_queues = []
        self._results = None
        super().close()
        with self._ledger_lock:
            self._ledger = {}
            self._worker_tasks = {}

    def _drain_results_nonblocking(self) -> None:
        """Discard queued result messages during shutdown (the run is
        over; nothing absorbs them, but a full pipe would block worker
        exit)."""
        if self._results is None:
            return
        while True:
            try:
                self._results.get(block=False)
            except (queue_mod.Empty, OSError, ValueError):
                return

    # -- master-side plumbing ----------------------------------------------

    @property
    def _outstanding(self) -> int:
        return len(self._ledger)

    def _alive_slots(self) -> list[int]:
        return [w for w, p in enumerate(self._procs)
                if p is not None and p.is_alive()]

    def _dispatch(self, body: tuple, sink: Sink) -> None:
        """Enter a new task into the ledger and send it to a worker."""
        self._require_open()
        record = _TaskRecord(self._next_task_id, body, sink,
                             self._phase_stats().name)
        self._next_task_id += 1
        if (self._injector is not None
                and self._injector.poison_new_task(record.phase)):
            record.poisoned = True
            obs.count("faults.injected")
            obs.event("fault.injected", kind="poison_task",
                      fault=self._injector.last_fired,
                      task=record.task_id, phase=record.phase)
        with self._ledger_lock:
            self._ledger[record.task_id] = record
        obs.count("runtime.batches")
        obs.set_max("runtime.max_outstanding", self._outstanding)
        self._send(record)

    def _send(self, record: _TaskRecord) -> None:
        """Dispatch a ledger entry to the least-loaded live worker (an
        idle one, after :meth:`_throttle`), or run it in-master when
        degraded (no workers left)."""
        slots = self._alive_slots()
        if self._degraded or not slots:
            self._run_in_master(record)
            return
        with self._ledger_lock:
            slot = min(slots, key=lambda w: (len(self._worker_tasks[w]), w))
            record.worker = slot
            record.dispatched_at = monotonic_now()
            self._worker_tasks[slot].add(record.task_id)
        fault = None
        if record.poisoned:
            fault = ("die",)
        elif self._injector is not None and self._incarnation[slot] == 0:
            fault = self._injector.marker_for_send(record.phase, slot)
            if fault is not None:
                obs.count("faults.injected")
                obs.event("fault.injected", kind=fault[0], worker=slot,
                          fault=self._injector.last_fired,
                          task=record.task_id, phase=record.phase)
        self._task_queues[slot].put((record.task_id, fault, record.body))
        obs.gauge("runtime.outstanding", self._outstanding)

    def _throttle(self) -> None:
        """Hold the next task until a worker is free — at most one task
        per worker in flight — absorbing results while waiting."""
        while self._outstanding >= self.workers:
            self._pump(block=True)

    # -- failure recovery --------------------------------------------------

    def _sweep(self) -> None:
        # Kill hung workers first so the same sweep's death recovery
        # requeues their work immediately.
        self._kill_hung_workers()
        self._recover_dead_workers()

    def _kill_hung_workers(self) -> None:
        """Deadline hang detection: a worker whose oldest in-flight task
        is older than ``task_deadline`` is presumed wedged and killed;
        the normal death recovery then requeues its work."""
        if self.task_deadline is None:
            return
        now = monotonic_now()
        for slot in self._alive_slots():
            with self._ledger_lock:
                ages = [now - self._ledger[tid].dispatched_at
                        for tid in self._worker_tasks[slot]
                        if tid in self._ledger]
            if ages and max(ages) > self.task_deadline:
                obs.event("worker.hung", worker=slot,
                          oldest_task_age=round(max(ages), 3))
                proc = self._procs[slot]
                proc.kill()
                proc.join(timeout=5.0)

    def _recover_dead_workers(self) -> None:
        """The heart of fault tolerance: detect dead workers, respawn
        under budget, requeue their ledger entries, quarantine poison."""
        dead = [w for w, p in enumerate(self._procs)
                if p is not None and not p.is_alive()]
        if not dead:
            return
        orphans: list[_TaskRecord] = []
        for slot in dead:
            proc = self._procs[slot]
            obs.event("worker.died", worker=slot, exitcode=proc.exitcode,
                      incarnation=self._incarnation[slot],
                      tasks_lost=len(self._worker_tasks[slot]))
            proc.join(timeout=1.0)
            with self._ledger_lock:
                for task_id in sorted(self._worker_tasks[slot]):
                    record = self._ledger.get(task_id)
                    if record is not None:
                        record.deaths += 1
                        record.worker = -1
                        orphans.append(record)
                self._worker_tasks[slot] = set()
            # The dead incarnation's queue may still hold undelivered
            # tasks; park it for close() so they can never run twice.
            self._dead_queues.append(self._task_queues[slot])
            self._task_queues[slot] = None
            self._incarnation[slot] += 1
            if self._respawns_used < self.respawn_budget:
                self._respawns_used += 1
                self._start_worker(slot)
                obs.count("runtime.worker_respawns")
                obs.event("worker.respawned", worker=slot,
                          incarnation=self._incarnation[slot],
                          budget_left=self.respawn_budget - self._respawns_used)
            else:
                self._procs[slot] = None
                obs.event("worker.retired", worker=slot,
                          reason="respawn budget exhausted")
        if not self._alive_slots() and not self._degraded:
            self._degraded = True
            obs.gauge("runtime.degraded", 1)
            obs.event("runtime.degraded",
                      reason="all workers lost, budget exhausted; "
                             "completing in-master")
        for record in orphans:
            if record.deaths >= POISON_DEATHS:
                obs.count("runtime.poison_quarantined")
                obs.event("task.quarantined", task=record.task_id,
                          deaths=record.deaths, phase=record.phase)
                self._run_in_master(record)
            else:
                obs.count("runtime.tasks_requeued")
                obs.event("task.requeued", task=record.task_id,
                          deaths=record.deaths, phase=record.phase)
                self._send(record)

    def _run_in_master(self, record: _TaskRecord) -> None:
        """Execute a ledger entry on the master (quarantine or degraded
        mode): the same ``execute`` a worker would have run, then the
        same completion.  Fault markers are never applied here —
        injection only targets workers, so a poison task's *computation*
        is clean."""
        result, busy = execute(record.body, self._store, self._scheme,
                               in_master=True)
        if self._complete(record.task_id) is not None:
            record.sink(result, busy)

    # -- result routing ----------------------------------------------------

    def _pump(self, *, block: bool) -> None:
        """Receive and route result messages.

        Non-blocking: drain whatever is queued.  Blocking: wait (with a
        recovery sweep every 0.5 s) until at least one message arrives
        or recovery retires the outstanding work.
        """
        self._require_open()
        received = False
        while True:
            try:
                msg = self._results.get(block=False)
            except queue_mod.Empty:
                if not block or received:
                    return
                self._sweep()
                if self._outstanding == 0:
                    # Recovery (quarantine/degraded) completed the work
                    # in-master; nothing further is coming.
                    return
                try:
                    msg = self._results.get(timeout=0.5)
                except queue_mod.Empty:
                    continue
            self._route(msg)
            received = True
            if block:
                block = False  # got one; drain the rest non-blocking

    def _route(self, msg: tuple) -> None:
        if msg[0] == "error":
            _, worker_index, task_id, text = msg
            self._complete(task_id)  # over: it raised, and is not retried
            raise WorkerCrashError(
                f"worker {worker_index} raised during task execution:\n{text}"
            )
        _, task_id, result, busy, worker_obs = msg
        record = self._complete(task_id)
        if record is not None:
            self._absorb_worker_obs(worker_obs, busy)
            record.sink(result, busy)

    def _complete(self, task_id: int) -> _TaskRecord | None:
        """Take a task out of the ledger — the exactly-once gate.

        Whoever gets the record back (a worker's result message, or the
        master after running the task itself) calls its sink.  A result
        for a task the ledger no longer holds (recovered elsewhere, or
        late from a worker presumed dead) gets None and is dropped
        whole — counter payload included, which is what keeps
        worker-recorded scientific counters identical under requeue
        races.
        """
        with self._ledger_lock:
            record = self._ledger.pop(task_id, None)
            if record is not None and record.worker >= 0:
                self._worker_tasks[record.worker].discard(task_id)
        if record is None:
            obs.count("runtime.duplicate_results")
            obs.event("task.duplicate_result", task=task_id)
        else:
            obs.gauge("runtime.outstanding", self._outstanding)
        return record

    @staticmethod
    def _absorb_worker_obs(payload, busy: float) -> None:
        """Rebase a worker's shipped span buffer + counters onto the run
        recorder: spans land on the worker's lane (master = lane 0, worker
        ``w`` = lane ``w + 1``); counters merge additively, which is what
        makes worker-recorded scientific counters mode-invariant."""
        recorder = obs.active()
        if recorder is None:
            return
        worker_index, spans, counts = payload
        recorder.absorb_wall_spans(spans, lane=worker_index + 1)
        recorder.merge_counts(counts)
        obs.heartbeat(worker_index, busy)

    # -- telemetry ---------------------------------------------------------

    def telemetry_probe(self) -> dict:
        """Live backend state for the telemetry sampler.

        Called from the sampler thread: the in-flight count is read
        under the ledger lock, the rest are fields safe to read racily
        (integers, and per-process liveness via ``Process.is_alive()``,
        a kill-safe syscall).  A worker that died without reporting
        shows up here as ``alive: false`` long before the master's
        recovery sweep respawns it, which is what lets ``repro top``
        render the degraded view of a dying run.
        """
        with self._ledger_lock:
            outstanding = self._outstanding
        return {
            "outstanding": outstanding,
            "respawns": self._respawns_used,
            "degraded": self._degraded,
            "workers": [
                {
                    "index": w,
                    "alive": proc is not None and proc.is_alive(),
                    "exitcode": None if proc is None else proc.exitcode,
                    "incarnation": (
                        self._incarnation[w]
                        if w < len(self._incarnation) else 0
                    ),
                }
                for w, proc in enumerate(self._procs)
            ],
        }
