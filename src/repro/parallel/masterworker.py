"""Generic master-worker framework over the simulator.

The PaCE phases follow one protocol (Section IV-B):

* workers stream *generated items* (promising pairs) to the master;
* the master filters them (union-find transitive closure) and hands the
  survivors back as *task batches* (alignments);
* workers execute tasks, returning results that update the master state.

:func:`run_master_worker` implements that protocol generically so the
redundancy-removal and clustering phases differ only in their
callbacks.  Rank 0 is the master; ranks 1..p-1 (or rank 0 itself when
p == 1) are workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.parallel.simulator import (
    ANY_SOURCE,
    SimComm,
    SimulationResult,
    VirtualCluster,
)

# Message tags of the protocol.
TAG_GENERATED = 10  # worker -> master: batch of generated items
TAG_GEN_DONE = 11  # worker -> master: generation stream exhausted
TAG_TASKS = 12  # master -> worker: batch of filtered tasks
TAG_RESULTS = 13  # worker -> master: task results
TAG_STOP = 14  # master -> worker: shut down
TAG_PULL = 15  # worker -> master: ready for more tasks


@dataclass
class MasterWorkerConfig:
    """Callbacks and knobs defining one master-worker phase.

    Attributes
    ----------
    make_generator:
        ``(worker_index, n_workers) -> iterator`` of (item, gen_cost)
        pairs — each worker's share of the generation work (e.g. maximal
        matches from its suffix buckets) with per-item compute cost.
    filter_item:
        Master-side filter: ``item -> task | None`` plus its master-side
        cost via ``filter_cost``.  Returning None drops the item (the
        transitive-closure elimination).
    execute_task:
        Worker-side execution: ``task -> (result, cost_units)``.
    absorb_result:
        Master-side state update: ``result -> cost_units``.
    gen_batch / task_batch:
        Streaming batch sizes (items per message).
    filter_cost:
        Master-side cost units per filtered item (union-find finds).
    """

    make_generator: Callable[[int, int], Iterator[tuple[Any, float]]]
    filter_item: Callable[[Any], Any | None]
    execute_task: Callable[[Any], tuple[Any, float]]
    absorb_result: Callable[[Any], float]
    gen_batch: int = 256
    task_batch: int = 8
    filter_cost: float = 50.0
    #: Per-worker one-off cost charged before generation (e.g. building
    #: the rank's portion of the distributed string index).
    setup_cost: Callable[[int, int], float] | None = None


def _master(comm: SimComm, config: MasterWorkerConfig):
    n_workers = comm.size - 1
    pending_tasks: list[Any] = []
    active_generators = n_workers
    idle_workers: list[int] = []

    def dispatch():
        """Send task batches to every idle worker while work exists."""
        while idle_workers and pending_tasks:
            worker = idle_workers.pop()
            batch = pending_tasks[: config.task_batch]
            del pending_tasks[: config.task_batch]
            yield from comm.send(batch, dest=worker, tag=TAG_TASKS)

    while active_generators > 0 or pending_tasks or len(idle_workers) < n_workers:
        message = yield from comm.recv(source=ANY_SOURCE)
        if message.tag == TAG_GENERATED:
            items = message.payload
            # Filter each item (transitive-closure test) at master cost.
            yield from comm.compute(units=config.filter_cost * len(items))
            for item in items:
                task = config.filter_item(item)
                if task is not None:
                    pending_tasks.append(task)
            yield from dispatch()
        elif message.tag == TAG_GEN_DONE:
            active_generators -= 1
        elif message.tag == TAG_PULL:
            idle_workers.append(message.source)
            yield from dispatch()
        elif message.tag == TAG_RESULTS:
            for result in message.payload:
                cost = config.absorb_result(result)
                if cost:
                    yield from comm.compute(units=cost)
            idle_workers.append(message.source)
            yield from dispatch()
        else:  # pragma: no cover - protocol violation
            raise RuntimeError(f"master got unexpected tag {message.tag}")

    for worker in range(1, comm.size):
        yield from comm.send(None, dest=worker, tag=TAG_STOP)


def _worker(comm: SimComm, config: MasterWorkerConfig):
    worker_index = comm.rank - 1
    n_workers = comm.size - 1
    if config.setup_cost is not None:
        yield from comm.compute(units=config.setup_cost(worker_index, n_workers))
    generator = config.make_generator(worker_index, n_workers)

    # Phase A: stream generated items to the master in batches.
    batch: list[Any] = []
    for item, cost in generator:
        if cost:
            yield from comm.compute(units=cost)
        batch.append(item)
        if len(batch) >= config.gen_batch:
            yield from comm.send(batch, dest=0, tag=TAG_GENERATED)
            batch = []
    if batch:
        yield from comm.send(batch, dest=0, tag=TAG_GENERATED)
    yield from comm.send(None, dest=0, tag=TAG_GEN_DONE, nbytes=1)
    yield from comm.send(None, dest=0, tag=TAG_PULL, nbytes=1)

    # Phase B: execute task batches until stopped.
    executed = 0
    while True:
        message = yield from comm.recv(source=0)
        if message.tag == TAG_STOP:
            return executed
        results = []
        for task in message.payload:
            result, cost = config.execute_task(task)
            if cost:
                yield from comm.compute(units=cost)
            results.append(result)
            executed += 1
        yield from comm.send(results, dest=0, tag=TAG_RESULTS)


def _serial(comm: SimComm, config: MasterWorkerConfig):
    """Degenerate p == 1 path: one rank does everything, costs still charged."""
    if config.setup_cost is not None:
        yield from comm.compute(units=config.setup_cost(0, 1))
    generator = config.make_generator(0, 1)
    for item, cost in generator:
        if cost:
            yield from comm.compute(units=cost)
        yield from comm.compute(units=config.filter_cost)
        task = config.filter_item(item)
        if task is None:
            continue
        result, exec_cost = config.execute_task(task)
        if exec_cost:
            yield from comm.compute(units=exec_cost)
        absorb_cost = config.absorb_result(result)
        if absorb_cost:
            yield from comm.compute(units=absorb_cost)


def _program(comm: SimComm, config: MasterWorkerConfig):
    if comm.size == 1:
        yield from _serial(comm, config)
    elif comm.rank == 0:
        yield from _master(comm, config)
    else:
        return (yield from _worker(comm, config))


def run_master_worker(
    cluster: VirtualCluster, config: MasterWorkerConfig
) -> SimulationResult:
    """Run one master-worker phase.  The phase's own state lives in the
    config's callbacks; each worker rank's result is the number of tasks
    it executed."""
    return cluster.run(_program, args=(config,))
