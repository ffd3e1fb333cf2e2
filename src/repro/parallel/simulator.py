"""Discrete-event simulator for SPMD message-passing programs.

Rank programs are generator functions ``program(comm, *args, **kwargs)``
that perform real Python computation and *yield* through the
:class:`SimComm` primitives::

    def worker(comm):
        msg = yield from comm.recv(source=0)
        yield from comm.compute(units=cost_of(msg.payload))
        yield from comm.send(answer, dest=0)
        return summary

The engine advances per-rank virtual clocks: compute ops cost
``units / machine.compute_rate`` seconds, messages cost
``alpha + nbytes * beta``.  Scheduling is lowest-virtual-clock-first and
fully deterministic, so every simulated run is exactly reproducible.
The two collectives the rank programs use (a flat gather, a ring
all-to-all) are built from point-to-point messages inside
:class:`SimComm`, so their scaling with p emerges from the same cost
model rather than being posited.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator, Sequence

import numpy as np

from repro.parallel.machine import MachineModel, BLUEGENE_L

ANY_SOURCE = -1
ANY_TAG = -1

#: Tag space below this value is reserved for collectives.
_COLL_TAG_BASE = -1000


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked in recv with no matching message."""


class MemoryExceededError(RuntimeError):
    """A rank allocated more memory than the machine model provides."""


def estimate_nbytes(obj: Any) -> int:
    """Cheap structural size estimate for message payloads.

    NumPy arrays report their true buffer size; containers are walked
    recursively with an 16-byte per-object overhead — close enough for an
    alpha-beta cost model without the expense of pickling.
    """
    if obj is None:
        return 8
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 16
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 16
    if isinstance(obj, str):
        return len(obj) + 16
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 16 + sum(estimate_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            estimate_nbytes(k) + estimate_nbytes(v) for k, v in obj.items()
        )
    return 64


# ---------------------------------------------------------------------------
# Engine-internal ops and state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SendOp:
    dest: int
    tag: int
    payload: Any
    nbytes: int


@dataclass(frozen=True)
class _RecvOp:
    source: int
    tag: int

    def matches(self, message: "_Message") -> bool:
        return (self.source in (ANY_SOURCE, message.source)) and (
            self.tag in (ANY_TAG, message.tag)
        )


@dataclass(frozen=True)
class _ComputeOp:
    seconds: float


@dataclass(frozen=True)
class _Message:
    source: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float
    serial: int  # deposit order, for deterministic FIFO matching


@dataclass(frozen=True)
class Received:
    """What a recv returns to the rank program."""

    source: int
    tag: int
    payload: Any


@dataclass
class RankStats:
    """Per-rank accounting the scaling analyses consume."""

    compute_seconds: float = 0.0
    send_seconds: float = 0.0
    wait_seconds: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    mem_bytes: int = 0
    mem_peak_bytes: int = 0

    @property
    def busy_seconds(self) -> float:
        return self.compute_seconds + self.send_seconds


@dataclass
class _RankState:
    gen: Generator
    clock: float = 0.0
    done: bool = False
    result: Any = None
    inject: Any = None
    waiting: _RecvOp | None = None
    stats: RankStats = field(default_factory=RankStats)


@dataclass
class SimulationResult:
    """Outcome of one simulated SPMD run."""

    n_ranks: int
    machine: MachineModel
    elapsed: float
    rank_results: list[Any]
    rank_stats: list[RankStats]

    def parallel_efficiency(self) -> float:
        """busy time / (elapsed * p) — 1.0 means perfectly load balanced."""
        if self.elapsed <= 0:
            return 1.0
        busy = sum(s.busy_seconds for s in self.rank_stats)
        return busy / (self.elapsed * self.n_ranks)


# ---------------------------------------------------------------------------
# The communicator handed to rank programs
# ---------------------------------------------------------------------------


class SimComm:
    """MPI-flavoured communicator bound to one simulated rank.

    All communication methods are generators and must be invoked as
    ``yield from comm.method(...)`` inside a rank program.
    """

    def __init__(self, rank: int, size: int, machine: MachineModel, state: _RankState):
        self.rank = rank
        self.size = size
        self.machine = machine
        self._state = state
        self._coll_seq = 0

    # -- point to point -----------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0, nbytes: int | None = None):
        """Send a message (buffered semantics: sender pays alpha + n*beta)."""
        if tag <= _COLL_TAG_BASE:
            raise ValueError("tags <= -1000 are reserved for collectives")
        yield from self._send(payload, dest, tag, nbytes)

    def _send(self, payload: Any, dest: int, tag: int, nbytes: int | None = None):
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        size = estimate_nbytes(payload) if nbytes is None else int(nbytes)
        yield _SendOp(dest=dest, tag=tag, payload=payload, nbytes=size)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns a :class:`Received`."""
        received = yield _RecvOp(source=source, tag=tag)
        return received

    # -- compute and memory ---------------------------------------------------

    def compute(self, units: float = 0.0, *, seconds: float = 0.0):
        """Charge virtual compute time: ``units / rate`` plus raw seconds."""
        total = self.machine.compute_seconds(units) + seconds
        if total < 0:
            raise ValueError("negative compute time")
        yield _ComputeOp(seconds=total)

    def alloc(self, nbytes: int) -> None:
        """Account an allocation against this rank's node memory."""
        if nbytes < 0:
            raise ValueError("negative allocation")
        stats = self._state.stats
        stats.mem_bytes += nbytes
        stats.mem_peak_bytes = max(stats.mem_peak_bytes, stats.mem_bytes)
        if stats.mem_bytes > self.machine.memory_per_node:
            raise MemoryExceededError(
                f"rank {self.rank} exceeded {self.machine.memory_per_node} bytes "
                f"({stats.mem_bytes} allocated)"
            )

    def free(self, nbytes: int) -> None:
        """Release accounted memory."""
        stats = self._state.stats
        stats.mem_bytes = max(0, stats.mem_bytes - nbytes)

    # -- collectives ----------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return _COLL_TAG_BASE - self._coll_seq

    def gather(self, payload: Any, root: int = 0):
        """Flat gather to root; returns list indexed by rank at root, else None.

        Deliberately flat (not tree) — the pipeline's master-worker phases
        funnel into one node, and a flat gather keeps that serial cost
        visible exactly as the paper observed it.
        """
        tag = self._next_coll_tag()
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[root] = payload
            for _ in range(self.size - 1):
                message = yield from self.recv(source=ANY_SOURCE, tag=tag)
                out[message.source] = message.payload
            return out
        yield from self._send(payload, dest=root, tag=tag)
        return None

    def alltoall(self, payloads: Sequence[Any]):
        """Personalised all-to-all: rank r receives ``payloads[r]`` from
        every rank; returns the received list indexed by source.

        Implemented as the classic p-1-round ring exchange (send to
        ``rank + k``, receive from ``rank - k``), so its cost grows
        linearly with p under the alpha-beta model — the communication
        pattern of the distributed Shingle tuple shuffle.
        """
        tag = self._next_coll_tag()
        if len(payloads) != self.size:
            raise ValueError("alltoall needs one payload per rank")
        received: list[Any] = [None] * self.size
        received[self.rank] = payloads[self.rank]
        for k in range(1, self.size):
            dest = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            yield from self._send(payloads[dest], dest=dest, tag=tag)
            message = yield from self.recv(source=src, tag=tag)
            received[src] = message.payload
        return received


# ---------------------------------------------------------------------------
# The cluster engine
# ---------------------------------------------------------------------------


class VirtualCluster:
    """A simulated homogeneous cluster of ``n_ranks`` nodes."""

    def __init__(self, n_ranks: int, machine: MachineModel = BLUEGENE_L):
        if n_ranks < 1:
            raise ValueError(f"need at least one rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self.machine = machine

    def run(
        self,
        program: Callable[..., Iterator],
        *,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        per_rank_kwargs: Sequence[dict[str, Any]] | None = None,
    ) -> SimulationResult:
        """Execute ``program`` on every rank and simulate to completion.

        ``program(comm, *args, **kwargs)`` must be a generator function.
        ``per_rank_kwargs[r]`` (if given) is merged over ``kwargs`` for
        rank r — the usual way to hand each rank its data partition.
        """
        if kwargs is None:
            kwargs = {}
        if per_rank_kwargs is not None and len(per_rank_kwargs) != self.n_ranks:
            raise ValueError("per_rank_kwargs must have one entry per rank")

        states: list[_RankState] = []
        comms: list[SimComm] = []
        for rank in range(self.n_ranks):
            state = _RankState(gen=None)  # type: ignore[arg-type]
            comm = SimComm(rank, self.n_ranks, self.machine, state)
            merged = dict(kwargs)
            if per_rank_kwargs is not None:
                merged.update(per_rank_kwargs[rank])
            gen = program(comm, *args, **merged)
            if not hasattr(gen, "send"):
                raise TypeError("program must be a generator function (use yield)")
            state.gen = gen
            states.append(state)
            comms.append(comm)

        mailboxes: list[list[_Message]] = [[] for _ in range(self.n_ranks)]
        serial = 0
        # Min-heap of (clock, rank) for runnable ranks.
        heap: list[tuple[float, int]] = [(0.0, r) for r in range(self.n_ranks)]
        heapq.heapify(heap)
        in_heap = [True] * self.n_ranks
        n_done = 0

        def match(rank: int, op: _RecvOp) -> _Message | None:
            box = mailboxes[rank]
            best: _Message | None = None
            best_idx = -1
            for idx, message in enumerate(box):
                if op.matches(message):
                    if best is None or (message.arrival, message.serial) < (
                        best.arrival,
                        best.serial,
                    ):
                        best = message
                        best_idx = idx
            if best is not None:
                box.pop(best_idx)
            return best

        while n_done < self.n_ranks:
            if not heap:
                blocked = [
                    r for r, s in enumerate(states) if not s.done and s.waiting
                ]
                raise DeadlockError(
                    f"ranks {blocked} blocked in recv with no pending messages"
                )
            clock, rank = heapq.heappop(heap)
            in_heap[rank] = False
            state = states[rank]
            if state.done:
                continue

            # Run this rank until it blocks, finishes, or overtakes the
            # next runnable rank's clock (keeps global ordering causal).
            while True:
                if state.waiting is not None:
                    # Woken from a blocked recv: retry the match before
                    # touching the generator.
                    message = match(rank, state.waiting)
                    if message is None:
                        break  # spurious wake; stay blocked out of the heap
                    state.waiting = None
                    if message.arrival > state.clock:
                        state.stats.wait_seconds += message.arrival - state.clock
                        state.clock = message.arrival
                    state.inject = Received(
                        source=message.source, tag=message.tag, payload=message.payload
                    )
                try:
                    if state.inject is not None:
                        value, state.inject = state.inject, None
                        op = state.gen.send(value)
                    else:
                        op = next(state.gen)
                except StopIteration as stop:
                    state.done = True
                    state.result = stop.value
                    n_done += 1
                    break

                if isinstance(op, _ComputeOp):
                    state.clock += op.seconds
                    state.stats.compute_seconds += op.seconds
                elif isinstance(op, _SendOp):
                    cost = self.machine.transfer_seconds(op.nbytes)
                    state.clock += cost
                    state.stats.send_seconds += cost
                    state.stats.messages_sent += 1
                    state.stats.bytes_sent += op.nbytes
                    serial += 1
                    mailboxes[op.dest].append(
                        _Message(
                            source=rank,
                            tag=op.tag,
                            payload=op.payload,
                            nbytes=op.nbytes,
                            arrival=state.clock,
                            serial=serial,
                        )
                    )
                    dest_state = states[op.dest]
                    if (
                        dest_state.waiting is not None
                        and dest_state.waiting.matches(mailboxes[op.dest][-1])
                        and not in_heap[op.dest]
                    ):
                        # Wake the blocked receiver; it will retry its
                        # pending recv when scheduled.
                        wake_clock = max(dest_state.clock, state.clock)
                        heapq.heappush(heap, (wake_clock, op.dest))
                        in_heap[op.dest] = True
                elif isinstance(op, _RecvOp):
                    message = match(rank, op)
                    if message is None:
                        state.waiting = op
                        break
                    if message.arrival > state.clock:
                        state.stats.wait_seconds += message.arrival - state.clock
                        state.clock = message.arrival
                    state.inject = Received(
                        source=message.source, tag=message.tag, payload=message.payload
                    )
                else:
                    raise TypeError(f"rank {rank} yielded unknown op {op!r}")

                # Yield the engine if another runnable rank is behind us.
                if heap and state.clock > heap[0][0]:
                    heapq.heappush(heap, (state.clock, rank))
                    in_heap[rank] = True
                    break

        elapsed = max(s.clock for s in states)
        return SimulationResult(
            n_ranks=self.n_ranks,
            machine=self.machine,
            elapsed=elapsed,
            rank_results=[s.result for s in states],
            rank_stats=[s.stats for s in states],
        )
