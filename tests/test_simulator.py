"""Discrete-event simulator semantics: p2p, collectives, timing, memory."""

from __future__ import annotations

import pytest

from repro.parallel.machine import BLUEGENE_L, XEON_CLUSTER, MachineModel
from repro.parallel.simulator import (
    ANY_SOURCE,
    DeadlockError,
    MemoryExceededError,
    SimComm,
    VirtualCluster,
    estimate_nbytes,
)


class TestMachineModel:
    def test_presets(self):
        assert BLUEGENE_L.memory_per_node == 512 * 1024 * 1024
        assert XEON_CLUSTER.compute_rate > BLUEGENE_L.compute_rate
        assert XEON_CLUSTER.alpha > BLUEGENE_L.alpha  # gigE vs torus latency

    def test_compute_seconds(self):
        m = MachineModel("m", compute_rate=100.0, alpha=0, beta=0, memory_per_node=1)
        assert m.compute_seconds(50) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            m.compute_seconds(-1)

    def test_transfer_seconds(self):
        m = MachineModel("m", compute_rate=1, alpha=1e-3, beta=1e-6, memory_per_node=1)
        assert m.transfer_seconds(1000) == pytest.approx(1e-3 + 1e-3)
        with pytest.raises(ValueError):
            m.transfer_seconds(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel("m", compute_rate=0, alpha=0, beta=0, memory_per_node=1)
        with pytest.raises(ValueError):
            MachineModel("m", compute_rate=1, alpha=0, beta=0, memory_per_node=0)


class TestEstimateNbytes:
    def test_numpy(self):
        import numpy as np

        assert estimate_nbytes(np.zeros(100, dtype=np.int64)) == 816

    def test_containers(self):
        assert estimate_nbytes([1, 2, 3]) == 16 + 24
        assert estimate_nbytes({"k": 1}) == 16 + (1 + 16) + 8
        assert estimate_nbytes(None) == 8
        assert estimate_nbytes("abcd") == 20


class TestPointToPoint:
    def test_ping_pong(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                yield from comm.send("ping", dest=1, tag=7)
                msg = yield from comm.recv(source=1, tag=8)
                return msg.payload
            msg = yield from comm.recv(source=0, tag=7)
            yield from comm.send(msg.payload + "-pong", dest=0, tag=8)
            return None

        res = VirtualCluster(2).run(program)
        assert res.rank_results[0] == "ping-pong"
        assert res.elapsed > 0

    def test_any_source_earliest_arrival_wins(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                out = []
                for _ in range(2):
                    msg = yield from comm.recv(source=ANY_SOURCE)
                    out.append(msg.source)
                return out
            # rank 2 computes first, so rank 1's message arrives earlier
            if comm.rank == 2:
                yield from comm.compute(units=1e9)
            yield from comm.send(comm.rank, dest=0)
            return None

        res = VirtualCluster(3).run(program)
        assert res.rank_results[0] == [1, 2]

    def test_tag_matching(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                yield from comm.send("a", dest=1, tag=1)
                yield from comm.send("b", dest=1, tag=2)
                return None
            msg_b = yield from comm.recv(source=0, tag=2)
            msg_a = yield from comm.recv(source=0, tag=1)
            return (msg_a.payload, msg_b.payload)

        res = VirtualCluster(2).run(program)
        assert res.rank_results[1] == ("a", "b")

    def test_fifo_same_source_same_tag(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                for k in range(5):
                    yield from comm.send(k, dest=1)
                return None
            got = []
            for _ in range(5):
                msg = yield from comm.recv(source=0)
                got.append(msg.payload)
            return got

        res = VirtualCluster(2).run(program)
        assert res.rank_results[1] == [0, 1, 2, 3, 4]

    def test_deadlock_detected(self):
        def program(comm: SimComm):
            yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=9)

        with pytest.raises(DeadlockError):
            VirtualCluster(2).run(program)

    def test_reserved_tag_rejected(self):
        def program(comm: SimComm):
            yield from comm.send(None, dest=0, tag=-5000)

        with pytest.raises(ValueError, match="reserved"):
            VirtualCluster(1).run(program)

    def test_invalid_dest(self):
        def program(comm: SimComm):
            yield from comm.send(None, dest=9)

        with pytest.raises(ValueError, match="out of range"):
            VirtualCluster(2).run(program)

    def test_non_generator_program_rejected(self):
        def program(comm):
            return 42

        with pytest.raises(TypeError, match="generator"):
            VirtualCluster(1).run(program)


class TestTiming:
    def test_compute_advances_clock(self):
        def program(comm: SimComm):
            yield from comm.compute(units=BLUEGENE_L.compute_rate)  # exactly 1s

        res = VirtualCluster(1).run(program)
        assert res.elapsed == pytest.approx(1.0)
        assert res.rank_stats[0].compute_seconds == pytest.approx(1.0)

    def test_message_costs_alpha_beta(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                yield from comm.send(None, dest=1, nbytes=10**6)
            else:
                yield from comm.recv(source=0)

        res = VirtualCluster(2).run(program)
        expected = BLUEGENE_L.transfer_seconds(10**6)
        assert res.rank_stats[0].send_seconds == pytest.approx(expected)
        assert res.elapsed >= expected

    def test_receiver_waits(self):
        def program(comm: SimComm):
            if comm.rank == 0:
                yield from comm.compute(seconds=2.0)
                yield from comm.send(None, dest=1)
            else:
                yield from comm.recv(source=0)

        res = VirtualCluster(2).run(program)
        assert res.elapsed >= 2.0
        assert res.rank_stats[1].wait_seconds > 1.9

    def test_determinism(self):
        def program(comm: SimComm):
            total = yield from _allreduce(comm, comm.rank, sum)
            yield from comm.compute(units=1000 * (comm.rank + 1))
            yield from comm.alltoall([None] * comm.size)
            return total

        a = VirtualCluster(7).run(program)
        b = VirtualCluster(7).run(program)
        assert a.elapsed == b.elapsed
        assert a.rank_results == b.rank_results
        assert a.rank_stats == b.rank_stats

    def test_parallel_efficiency_bounds(self):
        def program(comm: SimComm):
            yield from comm.compute(seconds=1.0)

        res = VirtualCluster(4).run(program)
        assert res.parallel_efficiency() == pytest.approx(1.0)


def _fan_out(comm: SimComm, payloads, root: int = 0):
    """``payloads[r]`` from ``root`` to every rank ``r``; returns this
    rank's.  (Only ``root`` need pass payloads.)"""
    if comm.rank != root:
        message = yield from comm.recv(source=root, tag=1)
        return message.payload
    for dest in range(comm.size):
        if dest != root:
            yield from comm.send(payloads[dest], dest=dest, tag=1)
    return payloads[root]


def _allreduce(comm: SimComm, value, fold):
    """``fold`` of every rank's value, on every rank."""
    values = yield from comm.gather(value)
    result = yield from _fan_out(
        comm, None if values is None else [fold(values)] * comm.size)
    return result


class TestCollectives:
    """``gather`` (with ``alltoall``, see ``test_parallel_shingle.py``)
    is the collective the simulator offers; the others a rank program
    may want are a fan-out from a root and a fold of a gather, written
    here as such a program writes them — over ``send`` / ``recv``."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    def test_bcast(self, p):
        def program(comm: SimComm):
            value = yield from _fan_out(comm, ["data"] * comm.size)
            return value

        res = VirtualCluster(p).run(program)
        assert res.rank_results == ["data"] * p

    def test_bcast_nonzero_root(self):
        def program(comm: SimComm):
            value = yield from _fan_out(comm, [comm.rank] * comm.size, root=2)
            return value

        res = VirtualCluster(5).run(program)
        assert res.rank_results == [2] * 5

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_gather(self, p):
        def program(comm: SimComm):
            out = yield from comm.gather(comm.rank * 10, root=0)
            return out

        res = VirtualCluster(p).run(program)
        assert res.rank_results[0] == [r * 10 for r in range(p)]
        assert all(r is None for r in res.rank_results[1:])

    @pytest.mark.parametrize("p", [1, 2, 4, 6])
    def test_scatter(self, p):
        def program(comm: SimComm):
            payloads = [f"item{r}" for r in range(comm.size)] if comm.rank == 0 else None
            item = yield from _fan_out(comm, payloads)
            return item

        res = VirtualCluster(p).run(program)
        assert res.rank_results == [f"item{r}" for r in range(p)]

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_reduce_sum(self, p):
        def program(comm: SimComm):
            values = yield from comm.gather(comm.rank + 1)
            return None if values is None else sum(values)

        res = VirtualCluster(p).run(program)
        assert res.rank_results[0] == p * (p + 1) // 2

    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_allreduce_max(self, p):
        def program(comm: SimComm):
            out = yield from _allreduce(comm, comm.rank, max)
            return out

        res = VirtualCluster(p).run(program)
        assert res.rank_results == [p - 1] * p

    def test_barrier_synchronises(self):
        """No rank leaves a gather-and-release before the last arrives."""

        def program(comm: SimComm):
            if comm.rank == 0:
                yield from comm.compute(seconds=3.0)
            yield from _allreduce(comm, None, len)
            yield from comm.compute(seconds=1.0)

        res = VirtualCluster(4).run(program)
        # A rank's clock only moves by compute, send and wait, so its
        # last compute second starts at its final clock minus one.
        finals = [s.busy_seconds + s.wait_seconds for s in res.rank_stats]
        assert all(final - 1.0 >= 3.0 for final in finals)

    def test_collective_cost_grows_with_p(self):
        def program(comm: SimComm):
            yield from _allreduce(comm, None, len)  # the root sends p - 1

        t4 = VirtualCluster(4).run(program).elapsed
        t64 = VirtualCluster(64).run(program).elapsed
        assert t64 > t4


class TestMemoryAccounting:
    def test_alloc_free(self):
        def program(comm: SimComm):
            comm.alloc(1000)
            comm.free(400)
            yield from comm.compute(units=1)
            return comm._state.stats.mem_bytes

        res = VirtualCluster(1).run(program)
        assert res.rank_results[0] == 600
        assert res.rank_stats[0].mem_peak_bytes == 1000

    def test_exceeding_memory_raises(self):
        def program(comm: SimComm):
            comm.alloc(BLUEGENE_L.memory_per_node + 1)
            yield from comm.compute(units=1)

        with pytest.raises(MemoryExceededError):
            VirtualCluster(1).run(program)
