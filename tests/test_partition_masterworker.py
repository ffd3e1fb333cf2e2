"""Load-balancing and master-worker framework tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.partition import balance_items
from repro.parallel.simulator import VirtualCluster


class TestBalanceItems:
    def test_basic(self):
        bins = balance_items([5, 4, 3, 3, 3], 2)
        loads = [sum([5, 4, 3, 3, 3][i] for i in b) for b in bins]
        assert sum(len(b) for b in bins) == 5
        # OPT = 9 ([5,4] vs [3,3,3]); LPT guarantees <= 4/3 * OPT = 12.
        assert max(loads) <= 12

    def test_more_bins_than_items(self):
        bins = balance_items([1.0], 4)
        assert sum(len(b) for b in bins) == 1
        assert len(bins) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            balance_items([1], 0)
        with pytest.raises(ValueError):
            balance_items([-1], 2)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), max_size=40),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50)
    def test_partition_property(self, weights, n_bins):
        bins = balance_items(weights, n_bins)
        items = sorted(i for b in bins for i in b)
        assert items == list(range(len(weights)))

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100), min_size=8, max_size=40),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=50)
    def test_lpt_within_4_3_of_mean_bound(self, weights, n_bins):
        """LPT guarantee: max load <= 4/3 OPT + ...; a weaker but checkable
        bound is max <= mean + max_item."""
        bins = balance_items(weights, n_bins)
        loads = [sum(weights[i] for i in b) for b in bins]
        mean = sum(weights) / n_bins
        assert imbalance(loads) <= 1 + max(weights) / mean + 1e-9


def imbalance(bin_weights):
    """max/mean load ratio — 1.0 is perfect balance: the yardstick
    ``balance_items`` is held to here (no run reports it)."""
    if not bin_weights:
        return 1.0
    mean = sum(bin_weights) / len(bin_weights)
    if mean == 0:
        return 1.0
    return max(bin_weights) / mean


class TestImbalance:
    def test_perfect(self):
        assert imbalance([5, 5, 5]) == pytest.approx(1.0)

    def test_skewed(self):
        assert imbalance([10, 0, 0]) == pytest.approx(3.0)

    def test_degenerate(self):
        assert imbalance([]) == 1.0
        assert imbalance([0, 0]) == 1.0


def _square_config(n_items=60, filter_odd=True):
    """A phase whose callbacks count what the master generated, filtered
    out and had executed."""
    state = {"results": [], "generated": 0, "filtered_out": 0, "executed": 0}

    def make_gen(widx, nw):
        for x in range(widx, n_items, nw):
            yield (x, 5.0)

    def filter_item(x):
        state["generated"] += 1
        if filter_odd and x % 2:
            state["filtered_out"] += 1
            return None
        return x

    def execute_task(x):
        state["executed"] += 1
        return x * x, 50.0

    config = MasterWorkerConfig(
        make_generator=make_gen,
        filter_item=filter_item,
        execute_task=execute_task,
        absorb_result=lambda r: state["results"].append(r) or 1.0,
        gen_batch=8,
        task_batch=4,
    )
    return config, state


class TestMasterWorker:
    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    def test_counts_and_results(self, p):
        config, state = _square_config()
        run_master_worker(VirtualCluster(p), config)
        assert state["generated"] == 60
        assert state["filtered_out"] == 30
        assert state["executed"] == 30
        assert sorted(state["results"]) == [x * x for x in range(0, 60, 2)]

    def test_setup_cost_charged(self):
        config, _ = _square_config()
        config.setup_cost = lambda widx, nw: 1e9  # huge per-worker setup
        sim = run_master_worker(VirtualCluster(3), config)
        from repro.parallel.machine import BLUEGENE_L

        assert sim.elapsed >= 1e9 / BLUEGENE_L.compute_rate

    def test_no_filter_all_executed(self):
        config, state = _square_config(filter_odd=False)
        run_master_worker(VirtualCluster(4), config)
        assert state["executed"] == 60

    def test_worker_counts_sum(self):
        """Each worker rank answers the tasks it executed; they add up
        to every task, and the work was shared."""
        config, state = _square_config()
        sim = run_master_worker(VirtualCluster(4), config)
        per_worker = sim.rank_results[1:]
        assert sum(per_worker) == state["executed"] == 30
        assert sum(1 for n in per_worker if n) > 1

    def test_empty_generator(self):
        state = {"generated": 0, "executed": 0}

        def filter_item(x):
            state["generated"] += 1
            return x

        def execute_task(x):
            state["executed"] += 1
            return x, 1.0

        config = MasterWorkerConfig(
            make_generator=lambda w, n: iter(()),
            filter_item=filter_item,
            execute_task=execute_task,
            absorb_result=lambda r: 0.0,
        )
        run_master_worker(VirtualCluster(3), config)
        assert state == {"generated": 0, "executed": 0}

    def test_more_workers_speeds_compute_bound_phase(self):
        """With heavy per-task cost, doubling workers should cut the
        simulated time substantially."""

        def heavy_config():
            return MasterWorkerConfig(
                make_generator=lambda w, n: ((x, 1.0) for x in range(w, 64, n)),
                filter_item=lambda x: x,
                execute_task=lambda x: (x, 5e6),
                absorb_result=lambda r: 0.0,
                task_batch=1,
            )

        sim2 = run_master_worker(VirtualCluster(2), heavy_config())
        sim9 = run_master_worker(VirtualCluster(9), heavy_config())
        assert sim9.elapsed < sim2.elapsed / 3
