"""Timeline-analysis tests (the file keeps its name: the test IDs are
the tier-1 floor's)."""

from __future__ import annotations

import pytest

from repro.parallel.simulator import SimComm, VirtualCluster
from repro.parallel.trace import Timeline


def _staggered(comm: SimComm):
    if comm.rank == 0:
        yield from comm.compute(seconds=1.0)
        for w in range(1, comm.size):
            yield from comm.send(w, dest=w)
        return None
    yield from comm.recv(source=0)
    yield from comm.compute(seconds=0.5 * comm.rank)
    return None


class TestTimeline:
    def test_requires_recording(self):
        sim = VirtualCluster(2).run(_staggered)
        with pytest.raises(ValueError, match="record_timeline"):
            Timeline(sim)

    def test_breakdown_sums(self):
        sim = VirtualCluster(4).run(_staggered, record_timeline=True)
        tl = Timeline(sim)
        for b in tl.breakdown():
            assert b.compute + b.send + b.wait + b.idle == pytest.approx(
                sim.elapsed, rel=1e-6
            )
        assert tl.breakdown()[3].compute == pytest.approx(1.5)

    def test_bottleneck_rank(self):
        sim = VirtualCluster(4).run(_staggered, record_timeline=True)
        tl = Timeline(sim)
        assert tl.bottleneck_rank() == 3  # the longest-computing worker

    def test_critical_fraction_bounds(self):
        sim = VirtualCluster(4).run(_staggered, record_timeline=True)
        frac = Timeline(sim).critical_fraction()
        assert 0.0 < frac <= 1.0

    def test_gantt_shape(self):
        sim = VirtualCluster(3).run(_staggered, record_timeline=True)
        chart = Timeline(sim).gantt(width=40)
        lines = chart.splitlines()
        assert len(lines) == 4  # header + 3 ranks
        assert all("|" in line for line in lines)
        assert "#" in chart and "." in chart

    def test_gantt_width_validation(self):
        sim = VirtualCluster(2).run(_staggered, record_timeline=True)
        with pytest.raises(ValueError):
            Timeline(sim).gantt(width=5)

    def test_breakdown_stats_match_rank_stats(self):
        sim = VirtualCluster(4).run(_staggered, record_timeline=True)
        tl = Timeline(sim)
        for b, stats in zip(tl.breakdown(), sim.rank_stats):
            assert b.compute == pytest.approx(stats.compute_seconds, rel=1e-9)
            assert b.wait == pytest.approx(stats.wait_seconds, rel=1e-9)
