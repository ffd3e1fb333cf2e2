"""Live telemetry: clock model, sampler, progress/ETA, `repro top`,
and the metrics-regression gate.

Contracts pinned here:

* one explicit clock pairing per recorder — worker wall-clock stamps
  rebase through it with bounded skew, clamped only at export;
* the sampler's JSONL file is append-only, one meta record, schema-
  versioned samples, and an end record on clean shutdown only;
* sampling survives failing probes and dying runs (the degraded-view
  path ``repro top`` renders for a SIGKILLed producer);
* progress = done / generated (monotone lower-bound estimate), exact
  for the serial path where submit is completion;
* ``compare-metrics`` fails on any scientific-counter drift and on
  wall-clock beyond the tolerance — and on nothing else.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    RUN_SCHEMA,
    ClockSync,
    Recorder,
    TELEMETRY_FILENAME,
    TelemetrySampler,
    clamp_rebased,
    compare_metrics,
    compare_report,
    counters_payload,
    gauge,
    heartbeat,
    phase_progress,
    read_telemetry,
    recording,
)
from repro.obs.telemetry import process_rss_bytes
from repro.obs.top import follow, render_screen
from repro.util.timing import format_seconds


class TestClockSync:
    def test_capture_brackets_wall_read(self):
        sync = ClockSync.capture()
        assert sync.pairing_uncertainty >= 0.0
        assert sync.pairing_uncertainty < 1.0  # sanity: no multi-second stall
        # The captured wall epoch is near the actual wall clock.
        assert abs(sync.epoch_wall - time.time()) < 5.0

    def test_now_is_monotonic(self):
        sync = ClockSync.capture()
        a = sync.now()
        b = sync.now()
        assert b >= a >= 0.0

    def test_wall_round_trip_is_tight_in_process(self):
        # Bounded by float resolution at wall-epoch magnitude (~1e9 s),
        # not by the pairing: ~0.25 us, far below pairing uncertainty.
        sync = ClockSync.capture()
        for t in (0.0, 0.5, 123.456):
            assert sync.from_wall(sync.to_wall(t)) == pytest.approx(t, abs=1e-5)

    def test_cross_recorder_skew_is_bounded(self):
        """Two recorders (master + 'worker') pair their clocks
        independently; rebasing a worker stamp through both pairings
        lands within the summed pairing uncertainty plus the time
        between the two captures."""
        master = Recorder()
        worker = Recorder()  # created after: its epoch is later
        stamp = worker.clock.to_wall(0.0)  # worker epoch, as wall time
        rebased = master.clock.from_wall(stamp)
        # Worker started after the master, so its epoch rebases to a
        # non-negative master-relative time (up to pairing uncertainty).
        slack = master.clock.pairing_uncertainty + worker.clock.pairing_uncertainty
        assert rebased >= -slack
        assert rebased < 5.0

    def test_negative_skew_preserved_then_clamped(self):
        """A stamp from before the master epoch rebases negative (real
        skew, kept for duration math) and clamps to zero at export."""
        master = Recorder()
        earlier = master.clock.to_wall(-0.25)
        rebased = master.clock.from_wall(earlier)
        assert rebased == pytest.approx(-0.25, abs=1e-6)
        assert clamp_rebased(rebased) == 0.0
        assert clamp_rebased(0.125) == 0.125

    def test_absorbed_worker_span_duration_survives_clamp_free_path(self):
        master = Recorder()
        worker = Recorder()
        with worker.span("align.local", cat="task"):
            time.sleep(0.01)
        master.absorb_wall_spans(worker.wall_spans(), lane=3)
        (span,) = master.spans
        assert span.lane == 3
        assert span.duration == pytest.approx(
            worker.spans[0].duration, abs=1e-3
        )


class TestGaugesAndHeartbeat:
    def test_gauge_last_write_wins(self):
        recorder = Recorder()
        recorder.gauge("depth", 3)
        recorder.gauge("depth", 1)
        assert recorder.gauge_value("depth") == 1
        assert recorder.gauge_value("missing", "x") == "x"
        assert recorder.gauges() == {"depth": 1}

    def test_phase_span_drives_phase_gauge(self):
        recorder = Recorder()
        with recorder.span("clustering", cat="phase"):
            assert recorder.gauge_value("phase") == "clustering"
            assert isinstance(recorder.gauge_value("phase.start"), float)
        assert recorder.gauge_value("phase") == ""

    def test_task_span_does_not_touch_phase_gauge(self):
        recorder = Recorder()
        with recorder.span("align", cat="task"):
            assert recorder.gauge_value("phase") is None

    def test_ambient_gauge_and_heartbeat_noop_without_recorder(self):
        gauge("q", 1)  # must not raise
        heartbeat(0, 0.5)

    def test_heartbeat_records_last_seen_and_busy(self):
        recorder = Recorder()
        with recording(recorder):
            heartbeat(2, 0.125)
            heartbeat(2)
        assert recorder.gauge_value("worker.2.last_seen") <= recorder.now()
        counters = recorder.counters()
        assert counters["runtime.heartbeats"] == 2
        assert counters["runtime.worker.2.busy_seconds"] == 0.125


def _sampler(tmp_path, recorder=None, **kwargs):
    recorder = recorder or Recorder(meta={"mode": "test", "workers": 2})
    return TelemetrySampler(recorder, tmp_path / "run", **kwargs)


class TestTelemetrySampler:
    def test_file_layout_meta_samples_end(self, tmp_path):
        sampler = _sampler(tmp_path, interval=0.01)
        sampler.recorder.count("rr.pairs", 7)
        sampler.recorder.gauge("phase", "redundancy")
        with sampler:
            time.sleep(0.06)
        meta, samples, end = read_telemetry(tmp_path / "run")
        assert meta["schema"] == 1
        assert meta["interval"] == 0.01
        assert meta["meta"]["mode"] == "test"
        assert "epoch_wall" in meta["clock"]
        assert meta["clock"]["pairing_uncertainty"] >= 0.0
        assert len(samples) >= 2
        seqs = [s["seq"] for s in samples]
        assert seqs == sorted(seqs)
        last = samples[-1]
        assert last["counters"]["rr.pairs"] == 7
        assert last["phase"] == "redundancy"
        assert end["status"] == "finished"
        assert end["samples"] == len(samples)

    def test_rss_is_reported(self, tmp_path):
        assert process_rss_bytes() > 1024 * 1024  # >1 MiB, we're Python
        sampler = _sampler(tmp_path)
        sampler.open()
        record = sampler.sample_now()
        sampler.stop()
        assert record["rss_bytes"] > 1024 * 1024

    def test_probe_failure_does_not_stop_sampling(self, tmp_path):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("backend went away")
            return {"ok": True}

        sampler = _sampler(tmp_path, probes={"runtime": flaky})
        sampler.open()
        first = sampler.sample_now()
        second = sampler.sample_now()
        third = sampler.sample_now()
        sampler.stop()
        assert first["probes"]["runtime"] == {"ok": True}
        assert "backend went away" in second["probes"]["runtime"]["error"]
        assert third["seq"] == 3  # kept ticking after the failure

    def test_error_exit_writes_error_end_record(self, tmp_path):
        with pytest.raises(ValueError, match="boom"):
            with _sampler(tmp_path, interval=0.01):
                raise ValueError("boom")
        _, _, end = read_telemetry(tmp_path / "run")
        assert end["status"] == "error"
        assert "boom" in end["error"]

    def test_reader_tolerates_truncated_tail_and_missing_end(self, tmp_path):
        sampler = _sampler(tmp_path)
        sampler.open()
        sampler.sample_now()
        sampler.sample_now()
        sampler.stop()
        path = tmp_path / "run" / TELEMETRY_FILENAME
        lines = path.read_text().splitlines()
        # Drop the end record, truncate the last sample mid-JSON: the
        # on-disk state of a SIGKILLed producer raced by a reader.
        mangled = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
        path.write_text("\n".join(mangled))
        meta, samples, end = read_telemetry(path)
        assert meta is not None
        assert len(samples) == 2  # the truncated final sample is dropped
        assert end is None

    def test_reader_skips_lines_that_are_not_objects(self, tmp_path, capsys):
        """Valid JSON that is not a record is skipped like a torn line,
        by the reader and by ``repro top``."""
        sampler = _sampler(tmp_path)
        sampler.open()
        sampler.sample_now()
        sampler.stop()
        path = tmp_path / "run" / TELEMETRY_FILENAME
        with path.open("a") as fh:
            fh.write('42\n[1]\nnull\n"sample"\n')
        meta, samples, end = read_telemetry(path)
        assert meta is not None and len(samples) == 2  # + stop()'s
        assert end["status"] == "finished"
        assert follow(path, max_refreshes=1, clear=False) == 0
        assert "status: finished" in capsys.readouterr().out

    def test_a_restarted_producer_starts_the_stream_over(self, tmp_path):
        """A second producer appends its own meta line; the reader
        returns that producer's samples, not a mix of both lives."""
        for _ in range(2):
            sampler = _sampler(tmp_path)
            sampler.open()
            sampler.sample_now()
            sampler.sample_now()
        meta, samples, end = read_telemetry(tmp_path / "run")
        assert meta is not None and end is None
        assert [s["seq"] for s in samples] == [1, 2]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_telemetry(tmp_path / "nope") == (None, [], None)

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            _sampler(tmp_path, interval=0.0)


def _mk_sample(seq, t, phase, counters, gauges=None, probes=None):
    gauges = dict(gauges or {})
    gauges.setdefault("phase", phase)
    return {
        "type": "sample", "seq": seq, "t": t, "wall": t, "phase": phase,
        "counters": counters, "gauges": gauges, "rss_bytes": 10 * 2**20,
        "probes": probes or {},
    }


class TestPhaseProgress:
    def test_backend_done_vs_generated(self):
        samples = [
            _mk_sample(1, 1.0, "clustering",
                       {"ccd.alignments": 100, "runtime.pairs_done.clustering": 20},
                       gauges={"phase.start": 0.0}),
            _mk_sample(2, 2.0, "clustering",
                       {"ccd.alignments": 200, "runtime.pairs_done.clustering": 120},
                       gauges={"phase.start": 0.0}),
        ]
        progress = phase_progress(samples)
        assert progress.phase == "clustering"
        assert progress.elapsed == pytest.approx(2.0)
        assert progress.generated == 200
        assert progress.done == 120
        assert progress.fraction == pytest.approx(0.6)
        assert progress.rate == pytest.approx(100.0)  # (120-20)/1s
        assert progress.eta_seconds == pytest.approx(0.8)  # 80 left / 100/s
        text = progress.describe()
        assert "clustering" in text and "ETA" in text

    def test_serial_fallback_done_equals_generated(self):
        samples = [_mk_sample(1, 1.0, "redundancy", {"rr.pairs": 50},
                              gauges={"phase.start": 0.5})]
        progress = phase_progress(samples)
        assert progress.done == progress.generated == 50
        assert progress.fraction == 1.0

    def test_done_clamped_to_generated(self):
        # Cache-hit accounting can race generation between two counter
        # reads; progress never reports > 100%.
        samples = [_mk_sample(1, 1.0, "bipartite",
                              {"bipartite.pairs": 10,
                               "runtime.pairs_done.bipartite": 12})]
        progress = phase_progress(samples)
        assert progress.done == 10
        assert progress.fraction == 1.0

    def test_no_phase_means_no_progress(self):
        assert phase_progress([]) is None
        assert phase_progress([_mk_sample(1, 1.0, "", {})]) is None

    def test_format_seconds(self):
        """Progress lines and ``repro top`` print through the one
        formatter (``util/timing.py``); elapsed is clamped at zero
        before it gets there."""
        assert format_seconds(0.4) == "400.0ms"
        assert format_seconds(42) == "42.0s"
        assert format_seconds(185) == "3m 05s"
        assert format_seconds(8040) == "2h 14m"
        samples = [_mk_sample(1, 1.0, "bipartite", {"bipartite.pairs": 10},
                              gauges={"phase.start": 5.0})]  # after its t
        assert phase_progress(samples).describe().startswith(
            "bipartite: 0.0s elapsed")


def _meta(workers=2, interval=0.25):
    return {
        "type": "meta", "schema": 1, "interval": interval,
        "meta": {"mode": "process", "workers": workers},
        "clock": {"epoch_wall": 0.0, "pairing_uncertainty": 0.0},
        "pid": 1234,
    }


class TestTopRendering:
    def test_finished_run_renders(self):
        samples = [_mk_sample(1, 1.0, "", {"rr.pairs": 42})]
        end = {"type": "end", "t": 1.5, "status": "finished",
               "error": None, "samples": 1}
        screen = "\n".join(render_screen(_meta(), samples, end))
        assert "status: finished" in screen
        assert "pairs=42" in screen
        assert "mode=process" in screen

    def test_live_run_shows_workers_queues_progress(self):
        counters1 = {"ccd.alignments": 100, "runtime.pairs_done.clustering": 30,
                     "runtime.worker.0.busy_seconds": 0.2,
                     "runtime.worker.1.busy_seconds": 0.0}
        counters2 = {"ccd.alignments": 180, "runtime.pairs_done.clustering": 130,
                     "runtime.worker.0.busy_seconds": 1.1,
                     "runtime.worker.1.busy_seconds": 0.0}
        gauges = {
            "phase.start": 0.0,
            "worker.0.last_seen": 1.9, "worker.1.last_seen": 0.2,
            "stream.1.in_flight": 3, "stream.1.kind": "local",
            "runtime.outstanding": 3,
            "ccd.components_now": 17,
        }
        probes = {"runtime": {"outstanding": 3, "workers": [
            {"index": 0, "alive": True, "exitcode": None},
            {"index": 1, "alive": True, "exitcode": None},
        ]}, "cache": {"hit_rate": 0.25, "entries": 1000}}
        samples = [
            _mk_sample(1, 1.0, "clustering", counters1, gauges, probes),
            _mk_sample(2, 2.0, "clustering", counters2, gauges, probes),
        ]
        screen = "\n".join(render_screen(_meta(), samples, None, live=True))
        assert "status: running" in screen
        assert "worker 0" in screen and "worker 1" in screen
        assert "busy" in screen
        assert "stream 1 (local): 3 batch(es) in flight" in screen
        assert "3 batch(es) outstanding" in screen
        assert "ETA" in screen
        assert "union-find components: 17" in screen
        assert "25.0% hit rate" in screen

    def test_dead_run_renders_degraded_view(self):
        """No end record + dead worker probe: the SIGKILL aftermath."""
        probes = {"runtime": {"outstanding": 2, "workers": [
            {"index": 0, "alive": False, "exitcode": -9},
            {"index": 1, "alive": True, "exitcode": None},
        ]}, "cache": {"error": "RuntimeError: store detached"}}
        samples = [_mk_sample(5, 9.0, "clustering",
                              {"ccd.alignments": 10},
                              {"worker.0.last_seen": 1.0,
                               "worker.1.last_seen": 8.9,
                               "phase.start": 0.0},
                              probes)]
        screen = "\n".join(render_screen(_meta(), samples, None))
        assert "no end record" in screen
        assert "LOST" in screen
        assert "probe degraded" in screen

    def test_empty_file_renders_placeholder(self):
        assert "no samples" in render_screen(None, [], None)[0]

    def test_follow_once_post_hoc(self, tmp_path, capsys):
        recorder = Recorder(meta={"mode": "serial", "workers": 1})
        sampler = TelemetrySampler(recorder, tmp_path)
        with recording(recorder):
            sampler.open()
            with recorder.span("redundancy", cat="phase"):
                recorder.count("rr.pairs", 3)
                sampler.sample_now()
            sampler.stop()
        rc = follow(tmp_path, max_refreshes=1, clear=False)
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: finished" in out

    def test_follow_empty_returns_nonzero(self, tmp_path, capsys):
        (tmp_path / TELEMETRY_FILENAME).write_text("")
        assert follow(tmp_path, max_refreshes=1) == 1


def _run_payload(wall=10.0, **sci):
    scientific = {"rr.pairs": 100, "ccd.merges": 5, **sci}
    return {
        "schema": RUN_SCHEMA,
        "meta": {"mode": "serial"},
        "counters": dict(scientific),
        "scientific": scientific,
        "phase_seconds": {"redundancy": wall * 0.6, "clustering": wall * 0.4},
    }


class TestRegressionGate:
    """The gate diffs two run records: what ``counters_payload`` makes
    of a recorder is both its run side and its baseline side."""

    def test_bench_payload_schema(self):
        recorder = Recorder(meta={"mode": "serial"})
        recorder.count("rr.pairs", 3)
        with recorder.span("redundancy", cat="phase"):
            pass
        doc = counters_payload(recorder)
        assert doc["schema"] == RUN_SCHEMA == "repro-run/1"
        assert doc["meta"] == {"mode": "serial"}
        assert doc["counters"] == {"rr.pairs": 3}
        assert doc["scientific"]["rr.pairs"] == 3
        assert list(doc["phase_seconds"]) == ["redundancy"]
        # A record passes against itself: it is its own baseline.
        assert compare_metrics(doc, json.loads(json.dumps(doc))) == []

    def test_baseline_round_trip_passes(self):
        run = _run_payload()
        baseline = _run_payload()
        assert compare_metrics(run, baseline) == []
        report = "\n".join(compare_report(run, baseline, []))
        assert "OK" in report
        assert "(2 scientific counters)" in report

    def test_counter_drift_fails(self):
        baseline = _run_payload()
        drifted = _run_payload()
        drifted["scientific"]["ccd.merges"] = 6
        violations = compare_metrics(drifted, baseline)
        assert len(violations) == 1
        assert "counter drift" in violations[0]
        assert "ccd.merges" in violations[0]
        report = "\n".join(compare_report(drifted, baseline, violations))
        assert "FAIL: 1 violation(s)" in report

    def test_missing_counter_counts_as_drift(self):
        baseline = _run_payload()
        gutted = _run_payload()
        del gutted["scientific"]["rr.pairs"]
        assert any("rr.pairs" in v for v in compare_metrics(gutted, baseline))

    def test_slowdown_beyond_tolerance_fails(self):
        baseline = _run_payload(wall=10.0)
        slow = _run_payload(wall=12.5)  # +25% > default 20%
        violations = compare_metrics(slow, baseline)
        assert len(violations) == 1
        assert "wall-clock regression" in violations[0]
        # A looser tolerance admits the same run.
        assert compare_metrics(slow, baseline, slowdown_tolerance=0.30) == []
        # And the wall-clock check can be disabled outright.
        assert compare_metrics(slow, baseline, check_wallclock=False) == []

    def test_slowdown_within_tolerance_passes(self):
        baseline = _run_payload(wall=10.0)
        assert compare_metrics(_run_payload(wall=11.5), baseline) == []

    def test_speedup_never_fails(self):
        baseline = _run_payload(wall=10.0)
        assert compare_metrics(_run_payload(wall=2.0), baseline) == []

    def test_a_slower_phase_shows_in_the_per_phase_delta(self):
        """What changed since the baseline run, by phase — also when the
        total stays inside the tolerance."""
        baseline = _run_payload(wall=10.0)
        run = _run_payload(wall=10.0)
        run["phase_seconds"]["clustering"] += 1.5
        assert compare_metrics(run, baseline) == []
        report = compare_report(run, baseline, [])
        (row,) = [line for line in report if line.lstrip().startswith("clustering")]
        assert "5.500s vs" in row and "4.000s" in row and "(+1.500s)" in row
        (row,) = [line for line in report if line.lstrip().startswith("redundancy")]
        assert "(+0.000s)" in row

    @pytest.mark.parametrize("broken", [
        {},                                            # no schema tag
        [],                                            # not an object
        {"schema": "repro-bench/1", "metrics": {}},    # the retired schema
        {"schema": RUN_SCHEMA, "scientific": {}},      # nothing to compare
    ], ids=["empty", "list", "old-schema", "no-counters"])
    def test_a_gate_that_compared_nothing_does_not_pass(self, broken):
        for run, baseline in ((broken, _run_payload()), (_run_payload(), broken)):
            with pytest.raises(ValueError, match="run record|JSON object|scientific"):
                compare_metrics(run, baseline)


class TestPipelineTelemetryIntegration:
    @pytest.fixture(scope="class")
    def config(self):
        from repro.core.config import PipelineConfig
        from repro.shingle.algorithm import ShingleParams

        return PipelineConfig(
            shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
            min_component_size=4,
            min_subgraph_size=4,
        )

    def test_serial_run_streams_telemetry(self, tiny_metagenome, config,
                                          tmp_path):
        from repro.core.pipeline import ProteinFamilyPipeline

        result = ProteinFamilyPipeline(config).run(
            tiny_metagenome.sequences,
            telemetry_dir=tmp_path,
            telemetry_interval=0.01,
        )
        meta, samples, end = read_telemetry(tmp_path)
        assert meta["meta"]["mode"] == "serial"
        assert end["status"] == "finished"
        assert samples  # final sample is guaranteed even for fast runs
        last = samples[-1]
        assert last["counters"]["rr.pairs"] == result.obs.value("rr.pairs")
        assert last["probes"]["cache"]["entries"] > 0
        assert last["probes"]["cache"]["hit_rate"] >= 0.0

    def test_observe_false_runs_bare(self, tiny_metagenome, config, tmp_path):
        from repro.core.pipeline import ProteinFamilyPipeline

        plain = ProteinFamilyPipeline(config).run(tiny_metagenome.sequences)
        bare = ProteinFamilyPipeline(config).run(
            tiny_metagenome.sequences, observe=False
        )
        assert bare.obs is None
        assert bare.families == plain.families  # observability is inert
