"""Observability-layer tests: the counter/trace contract of repro.obs.

The load-bearing guarantee is the **scientific counter contract**: for a
fixed configuration and input, every scientific counter in
``repro.obs.registry`` is identical across the SerialBackend (the
reference) and the ProcessBackend — the counter analogue of the
families/Table I result-invariance guarantee, checked with it in
``test_pipeline.py::TestSameAnswerEveryMode``.  This file pins down
what each mode's recorder carries besides, the Recorder primitives, the
worker span-shipping protocol, the exporters, and the ``repro profile``
CLI round-trip.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.core.pipeline import ProteinFamilyPipeline
from repro.eval.report import report_lines
from repro.obs import (
    HOST_TRACK,
    REGISTRY,
    SCIENTIFIC_COUNTERS,
    Recorder,
    chrome_trace,
    counters_payload,
    describe,
    scientific_view,
    write_chrome_trace,
    write_counters_json,
)
from repro.sequence.fasta import write_fasta
from tests.conftest import PIPELINE_MODES


class TestScientificCounterContract:
    """What every mode's recorder carries.  That the scientific counters
    (and the families) are bit-identical across ``mode_results`` is
    ``test_pipeline.py::TestSameAnswerEveryMode``."""

    def test_every_run_carries_a_recorder(self, mode_results):
        for mode, result in mode_results.items():
            assert result.obs is not None, mode
            assert result.obs.counters(), mode

    def test_ccd_pair_accounting_balances(self, mode_results):
        """Every streamed pair is either filtered or aligned — in every
        mode, even though the filtered/aligned split itself varies."""
        for mode, result in mode_results.items():
            counters = result.obs.counters()
            assert counters["ccd.pairs"] == (
                counters.get("ccd.filtered", 0)
                + counters.get("ccd.alignments", 0)
            ), mode

    def test_work_counters_reflect_mode(self, mode_results):
        process = mode_results["process"].obs.counters()
        assert process["runtime.batches"] >= 1
        assert process["runtime.batch_pairs"] >= 1
        assert process["runtime.max_outstanding"] >= 1
        assert process["runtime.worker.0.busy_seconds"] > 0.0
        assert process["runtime.shingle_jobs"] == process["dsd.components"]
        # Serial reference does no backend dispatch.
        serial = mode_results["default"].obs.counters()
        assert "runtime.batches" not in serial

    @staticmethod
    def _assert_aligned_once(counters, mode):
        admitted = (counters["rr.pairs"] + counters["ccd.alignments"]
                    + counters["bipartite.pairs"])
        assert admitted > 0, mode
        assert counters["batch.pairs"] == counters["runtime.batch_pairs"] \
            == admitted, mode
        assert counters["runtime.pairs_done.bipartite"] \
            == counters["bipartite.pairs"], mode
        assert counters["runtime.pairs_done.redundancy"] \
            == counters["rr.pairs"], mode

    def test_every_admitted_pair_is_aligned_once(self, mode_results):
        """No memo answers a pair: on a backend run the engine sees each
        pair RR, CCD and bipartite generation admit exactly once, and
        RR and bipartite progress reach their totals from dispatched
        pairs alone (an RR pair counted once, by the sweep that decides
        it or by the DP task that aligns it)."""
        for mode in mode_results:
            self._assert_aligned_once(mode_results[mode].obs.counters(), mode)

    def test_every_pair_is_aligned_once_where_rr_reaches_the_dp(
        self, rr_dp_metagenome, mode_workload
    ):
        """The same accounting on an input whose RR leaves pairs to the
        ``contain_dp`` tasks (the shared tiny input leaves none), so a
        DP pair counted twice, or not at all, shows."""
        _, config = mode_workload
        for mode in ("serial", "process"):
            result = ProteinFamilyPipeline(config).run(
                rr_dp_metagenome.sequences, **PIPELINE_MODES[mode]())
            counters = result.obs.counters()
            assert counters["batch.dp_pairs"] > 0, mode
            assert any(s.name == "align.contain_dp" for s in result.obs.spans), mode
            self._assert_aligned_once(counters, mode)

    def test_three_books_of_busy_time_agree_on_serial(self, mode_results):
        """A serial run books its busy time three ways: task spans on
        worker 0's lane, each phase's ``PhaseStats.busy_seconds`` and
        worker 0's heartbeat counter.  Per phase the spans come within
        1 ms + 2% of the busy seconds and within the phase's wall; the
        phases' busy seconds add up to the counter."""
        result = mode_results["serial"]
        spans = result.obs.spans
        windows = {s.name: s for s in spans if s.cat == "phase"}
        tasks = [s for s in spans if s.cat == "task"]
        assert tasks and {s.lane for s in tasks} == {1}
        for name, phase in result.runtime.phases.items():
            window = windows[name]
            booked = sum(s.duration for s in tasks
                         if window.start <= (s.start + s.end) / 2 <= window.end)
            assert booked > 0.0, name
            assert abs(booked - phase.busy_seconds) <= 1e-3 + 0.02 * phase.busy_seconds, name
            assert booked <= phase.wall_seconds, name
        busy = sum(phase.busy_seconds for phase in result.runtime.phases.values())
        assert busy == pytest.approx(
            result.obs.counters()["runtime.worker.0.busy_seconds"], rel=1e-9)

    def test_phase_spans_unified_across_modes(self, mode_results):
        expected = {"redundancy", "clustering", "bipartite", "dense_subgraphs"}
        for mode, result in mode_results.items():
            phases = result.obs.phase_seconds()
            assert set(phases) == expected, mode
            assert all(secs >= 0.0 for secs in phases.values()), mode

    def test_process_backend_ships_worker_spans(self, mode_results):
        recorder = mode_results["process"].obs
        worker_lanes = {
            s.lane
            for s in recorder.spans
            if s.lane > 0
        }
        assert worker_lanes, "no worker spans reached the master"
        assert worker_lanes <= {1, 2}  # workers=2 -> lanes 1 and 2
        names = {
            s.name for s in recorder.spans if s.lane > 0
        }
        assert names & {"align.local", "shingle.component"}

    def test_recorder_meta_describes_the_run(self, mode_results, mode_workload):
        sequences, _ = mode_workload
        serial = mode_results["default"].obs.meta
        assert serial["mode"] == "serial"
        assert serial["n_input"] == len(sequences)
        process = mode_results["process"].obs.meta
        assert process["mode"] == "process"
        assert process["workers"] == 2


class TestEngineAccounting:
    """``batch.pairs`` counts each pair a backend dispatched once, also a
    containment pair the prefilter hands on to the DP."""

    @pytest.fixture(scope="class")
    def redundant_input(self):
        from repro.sequence.generator import MetagenomeSpec, generate_metagenome

        return generate_metagenome(MetagenomeSpec(
            n_families=3, mean_family_size=6, mean_length=90,
            length_stddev=15, redundant_fraction=0.3, noise_fraction=0.05,
            seed=77,
        )).sequences

    @pytest.mark.parametrize("backend, workers", [("serial", None), ("process", 2)])
    def test_batch_pairs_equal_dispatched_pairs(self, redundant_input, backend,
                                                workers):
        from repro import PipelineConfig, ProteinFamilyPipeline
        from repro.shingle import ShingleParams

        config = PipelineConfig(
            shingle=ShingleParams(s1=3, c1=40, s2=3, c2=13),
            min_component_size=4, min_subgraph_size=4,
        )
        counters = ProteinFamilyPipeline(config).run(
            redundant_input, backend=backend, workers=workers,
        ).obs.counters()
        assert counters["batch.dp_pairs"] > 0  # the route that counted twice
        assert counters["batch.pairs"] == counters["runtime.batch_pairs"]
        assert 0 < counters["batch.cells"] <= counters["batch.padded_cells"]
        assert counters["batch.buckets"] > 0


class TestRecorder:
    def test_counters_accumulate(self):
        recorder = Recorder()
        recorder.count("x")
        recorder.count("x", 4)
        recorder.count("y", 2.5)
        assert recorder.value("x") == 5
        assert recorder.value("missing") == 0
        assert recorder.counters() == {"x": 5, "y": 2.5}

    def test_counters_snapshot_is_name_sorted_copy(self):
        recorder = Recorder()
        recorder.count("zz")
        recorder.count("aa")
        snapshot = recorder.counters()
        assert list(snapshot) == ["aa", "zz"]
        snapshot["aa"] = 99
        assert recorder.value("aa") == 1

    def test_set_max_is_a_high_water_mark(self):
        recorder = Recorder()
        recorder.set_max("depth", 3)
        recorder.set_max("depth", 7)
        recorder.set_max("depth", 5)
        assert recorder.value("depth") == 7

    def test_counter_handle(self):
        recorder = Recorder()
        handle = recorder.counter("hits")
        handle.add()
        handle.add(9)
        assert handle.value == 10
        assert recorder.value("hits") == 10

    def test_merge_counts_is_additive(self):
        recorder = Recorder()
        recorder.count("a", 1)
        recorder.merge_counts({"a": 2, "b": 3})
        assert recorder.counters() == {"a": 3, "b": 3}

    def test_thread_safety_of_counts(self):
        recorder = Recorder()

        def hammer():
            for _ in range(1000):
                recorder.count("n")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.value("n") == 8000

    def test_span_records_interval_and_args(self):
        recorder = Recorder()
        with recorder.span("work", cat="task", pairs=3):
            pass
        (span,) = recorder.spans
        assert span.name == "work"
        assert span.cat == "task"
        assert span.lane == 0
        assert span.duration >= 0.0
        assert dict(span.args) == {"pairs": 3}

    def test_nested_spans_both_recorded(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner", cat="task"):
                pass
        names = [s.name for s in recorder.spans]
        assert names == ["inner", "outer"]  # closed inner-first

    def test_phase_seconds_sums_per_name(self):
        recorder = Recorder()
        recorder.add_span("redundancy", "phase", 0.0, 1.0)
        recorder.add_span("redundancy", "phase", 2.0, 2.5)
        recorder.add_span("clustering", "phase", 1.0, 2.0)
        recorder.add_span("align.local", "task", 0.0, 9.0)  # not a phase
        assert recorder.phase_seconds() == {
            "redundancy": 1.5,
            "clustering": 1.0,
        }

    def test_wall_span_round_trip_across_recorders(self):
        """The worker half (wall_spans) and master half (absorb) of the
        span-shipping protocol preserve durations and assign the lane."""
        worker = Recorder()
        worker.add_span("align.local", "task", 1.0, 3.5)
        master = Recorder()
        master.absorb_wall_spans(worker.wall_spans(), lane=2)
        (span,) = master.spans
        assert span.name == "align.local"
        assert span.cat == "task"
        assert span.lane == 2
        assert span.duration == pytest.approx(2.5)
        assert master.lane_busy_seconds() == {2: pytest.approx(2.5)}

    def test_events_recorded_with_timestamp(self):
        recorder = Recorder()
        recorder.event("checkpoint", phase="rr")
        (event,) = recorder.events
        assert event.name == "checkpoint"
        assert event.ts >= 0.0
        assert dict(event.args) == {"phase": "rr"}


class TestAmbientRecording:
    def test_helpers_are_noops_without_recorder(self):
        assert obs.active() is None
        obs.count("ignored")
        obs.set_max("ignored", 5)
        obs.event("ignored")
        with obs.span("ignored"):
            pass
        assert obs.active() is None

    def test_recording_installs_and_restores(self):
        recorder = Recorder()
        with obs.recording(recorder):
            assert obs.active() is recorder
            obs.count("seen")
            with obs.span("block", cat="task"):
                pass
        assert obs.active() is None
        assert recorder.value("seen") == 1
        assert [s.name for s in recorder.spans] == ["block"]

    def test_recording_nests(self):
        outer, inner = Recorder(), Recorder()
        with obs.recording(outer):
            with obs.recording(inner):
                obs.count("x")
            obs.count("x")
            assert obs.active() is outer
        assert inner.value("x") == 1
        assert outer.value("x") == 1


class TestRegistry:
    def test_scientific_counters_are_registered(self):
        for name in SCIENTIFIC_COUNTERS:
            spec = REGISTRY[name]
            assert spec.scientific
            assert spec.description

    def test_scientific_view_zero_fills_missing(self):
        view = scientific_view({"rr.pairs": 7})
        assert view["rr.pairs"] == 7
        assert set(view) == set(SCIENTIFIC_COUNTERS)
        assert view["ccd.merges"] == 0

    def test_work_counters_are_not_scientific(self):
        for name in ("ccd.filtered", "ccd.alignments", "runtime.batches",
                     "suffix.candidates", "suffix.matches"):
            assert not REGISTRY[name].scientific
            assert name not in SCIENTIFIC_COUNTERS

    def test_describe(self):
        assert describe("rr.pairs") is REGISTRY["rr.pairs"]
        assert describe("runtime.worker.0.busy_seconds") is None


class TestExport:
    def _loaded_recorder(self):
        recorder = Recorder(meta={"mode": "test"})
        recorder.add_span("redundancy", "phase", 0.0, 0.25)
        recorder.add_span("align.local", "task", 0.0, 0.1, lane=1)
        recorder.event("checkpoint")
        recorder.count("rr.pairs", 12)
        return recorder

    def test_chrome_trace_structure(self):
        trace = chrome_trace(self._loaded_recorder())
        json.dumps(trace)  # must serialise as-is
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"redundancy", "align.local"}
        for e in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
        phase = next(e for e in complete if e["name"] == "redundancy")
        assert phase["dur"] == pytest.approx(250_000)  # 0.25 s in us
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["checkpoint"]
        metadata = [e for e in events if e["ph"] == "M"]
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        assert thread_names == {(HOST_TRACK, 0): "master", (HOST_TRACK, 1): "worker 0"}
        # One host, one trace process: every event carries its pid.
        assert {e["pid"] for e in events} == {HOST_TRACK}
        assert [e["name"] for e in metadata].count("process_name") == 1
        assert trace["otherData"]["counters"] == {"rr.pairs": 12}
        assert trace["otherData"]["meta"] == {"mode": "test"}

    def test_counters_payload_sections(self):
        payload = counters_payload(self._loaded_recorder())
        assert payload["meta"] == {"mode": "test"}
        assert payload["counters"]["rr.pairs"] == 12
        assert payload["scientific"]["rr.pairs"] == 12
        assert payload["scientific"]["ccd.merges"] == 0
        assert payload["phase_seconds"] == {
            "redundancy": pytest.approx(0.25)
        }

    def test_writers_produce_valid_json(self, tmp_path):
        recorder = self._loaded_recorder()
        trace_path = write_chrome_trace(recorder, tmp_path / "trace.json")
        counters_path = write_counters_json(
            recorder, tmp_path / "counters.json"
        )
        trace = json.loads(trace_path.read_text())
        assert isinstance(trace["traceEvents"], list)
        payload = json.loads(counters_path.read_text())
        assert payload["counters"] == {"rr.pairs": 12}


class TestObservationReport:
    def test_lines_cover_all_sections(self, mode_results):
        """Every fact either of the two old reports printed is in the
        one report, once."""
        result = mode_results["process"]
        lines = report_lines(result)
        text = "\n".join(lines)

        def once(fragment):
            assert text.count(fragment) == 1, fragment

        once("run: mode=process workers=2")
        once("phase timeline (")
        once("utilization")
        # A row per phase: seconds, share, bar, then the work columns
        # the runtime summary used to print.
        for name, phase in result.runtime.phases.items():
            (row,) = [line for line in lines
                      if line.startswith(f"  {name} ") and "tasks=" in line]
            assert "s " in row and "%" in row and "|" in row
            assert f"tasks={phase.tasks:,d}" in row
            assert "util=" in row
        once("worker lanes:")
        once("pair generation on the master")
        assert "candidates ->" in text
        once("scientific counters")
        counters = result.obs.counters()
        for name in ("rr.pairs", "ccd.merges", "dsd.subgraphs"):
            (row,) = [line for line in lines if line.startswith(f"  {name} ")]
            assert row.split()[1] == f"{int(counters[name]):,d}"
        assert "hits=" not in text and "cache" not in text
        once("CCD: ")
        once("shingle draws: ")
        assert f"{int(counters['dsd.hashes']):,d} element images hashed" in text
        once("string index: 1 build")

    def test_empty_recorder_yields_no_sections(self, mode_results):
        """Each section is omitted when its source is empty: an
        unobserved run reports the phase rows its backend measured and
        nothing else."""
        bare = dataclasses.replace(mode_results["serial"], obs=None)
        lines = report_lines(bare)
        assert lines[0].startswith("phase timeline")
        assert len(lines) == 1 + len(bare.runtime.phases)
        assert report_lines(dataclasses.replace(bare, runtime=None)) == []


class TestProfileCli:
    def test_profile_round_trip(self, mode_workload, tmp_path, capsys):
        sequences, _ = mode_workload
        fasta = tmp_path / "tiny.fa"
        write_fasta(sequences, fasta)
        trace_out = tmp_path / "trace.json"
        counters_out = tmp_path / "counters.json"
        rc = main([
            "profile", str(fasta),
            "--trace-out", str(trace_out),
            "--counters-out", str(counters_out),
            "--min-size", "4", "--shingle-s", "3", "--shingle-c", "40",
            "--backend", "process", "--workers", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase timeline" in out
        assert "trace.json" in out
        trace = json.loads(trace_out.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])
        payload = json.loads(counters_out.read_text())
        assert payload["scientific"]["rr.pairs"] > 0
        assert set(payload["phase_seconds"]) == {
            "redundancy", "clustering", "bipartite", "dense_subgraphs",
        }
