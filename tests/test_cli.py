"""Command-line interface round-trip tests."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, cmd_run, main
from repro.core.config import PipelineConfig
from repro.obs import RUN_SCHEMA, read_telemetry
from repro.pace.clustering import parallel_component_detection
from repro.pace.redundancy import parallel_redundancy_removal
from repro.parallel.machine import BLUEGENE_L
from repro.parallel.simulator import VirtualCluster
from repro.sequence.fasta import read_fasta
from repro.util.timing import format_seconds


@pytest.fixture()
def generated(tmp_path):
    fasta = tmp_path / "sample.fasta"
    rc = main(
        [
            "generate",
            str(fasta),
            "--families",
            "4",
            "--mean-size",
            "6",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    truth = fasta.with_suffix(".truth.json")
    assert truth.exists()
    return fasta, truth


class TestGenerate:
    def test_writes_fasta_and_truth(self, generated):
        fasta, truth = generated
        text = fasta.read_text()
        assert text.startswith(">")
        table = json.loads(truth.read_text())
        assert len(table) > 0
        assert all(isinstance(v, int) for v in table.values())

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.fasta"
        b = tmp_path / "b.fasta"
        main(["generate", str(a), "--families", "3", "--seed", "5"])
        main(["generate", str(b), "--families", "3", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestRunEvaluateCompare:
    def test_run_writes_families(self, generated, tmp_path, capsys):
        fasta, truth = generated
        out = tmp_path / "families.json"
        rc = main(
            [
                "run",
                str(fasta),
                "--output",
                str(out),
                "--shingle-c",
                "40",
                "--shingle-s",
                "3",
                "--min-size",
                "4",
            ]
        )
        assert rc == 0
        families = json.loads(out.read_text())
        assert isinstance(families, list)
        captured = capsys.readouterr().out
        assert "#Input" in captured

        rc = main(["evaluate", str(out), str(truth)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "PR =" in captured and "CC =" in captured

    def test_compare(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([["x", "y"], ["z"]]))
        b.write_text(json.dumps([["x", "y", "z"]]))
        rc = main(["compare", str(a), str(b)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean purity" in out
        assert "PR =" in out


class TestSimulate:
    def test_processor_sweep(self, generated, capsys):
        """Each row is the simulated RR and CCD drivers' virtual seconds
        at that processor count, under the default configuration."""
        fasta, _ = generated
        rc = main(["simulate", str(fasta), "--procs", "1", "4",
                   "--shingle-c", "30", "--shingle-s", "3"])
        assert rc == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["p", "RR", "CCD", "RR+CCD"]
        sequences, config = read_fasta(fasta), PipelineConfig()
        expected = []
        for p in (1, 4):
            cluster = VirtualCluster(p, BLUEGENE_L)
            rr = parallel_redundancy_removal(sequences, cluster, psi=config.psi)
            ccd = parallel_component_detection(sequences, rr.kept, cluster, psi=config.psi)
            seconds = (rr.sim.elapsed, ccd.sim.elapsed, rr.sim.elapsed + ccd.sim.elapsed)
            expected.append([str(p), *map(format_seconds, seconds)])
        assert [row.split() for row in rows] == expected
        assert rows[0] != rows[1]


class TestRuntimeBackend:
    def test_runtime_info(self, capsys):
        rc = main(["runtime-info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cpus" in out
        assert "default workers" in out
        assert "backend serial" in out
        assert "backend process" in out

    def test_run_with_serial_backend_prints_summary(self, generated, capsys):
        fasta, _ = generated
        rc = main(
            [
                "run", str(fasta),
                "--shingle-c", "40", "--shingle-s", "3", "--min-size", "4",
                "--backend", "serial",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "#Input" in out
        assert "run: mode=serial workers=1" in out
        assert "phase timeline" in out and "utilization" in out

    def test_run_with_process_backend(self, generated, tmp_path, capsys):
        fasta, truth = generated
        out_json = tmp_path / "families.json"
        rc = main(
            [
                "run", str(fasta), "--output", str(out_json),
                "--shingle-c", "40", "--shingle-s", "3", "--min-size", "4",
                "--backend", "process", "--workers", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "run: mode=process workers=2" in out
        assert json.loads(out_json.read_text())

    def test_process_and_serial_families_match(self, generated, tmp_path):
        fasta, _ = generated
        common = ["--shingle-c", "40", "--shingle-s", "3", "--min-size", "4"]
        serial_out = tmp_path / "serial.json"
        process_out = tmp_path / "process.json"
        main(["run", str(fasta), "--output", str(serial_out), *common])
        main(
            ["run", str(fasta), "--output", str(process_out), *common,
             "--backend", "process", "--workers", "2"]
        )
        assert json.loads(serial_out.read_text()) == json.loads(
            process_out.read_text()
        )


def _shape(report: str) -> list[str]:
    """Report lines with what two runs of one input may differ in — the
    measured numbers and the bars drawn from them — masked."""
    lines = []
    for line in report.splitlines():
        line = re.sub(r"\|[# ]*\|", "|bar|", line)
        line = re.sub(r"\d[\d,.]*", "N", line)
        lines.append(re.sub(r"\s+", " ", line))
    return lines


class TestOneVerbTwoNames:
    """``profile`` is ``run`` with default export paths."""

    COMMON = ["--shingle-c", "40", "--shingle-s", "3", "--min-size", "4"]

    def test_run_and_profile_share_one_handler_and_argument_set(self):
        parser = build_parser()
        run = parser.parse_args(["run", "x.fa"])
        profile = parser.parse_args(["profile", "x.fa"])
        assert run.func is profile.func is cmd_run
        differing = {k for k in vars(run) if getattr(run, k) != getattr(profile, k)}
        assert differing == {"command", "trace_out", "counters_out"}
        assert (run.trace_out, run.counters_out) == (None, None)
        assert (profile.trace_out, profile.counters_out) == (
            "trace.json", "counters.json")

    def test_run_and_profile_print_the_same_report(
        self, generated, tmp_path, capsys, monkeypatch
    ):
        fasta, _ = generated
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(fasta), *self.COMMON]) == 0
        ran = capsys.readouterr().out
        # run exports only when asked...
        assert not (tmp_path / "trace.json").exists()
        assert not (tmp_path / "counters.json").exists()
        assert main(["profile", str(fasta), *self.COMMON]) == 0
        profiled = capsys.readouterr().out
        # ...profile by default, into the working directory.
        record = json.loads((tmp_path / "counters.json").read_text())
        assert record["schema"] == RUN_SCHEMA
        assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        exports = [line for line in profiled.splitlines()
                   if line.startswith(("trace    ->", "counters ->"))]
        assert len(exports) == 2
        assert _shape(ran) == _shape(profiled)[:-2]
        assert "phase timeline" in ran and "scientific counters" in ran

    def test_run_exports_when_asked_and_profile_takes_runs_options(
        self, generated, tmp_path, capsys
    ):
        fasta, _ = generated
        counters = tmp_path / "c.json"
        assert main(["run", str(fasta), *self.COMMON,
                     "--counters-out", str(counters)]) == 0
        assert json.loads(counters.read_text())["schema"] == RUN_SCHEMA
        families = tmp_path / "fam.json"
        run_dir = tmp_path / "rd"
        assert main(["profile", str(fasta), *self.COMMON,
                     "--output", str(families), "--run-dir", str(run_dir),
                     "--trace-out", str(tmp_path / "t.json"),
                     "--counters-out", str(tmp_path / "c2.json")]) == 0
        assert json.loads(families.read_text())
        assert (run_dir / "checkpoint.jsonl").exists()
        capsys.readouterr()


class TestTelemetryAndGate:
    @pytest.fixture()
    def profiled(self, generated, tmp_path):
        """One profiled run with telemetry on: (run_dir, counters.json)."""
        fasta, _ = generated
        run_dir = tmp_path / "rundir"
        counters = tmp_path / "counters.json"
        rc = main(
            [
                "profile", str(fasta),
                "--shingle-c", "40", "--shingle-s", "3", "--min-size", "4",
                "--trace-out", str(tmp_path / "trace.json"),
                "--counters-out", str(counters),
                "--telemetry-dir", str(run_dir),
                "--telemetry-interval", "0.02",
            ]
        )
        assert rc == 0
        return run_dir, counters

    def test_run_streams_telemetry_and_top_renders_it(
        self, profiled, capsys
    ):
        run_dir, _ = profiled
        assert (run_dir / "telemetry.jsonl").exists()
        capsys.readouterr()
        rc = main(["top", str(run_dir), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "status: finished" in out
        assert "rss:" in out

    def test_top_accepts_file_path_too(self, profiled, capsys):
        run_dir, _ = profiled
        rc = main(["top", str(run_dir / "telemetry.jsonl"), "--once"])
        assert rc == 0
        assert "status: finished" in capsys.readouterr().out

    def test_top_prints_a_batch_stream_as_before(self, tmp_path, capsys):
        """The batch screen, line for line, on a fixed two-sample stream
        of a live process-backend run."""
        def sample(seq, t, counters):
            return {
                "type": "sample", "seq": seq, "t": t, "wall": t,
                "phase": "clustering", "counters": counters,
                "gauges": {"phase": "clustering", "phase.start": 0.0,
                           "worker.0.last_seen": 1.9,
                           "worker.1.last_seen": 0.2,
                           "stream.1.in_flight": 3, "stream.1.kind": "local",
                           "runtime.outstanding": 3, "ccd.components_now": 17},
                "rss_bytes": 10 * 2**20,
                "probes": {"runtime": {"outstanding": 3, "workers": [
                    {"index": 0, "alive": True, "exitcode": None},
                    {"index": 1, "alive": True, "exitcode": None}]}},
            }

        records = [
            {"type": "meta", "schema": 1, "interval": 0.25,
             "meta": {"mode": "process", "workers": 2},
             "clock": {"epoch_wall": 0.0, "pairing_uncertainty": 0.0},
             "pid": 1234},
            sample(1, 1.0, {"ccd.alignments": 100,
                            "runtime.pairs_done.clustering": 30,
                            "runtime.worker.0.busy_seconds": 0.2}),
            sample(2, 2.0, {"ccd.alignments": 180,
                            "runtime.pairs_done.clustering": 130,
                            "runtime.worker.0.busy_seconds": 1.1}),
        ]
        (tmp_path / "telemetry.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        assert main(["top", str(tmp_path), "--once"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "repro top — mode=process workers=2",
            "status: running   t=2.0s   samples=2",
            "",
            "phase |#################       | clustering: 2.0s elapsed  "
            "130/180 of generated  100/s  ETA 500.0ms",
            "",
            "workers:",
            "  worker 0   |######################  |  90% busy   "
            "heartbeat    0.1s ago  busy",
            "  worker 1   |                        |   0% busy   "
            "heartbeat    1.8s ago  idle",
            "",
            "queues:",
            "  stream 1 (local): 3 batch(es) in flight",
            "  task queue: 3 batch(es) outstanding",
            "",
            "counters:",
            "  union-find components: 17",
            "  rss: 10.0 MiB",
        ]

    def test_compare_metrics_round_trip_and_drift(
        self, profiled, tmp_path, capsys
    ):
        _, counters = profiled
        # Refreshing a baseline is a file copy: a run record is one.
        baseline = tmp_path / "BENCH_baseline.json"
        baseline.write_bytes(counters.read_bytes())
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == RUN_SCHEMA
        assert doc["scientific"]

        # The same run passes its own baseline.
        rc = main(
            ["compare-metrics", str(counters), "--baseline", str(baseline)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert f"({len(doc['scientific'])} scientific counters)" in out
        for phase in doc["phase_seconds"]:
            assert any(line.lstrip().startswith(phase) and "(+0.000s)" in line
                       for line in out.splitlines()), phase

        # Injected scientific drift must fail the gate, naming the counter.
        payload = json.loads(counters.read_text())
        name = sorted(payload["scientific"])[0]
        payload["scientific"][name] += 1
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(payload))
        rc = main(
            ["compare-metrics", str(drifted), "--baseline", str(baseline)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "counter drift" in out and name in out

        # Wall-clock slowdown beyond tolerance fails, and --no-wallclock
        # turns that check off; the slower phases show either way.
        slow = json.loads(counters.read_text())
        slow["phase_seconds"] = {
            k: v * 10 for k, v in slow["phase_seconds"].items()
        }
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slow))
        rc = main(
            ["compare-metrics", str(slow_path), "--baseline", str(baseline)]
        )
        assert rc == 1
        assert "wall-clock regression" in capsys.readouterr().out
        rc = main(
            ["compare-metrics", str(slow_path),
             "--baseline", str(baseline), "--no-wallclock"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(+0.000s)" not in out

    @pytest.mark.parametrize("text,why", [
        ("{}", "not a run record"),
        ("[]", "not a JSON object"),
        ('{"schema": "repro-run/1", "scientific": {}}', "no scientific counters"),
    ], ids=["no-schema", "not-an-object", "no-counters"])
    def test_compare_metrics_refuses_to_compare_nothing(
        self, profiled, tmp_path, capsys, text, why
    ):
        """Either side malformed is unusable input (exit 2), never a
        vacuous pass and never a traceback."""
        _, counters = profiled
        broken = tmp_path / "broken.json"
        broken.write_text(text, encoding="ascii")
        for argv in (["compare-metrics", str(counters), "--baseline", str(broken)],
                     ["compare-metrics", str(broken), "--baseline", str(counters)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert err.startswith("repro: error: ") and why in err
            assert "OK" not in out

    def test_committed_baseline_is_a_run_record(self):
        doc = json.loads(
            (Path(__file__).parents[1] / "BENCH_baseline.json").read_text())
        assert doc["schema"] == RUN_SCHEMA
        assert len(doc["scientific"]) == 16 and doc["phase_seconds"]


class TestUnusableInputExitsTwo:
    """Missing or truncated input files exit 2 — never a traceback."""

    def test_top_missing_file(self, tmp_path, capsys):
        rc = main(["top", str(tmp_path / "nope.jsonl"), "--once"])
        assert rc == 2
        assert "no telemetry file" in capsys.readouterr().err

    def test_top_dir_without_telemetry(self, tmp_path, capsys):
        rc = main(["top", str(tmp_path), "--once"])
        assert rc == 2
        assert "no telemetry file" in capsys.readouterr().err

    def test_top_rejects_a_period_it_cannot_sleep(self, tmp_path, capsys):
        for refresh in ("-1", "0"):
            with pytest.raises(SystemExit) as excinfo:
                main(["top", str(tmp_path), "--refresh", refresh])
            assert excinfo.value.code == 2
            assert "--refresh: must be positive" in capsys.readouterr().err

    def test_compare_metrics_missing_run(self, tmp_path, capsys):
        rc = main(["compare-metrics", str(tmp_path / "run.json")])
        assert rc == 2
        assert "cannot read run payload" in capsys.readouterr().err

    def test_compare_metrics_truncated_run(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        run.write_text('{"schema": "repro-run/1", "metri', encoding="ascii")
        rc = main(["compare-metrics", str(run)])
        assert rc == 2
        assert "truncated or not JSON" in capsys.readouterr().err

    def test_compare_metrics_missing_baseline(self, tmp_path, capsys):
        run = tmp_path / "run.json"
        run.write_text("{}", encoding="ascii")
        rc = main(
            ["compare-metrics", str(run),
             "--baseline", str(tmp_path / "baseline.json")]
        )
        assert rc == 2
        assert "cannot read baseline" in capsys.readouterr().err

    def test_run_missing_fasta(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.fasta")])
        assert rc == 2
        assert "cannot read FASTA" in capsys.readouterr().err

    def test_run_unparseable_fasta(self, tmp_path, capsys):
        bad = tmp_path / "bad.fasta"
        bad.write_text("MKVL without a header line\n", encoding="ascii")
        rc = main(["run", str(bad)])
        assert rc == 2
        assert "unparseable FASTA" in capsys.readouterr().err

    #: argv (a ``{name}`` is a file under tmp_path, below) -> exit code.
    UNUSABLE = {
        **{
            f"{verb}-{kind}": ([verb] + [f"{{{kind}}}"] * n_inputs, 2)
            for verb, n_inputs in (("profile", 1), ("simulate", 1),
                                   ("evaluate", 2), ("compare", 2))
            for kind in ("missing", "unparseable")
        },
        "profile-psi": (["profile", "{one}", "--psi", "1"], 2),
        "simulate-psi": (["simulate", "{one}", "--psi", "1"], 2),
        "simulate-procs": (["simulate", "{one}", "--procs", "0"], 2),
        "generate-families": (["generate", "{missing}", "--families", "0"], 2),
        # A sampling period is refused before any work is done.
        "run-interval": (["run", "{one}", "--telemetry-dir", "{tdir}",
                          "--telemetry-interval", "0"], 2),
        "serve-interval": (["serve", "{one}", "--run-dir", "{tdir}",
                            "--telemetry-interval", "0"], 2),
        # No sequence is usable input: the answer is the empty one.
        "run-empty": (["run", "{empty}"], 0),
    }

    @pytest.mark.parametrize("case", list(UNUSABLE))
    def test_verb_reports_unusable_input(self, case, tmp_path, capsys):
        argv, expected = self.UNUSABLE[case]
        files = {name: str(tmp_path / name)
                 for name in ("missing", "unparseable", "one", "empty", "tdir")}
        Path(files["unparseable"]).write_text(
            "MKVL: neither FASTA nor JSON\n", encoding="ascii")
        Path(files["one"]).write_text(">one\nMKVLARNDCQEGHILKMF\n", encoding="ascii")
        Path(files["empty"]).write_text("", encoding="ascii")
        rc = main([arg.format(**files) for arg in argv])
        assert rc == expected
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if case.endswith("-interval"):
            assert "--telemetry-interval must be positive" in err
            assert not (tmp_path / "tdir").exists()
        if expected:
            assert err.startswith("repro: error: ")
        else:
            assert not err and out.splitlines()[1].split() == ["0"] * 5 + ["0.0", "0%", "0"]

    def test_run_invalid_config(self, generated, capsys):
        fasta, _ = generated
        rc = main(["run", str(fasta), "--psi", "0"])
        assert rc == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_run_bad_fault_plan(self, generated, tmp_path, capsys):
        fasta, _ = generated
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"kind": "nuke"}]}', encoding="ascii")
        rc = main(["run", str(fasta), "--fault-plan", str(plan)])
        assert rc == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_run_missing_fault_plan_file(self, generated, tmp_path, capsys):
        fasta, _ = generated
        rc = main(["run", str(fasta),
                   "--fault-plan", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_resume_and_run_dir_conflict(self, generated, tmp_path, capsys):
        """``--resume A`` already names the run directory; a second,
        different ``--run-dir B`` is a usage error, and B is not made."""
        fasta, _ = generated
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(fasta), "--run-dir", str(a)]) == 0
        capsys.readouterr()
        rc = main(["run", str(fasta), "--resume", str(a), "--run-dir", str(b)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "--resume" in err and "--run-dir" in err
        assert not b.exists()

    def test_resume_without_journal(self, generated, tmp_path, capsys):
        fasta, _ = generated
        rc = main(["run", str(fasta), "--resume", str(tmp_path)])
        assert rc == 2
        assert "no checkpoint journal" in capsys.readouterr().err


class TestRunDirResumeAndChaos:
    def test_run_dir_then_resume_round_trip(self, generated, tmp_path,
                                            capsys):
        fasta, _ = generated
        run_dir = tmp_path / "run"
        first = tmp_path / "first.json"
        rc = main(["run", str(fasta), "--run-dir", str(run_dir),
                   "--output", str(first)])
        assert rc == 0
        assert (run_dir / "checkpoint.jsonl").exists()
        resumed = tmp_path / "resumed.json"
        rc = main(["run", str(fasta), "--resume", str(run_dir),
                   "--output", str(resumed)])
        assert rc == 0
        assert first.read_text() == resumed.read_text()
        capsys.readouterr()

    def test_chaos_identical_verdict(self, tmp_path, capsys):
        """The no-FASTA default input at the default seed gives the
        verdict something to stand on: a non-empty baseline, every
        phase dispatching, and planned faults that really fire."""
        run_dir = tmp_path / "chaos"
        rc = main(["chaos", "--workers", "2", "--run-dir", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos verdict: IDENTICAL" in out
        assert "3 fault(s) planned" in out and ": injected" in out
        report = json.loads(
            (run_dir / "chaos_report.json").read_text(encoding="utf-8")
        )
        assert report["ok"] is True
        assert report["baseline_families"] > 0
        assert len(report["injected"]) == 3 and any(report["injected"])
        counters = read_telemetry(run_dir)[1][-1]["counters"]
        for phase in ("redundancy", "clustering", "bipartite"):
            assert counters[f"runtime.pairs_done.{phase}"] > 0, phase
        assert counters["runtime.shingle_jobs"] > 0

    def test_chaos_verdict_is_vacuous_when_nothing_was_disturbed(
        self, generated, capsys
    ):
        """27 sequences make two RR tasks, the sweep and then the DP of
        the pairs it left undecided, both worker 0's (the DP goes out
        once the sweep is back), so none of seed 404's three faults (RR,
        worker 1) can fire: two identical runs prove nothing and the
        command must say so.  (CCD and bipartite do dispatch on this
        input; seed 23's plan, which RR's one task of the time left
        vacuous, now kills worker 0 on the DP task.)"""
        fasta, _ = generated
        rc = main(["chaos", str(fasta), "--seed", "404", "--workers", "2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "3 fault(s) planned, 0 injected" in out
        assert "chaos verdict: VACUOUS" in out

    def test_chaos_rejects_checkpoint_fault_plan(self, generated, tmp_path,
                                                 capsys):
        fasta, _ = generated
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"faults": [
                {"kind": "abort_master", "phase": "clustering"}
            ]}),
            encoding="ascii",
        )
        rc = main(["chaos", str(fasta), "--plan", str(plan)])
        assert rc == 2
        assert "worker-task faults" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_reduction_choices(self):
        args = build_parser().parse_args(["run", "x.fasta", "--reduction", "domain"])
        assert args.reduction == "domain"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x.fasta", "--reduction", "nope"])

    def test_backend_choices(self):
        args = build_parser().parse_args(
            ["run", "x.fasta", "--backend", "process", "--workers", "4"]
        )
        assert args.backend == "process"
        assert args.workers == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x.fasta", "--backend", "mpi"])
