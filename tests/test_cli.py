"""Command-line interface round-trip tests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import BENCH_SCHEMA, read_telemetry


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
        fasta, _ = generated
        rc = main(
            [
                "simulate",
                str(fasta),
                "--procs",
                "2",
                "4",
                "--shingle-c",
                "30",
                "--shingle-s",
                "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "RR+CCD" in out
        assert out.count("\n") >= 3


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
        assert "backend=serial" in out
        assert "alignment cache:" in out

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
        assert "backend=process workers=2" in out
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

    def test_compare_metrics_round_trip_and_drift(
        self, profiled, tmp_path, capsys
    ):
        _, counters = profiled
        baseline = tmp_path / "BENCH_baseline.json"

        rc = main(
            ["compare-metrics", str(counters),
             "--baseline", str(baseline), "--write-baseline"]
        )
        assert rc == 0
        assert "wrote baseline" in capsys.readouterr().out
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["metrics"]["scientific"]

        # The same run passes its own baseline.
        rc = main(
            ["compare-metrics", str(counters), "--baseline", str(baseline)]
        )
        assert rc == 0
        assert "OK" in capsys.readouterr().out

        # Injected scientific drift must fail the gate.
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
        # turns that check off.
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
        # No sequence is usable input: the answer is the empty one.
        "run-empty": (["run", "{empty}"], 0),
    }

    @pytest.mark.parametrize("case", list(UNUSABLE))
    def test_verb_reports_unusable_input(self, case, tmp_path, capsys):
        argv, expected = self.UNUSABLE[case]
        files = {name: str(tmp_path / name)
                 for name in ("missing", "unparseable", "one", "empty")}
        Path(files["unparseable"]).write_text(
            "MKVL: neither FASTA nor JSON\n", encoding="ascii")
        Path(files["one"]).write_text(">one\nMKVLARNDCQEGHILKMF\n", encoding="ascii")
        Path(files["empty"]).write_text("", encoding="ascii")
        rc = main([arg.format(**files) for arg in argv])
        assert rc == expected
        out, err = capsys.readouterr()
        assert "Traceback" not in err
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
        """27 sequences make one RR task, worker 0's first, so none of
        seed 23's three kills (RR: worker 1, or anybody's second task)
        can fire: two identical runs prove nothing and the command must
        say so.  (Found by running seeds, not by reading plans; CCD and
        bipartite do dispatch on this input.)"""
        fasta, _ = generated
        rc = main(["chaos", str(fasta), "--seed", "23", "--workers", "2"])
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
