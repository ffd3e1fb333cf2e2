#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end to end and layer by layer.

Two ways in, one code path:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` measures
  one workload in this (fresh) interpreter and prints, as its last line
  of standard output, one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics`` — every end-to-end metric of
  ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
  ``--trace 1``.  This is the form the PR driver calls.
* ``run.py`` without ``--workload`` is the suite: it runs each workload
  that way in a child interpreter (untraced, then traced), checks the
  outputs against each other, prints every metric by name with its unit
  and writes ``out/results.json``.  ``--aa`` instead runs the untraced
  pass over ten seeds twice and judges the two sets by the benchmark's
  own bounds.

It claims no gain: it is the ruler.  README.md has the tables.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"
WORK = SUITE / ".work"

DEFAULT_SEED = 2008

#: Set-ups per run (this interpreter's own plus fresh children); the
#: median is reported, so one slow start does not set the metric.
SETUP_REPEATS = 3

#: Seeds in each of the two sets of an A/A comparison (the pair count of
#: the choosing-metrics guide, and what the PR driver does).
AA_RUNS = 10


def _mix(mix: tuple[int, int, int], quick: bool) -> tuple[int, int, int]:
    """A round's (lookup, classify, insert) counts; a quarter in --quick."""
    lookups, classifies, inserts = mix
    return (lookups // 4, classifies // 4, inserts // 4) if quick else mix


def _clock() -> float:
    # The set-up clock starts before ``repro`` (and with it the
    # sanctioned ``monotonic_now``) is imported: importing is part of
    # what set-up costs.
    return time.perf_counter()  # repro-lint: disable=R4


def _benchmark_json() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


# --------------------------------------------------------------------------
# One workload, in this interpreter
# --------------------------------------------------------------------------


class Context:
    """A workload set up: inputs generated, written and parsed back,
    pipeline warmed, and for a serve workload the daemon answering."""

    def __init__(self, name: str, seed: int, quick: bool, workdir: Path,
                 recording: bool = False):
        from repro import ProteinFamilyPipeline, read_fasta, write_fasta
        from repro.util.timing import monotonic_now

        import serve
        import workloads

        self.workload = workloads.WORKLOADS[name]
        self.seed, self.quick, self.workdir = seed, quick, workdir
        self.recording = recording
        self.config = workloads.pipeline_config(self.workload.cli)
        t0 = monotonic_now()
        generated, self.truth = workloads.build_input(self.workload, seed, quick=quick)
        t1 = monotonic_now()
        # The program under test receives only what a user would hand
        # it: a FASTA file.
        fasta = workdir / "input.fasta"
        write_fasta(generated, fasta)
        self.sequences = read_fasta(fasta)
        t2 = monotonic_now()
        self.generate_s, self.fasta_roundtrip_s = t1 - t0, t2 - t1
        warm, _ = workloads.build_input(self.workload, seed + 1, quick=True)
        ProteinFamilyPipeline(self.config).run(warm, backend="serial")
        self.serve: Any = None
        if self.workload.kind == "serve":
            self.serve = serve.ServeSetup(
                self.sequences, self.truth, self.workload,
                _mix(self.workload.mix, quick)[1], workdir, ROOT)

    def close(self) -> None:
        if self.serve is not None:
            self.serve.close()


def _expected(ctx: Context) -> dict[str, Any] | None:
    """The committed answer for this workload (default seed, full size),
    unless this run is the one recording it."""
    if ctx.seed != DEFAULT_SEED or ctx.quick or ctx.recording:
        return None
    recorded = json.loads((SUITE / "expected.json").read_text(encoding="ascii"))
    return recorded["workloads"][ctx.workload.name]


def _base_state_problems(ctx: Context, expected: dict[str, Any] | None,
                         detail: dict[str, Any]) -> list[str]:
    """Serve: the restored base state must be the committed one."""
    with ctx.serve.daemon.client() as client:
        digest = client.call("status")["digest"]
    detail["expected"] = {"state_digest": digest}
    if expected is not None and digest != expected["state_digest"]:
        return ["restored state digest differs from expected.json"]
    return []


def measure(ctx: Context, seconds: float, min_reps: int) -> dict[str, Any]:
    """The untraced pass: end-to-end metrics only."""
    import batch
    import hostspeed
    import serve

    expected = _expected(ctx)
    detail: dict[str, Any] = {}
    if ctx.workload.kind == "batch":
        check = batch.OutputCheck(ctx.sequences, ctx.truth, expected)
        run = batch.measure(ctx.sequences, ctx.config, ctx.workload, check,
                            seconds, min_reps)
        detail.update(walls=run["walls"], cpus=run["cpus"], readings=run["readings"],
                      host_speed_factor=hostspeed.factor(run["readings"]),
                      expected=check.record(), precision=check.scores.precision)
        return {"metrics": batch.end_to_end(run), "attempted": run["attempted"],
                "failed": run["failed"], "problems": check.problems,
                "detail": detail}
    problems = _base_state_problems(ctx, expected, detail)
    load = serve.Load(ctx.serve, _mix(ctx.workload.mix, ctx.quick), ctx.seed)
    load.run(seconds, min_reps)
    failed, load_problems = load.verify()
    detail.update(
        walls=load.round_walls, cpus=load.round_cpus, readings=load.readings,
        host_speed_factor=hostspeed.factor(load.readings), requests=len(load.samples),
        ops_per_s=len(load.samples) / load.elapsed,
        **{f"{kind}_p50_ms": statistics.median(load.latencies_ms(kind))
           for kind in ("lookup", "classify", "insert") if load.latencies_ms(kind)},
    )
    return {"metrics": serve.end_to_end(load), "attempted": len(load.samples),
            "failed": failed + len(problems),
            "problems": problems + load_problems, "detail": detail}


def trace(ctx: Context, seconds: float, min_reps: int) -> dict[str, Any]:
    """The traced pass: the layers this kind of workload goes through
    (README.md has the table), each call into one inside a benchmark
    span.  A batch workload walks the batch layers on its input; a serve
    workload puts its own load on the daemon with every round-trip kept
    as a span and scrapes the daemon's ``metrics`` verb."""
    import batch
    import hostspeed
    import serve
    from spans import Tracer, metric, write_trace

    workload = ctx.workload
    tracer = Tracer()
    notes: dict[str, Any] = {}
    readings = [hostspeed.reading()]
    if workload.kind == "batch":
        check = batch.OutputCheck(ctx.sequences, ctx.truth, _expected(ctx))
        m, notes = batch.trace_layers(ctx.sequences, ctx.config, workload, check,
                                      tracer, ctx.workdir, ctx.quick)
        attempted, failed, problems = notes["checked"], notes["failed"], check.problems
        tracers = [tracer]
    else:
        m, load, failed, problems = serve.trace_layers(
            ctx.serve, ctx.config, _mix(workload.mix, ctx.quick), ctx.seed,
            seconds, min_reps, tracer)
        attempted = len(load.samples)
        tracers = [tracer, *load.tracers]
        readings += load.readings
    readings.append(hostspeed.reading())
    # The durations of this pass are raw seconds; this says of what host.
    m["host.speed_factor"] = metric(hostspeed.factor(readings), "ratio")
    m["sequence.generate_s"] = metric(ctx.generate_s, "s")
    m["sequence.fasta_roundtrip_s"] = metric(ctx.fasta_roundtrip_s, "s")
    trace_file = OUT / f"trace_{workload.name}.json"
    write_trace(trace_file, tracers, workload=workload.name, seed=ctx.seed,
                quick=ctx.quick, notes=notes, metrics=m)
    return {"metrics": m, "attempted": attempted, "failed": failed,
            "problems": problems,
            "detail": {"notes": notes, "trace_file": str(trace_file.relative_to(ROOT))}}


def _self_command(name: str, seed: int, quick: bool, *flags: str) -> list[str]:
    """This script again, for one workload, in a fresh interpreter."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), *flags] + (["--quick"] if quick else [])


def _run_child(command: list[str]) -> subprocess.CompletedProcess[str]:
    """``subprocess.run`` with the output captured, except that a child
    cut short (SIGTERM or Ctrl-C here) is asked to end, not killed: it has
    a daemon or workers of its own to stop first."""
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return subprocess.CompletedProcess(command, proc.returncode, out, err)


def _set_ups(own: float, name: str, seed: int, more: int, quick: bool
             ) -> tuple[list[float], list[tuple[float, float]]]:
    """This interpreter's set-up and ``more`` in fresh interpreters, with
    the host-speed readings between them (the first set-up began before
    anything was imported, so it has only the reading after it)."""
    import hostspeed

    command = _self_command(name, seed, quick, "--setup-only")
    first = hostspeed.reading()
    samples, readings = [own], [first, first]
    for _ in range(more):
        done = _run_child(command)
        done.check_returncode()
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
        readings.append(hostspeed.reading())
    return samples, readings


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The process backend's shared sequence store starts one (``python -c
    'from multiprocessing.resource_tracker import main; ...'``).  Left
    alone it ends only when it sees this interpreter gone, so for a
    moment it outlives the run; a run stops every process it started
    before it exits.  The store is unlinked by then, so the tracker has
    nothing left to clean up."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # As an exception, so the ``finally`` blocks stop the daemon, the
    # workers and the resource tracker on this way out too.
    sys.exit(128 + signum)


def run_workload(args: argparse.Namespace) -> int:
    clock0 = _clock()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no src/repro under {ROOT}; the benchmark measures "
              f"the repo it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    from spans import metric

    bench = _benchmark_json()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = None
    try:
        ctx = Context(args.workload, args.seed, args.quick, workdir,
                      args.record_expected)
        own_setup = _clock() - clock0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        # Only the untraced pass reports setup_s; --quick makes do with one.
        more = 0 if args.trace or args.quick else SETUP_REPEATS - 1
        setups, setup_readings = _set_ups(own_setup, args.workload, args.seed,
                                          more, args.quick)
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        outcome = (trace if args.trace else measure)(ctx, seconds, args.reps)
    finally:
        if ctx is not None:
            ctx.close()
        _stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = outcome["metrics"]
    if not args.trace:
        metrics["setup_s"] = metric(
            statistics.median(hostspeed.at_reference_speed(
                setups, setup_readings, hostspeed.WALL)), "s")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    # The result line names every declared metric.  A per-layer metric of
    # a layer this kind of workload does not go through reads 0 there and
    # is listed as not measured; an end-to-end metric is never left out.
    not_measured = [d["name"] for d in declared if d["name"] not in metrics]
    wrong = sorted(set(metrics) - {d["name"] for d in declared})
    if not args.trace:
        wrong += not_measured
    if wrong:
        outcome["problems"].append(f"metrics differ from BENCHMARK.json: {wrong}")
    correct = not outcome["problems"] and outcome["failed"] == 0
    for problem in outcome["problems"]:
        print(f"run.py: {args.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    print("DETAIL " + json.dumps({
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "n_sequences": len(ctx.sequences), "setups": setups,
        "setup_readings": setup_readings, "not_measured": not_measured,
        "problems": outcome["problems"], **outcome["detail"],
    }))
    print(json.dumps({
        "correct": correct, "attempted": max(outcome["attempted"], 1),
        "failed": outcome["failed"],
        "metrics": {d["name"]: metrics.get(d["name"], metric(0.0, d["unit"]))
                    for d in declared},
    }))
    return 0 if correct else 1


# --------------------------------------------------------------------------
# The suite: every workload in a child interpreter
# --------------------------------------------------------------------------


def _fingerprint(args: argparse.Namespace) -> dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from repro.runtime import runtime_info

    info = runtime_info()
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "usable_cores": info["usable_cpus"], "cpu_count": info["cpu_count"],
        "python": info["python"], "numpy": numpy.__version__,
        "start_method": info["preferred_start_method"],
        "loadavg_1m_start": os.getloadavg()[0], "git_sha": sha,
        "seed": args.seed, "min_reps": args.reps, "quick": args.quick,
    }


def _child(name: str, seed: int, trace_flag: int, args: argparse.Namespace
           ) -> dict[str, Any]:
    """Run one workload in a fresh interpreter; never raises — a child
    that dies is a failed workload, and the others still run."""
    command = _self_command(name, seed, args.quick, "--trace", str(trace_flag),
                            "--reps", str(args.reps))
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.write_expected:
        command.append("--record-expected")
    done = _run_child(command)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].removeprefix("DETAIL "))
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "detail": {"problems": [f"child exited {done.returncode} without "
                                        f"a result: {done.stderr.strip()[-400:]}"]}}
    return result


def _print_metrics(title: str, child: dict[str, Any]) -> None:
    print(f"  {title}")
    for name, entry in child["metrics"].items():
        if name not in child["detail"].get("not_measured", ()):
            print(f"    {name:<42s} {entry['value']:>16.6g} {entry['unit']}")
    detail = child["detail"]
    if "host_speed_factor" in detail:
        print(f"    (raw medians: wall {statistics.median(detail['walls']):.4f} s, "
              f"cpu {statistics.median(detail['cpus']):.4f} s over "
              f"{len(detail['walls'])} units at host speed factor "
              f"{detail['host_speed_factor']:.3f})")


def _speedup(results: dict[str, Any], cores: int) -> dict[str, Any] | None:
    """``skewed.wall_s / process.wall_s``: the same input and config on
    the serial backend and on ``ProcessBackend(workers=2)``.  Absent when
    either did not run (``process`` is skipped on fewer than two cores)."""
    walls = [results.get(name, {}).get("end_to_end", {}).get("metrics", {})
             .get("wall_s", {}).get("value") for name in ("skewed", "process")]
    if not all(walls):
        return None
    return {"value": walls[0] / walls[1], "unit": "ratio",
            "skewed.wall_s": walls[0], "process.wall_s": walls[1],
            "usable_cores": cores}


def run_suite(args: argparse.Namespace) -> int:
    bench = _benchmark_json()
    if args.write_expected and (args.seed != DEFAULT_SEED or args.quick or args.workloads):
        print("run.py: --write-expected records the default seed at full size "
              "for every workload; drop --seed, --quick and --workloads",
              file=sys.stderr)
        return 2
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    fingerprint = _fingerprint(args)
    results: dict[str, Any] = {}
    failures: list[str] = []
    for name in names:
        if name == "process" and fingerprint["usable_cores"] < 2:
            results[name] = {"status": "skipped",
                             "reason": "usable cores < 2: a wall-clock on "
                                       "oversubscribed cores would mislead"}
            print(f"{name}: skipped ({results[name]['reason']})")
            continue
        entry: dict[str, Any] = {"status": "ok"}
        passes = [("end_to_end", 0)] + ([("per_layer", 1)] if args.traced else [])
        for key, flag in passes:
            child = _child(name, args.seed, flag, args)
            entry[key] = child
            if not child["correct"]:
                entry["status"] = "failed"
                failures += [f"{name}: {p}" for p in child["detail"]["problems"]]
        results[name] = entry
        print(f"{name}: {entry['status']}")
        for key, _ in passes:
            _print_metrics(key, entry[key])

    def digest(name: str) -> Any:
        expected = results.get(name, {}).get("end_to_end", {}).get("detail", {})
        return expected.get("expected", {}).get("families_digest")

    if digest("skewed") and digest("process") and digest("skewed") != digest("process"):
        failures.append("families differ between skewed (serial) and process")
    speedup = _speedup(results, fingerprint["usable_cores"])
    if speedup is not None:
        print(f"runtime.speedup_vs_serial = {speedup['value']:.3f} "
              f"(skewed.wall_s {speedup['skewed.wall_s']:.4f} s / process.wall_s "
              f"{speedup['process.wall_s']:.4f} s, 2 workers on "
              f"{speedup['usable_cores']} usable cores)")
    fingerprint["loadavg_1m_end"] = os.getloadavg()[0]
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "fingerprint": fingerprint, "workloads": results,
        "runtime.speedup_vs_serial": speedup, "failures": failures,
    }, indent=1) + "\n", encoding="ascii")
    if args.write_expected:
        skipped = [name for name, entry in results.items() if entry["status"] == "skipped"]
        if failures or skipped:
            failures.append("expected.json left as it was: a workload failed or "
                            f"was skipped ({', '.join(skipped) or 'see above'})")
        else:
            record = {name: entry["end_to_end"]["detail"]["expected"]
                      for name, entry in results.items()}
            (SUITE / "expected.json").write_text(json.dumps(
                {"seed": args.seed, "workloads": record}, indent=1, sort_keys=True) + "\n",
                encoding="ascii")
            print("rewrote expected.json")
    print(f"host: {fingerprint}")
    print(f"wrote {out}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    return 1 if failures else 0


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


#: Raw medians shown beside the declared metrics of an A/A comparison
#: (never judged): name -> the DETAIL field the units' raw seconds are in.
AA_RAW = {"wall_s (raw)": "walls", "cpu_s (raw)": "cpus"}


def run_aa(args: argparse.Namespace) -> int:
    """The same tree measured twice, judged by the benchmark's bounds:
    the spread of each set, and how far the second median is worse.
    The raw seconds behind ``wall_s`` and ``cpu_s`` are shown with them,
    unjudged, so every A/A says what the reference-speed scaling bought."""
    bench = _benchmark_json()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    sets: list[dict[str, dict[str, list[float]]]] = []
    for _ in range(2):
        values: dict[str, dict[str, list[float]]] = {}
        for name in names:
            for i in range(AA_RUNS):
                child = _child(name, args.seed + i, 0, args)
                if not child["correct"]:
                    print(f"CHECK FAILED: {name} seed {args.seed + i}: "
                          f"{child['detail']['problems']}")
                    return 1
                row = {k: entry["value"] for k, entry in child["metrics"].items()}
                row.update((raw, statistics.median(child["detail"][field]))
                           for raw, field in AA_RAW.items())
                for metric_name, value in row.items():
                    values.setdefault(name, {}).setdefault(metric_name, []).append(value)
        sets.append(values)
    verdict = 0
    print(f"{'workload':<12s} {'metric':<12s} {'median A':>10s} {'median B':>10s} "
          f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
    unjudged = [{"name": raw, "better": "lower", "bound": None} for raw in AA_RAW]
    for name in names:
        for declared in bench["end_to_end"] + unjudged:
            a, b = (s[name][declared["name"]] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if declared["better"] == "higher":
                worse = -worse
            spreads = (_spread(a), _spread(b))
            line = (f"{name:<12s} {declared['name']:<12s} {med_a:>10.4f} {med_b:>10.4f} "
                    f"{spreads[0]:>9.3f} {spreads[1]:>9.3f} {worse:>+8.3f}")
            if declared["bound"] is not None:
                gated = declared["name"] != "setup_s"
                bad = worse > declared["bound"] or (
                    gated and max(spreads) > declared["bound"])
                verdict |= bad
                line += f" {declared['bound']:>6.2f}{'  EXCEEDED' if bad else ''}"
            print(line)
    out = Path(args.out) if args.out else OUT / "aa.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"fingerprint": _fingerprint(args), "sets": sets},
                              indent=1) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions (rounds, for serve) a run makes at "
                             "least, however short --seconds is")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs and one set-up: the whole command "
                             "path in seconds, for the smoke check")
    single = parser.add_argument_group("one workload (the driver's form)")
    single.add_argument("--workload")
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.add_argument("--setup-only", action="store_true",
                        help="set up, report how long it took, tear down")
    single.add_argument("--record-expected", action="store_true",
                        help="do not compare with expected.json (what the "
                             "suite passes under --write-expected)")
    suite = parser.add_argument_group("the suite")
    suite.add_argument("--workloads", help="comma-separated subset")
    suite.add_argument("--traced", action=argparse.BooleanOptionalAction, default=True)
    suite.add_argument("--aa", action="store_true",
                       help=f"two sets of {AA_RUNS} seeds, judged by the bounds")
    suite.add_argument("--out", help="result file (default: out/results.json)")
    suite.add_argument("--write-expected", action="store_true",
                       help="rewrite expected.json from this run, if every "
                            "workload ran and passed, after a change that is "
                            "meant to alter families or scientific counters")
    args = parser.parse_args(argv)
    if args.quick and args.seconds is None:
        args.seconds = 0.0
    if args.workload:
        return run_workload(args)
    if args.aa:
        return run_aa(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
