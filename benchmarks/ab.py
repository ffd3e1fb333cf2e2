#!/usr/bin/env python3
"""A/B: this working tree against a git revision, on the benchmark's own runs.

    python3 benchmarks/ab.py <rev> [--workloads skewed,giant] [--pairs 10]
                                   [--seconds 10] [--seed 2008]

Both sides are built in one temporary directory, at paths of equal
length (``peak_rss_mb`` moves with the checkout's path length): ``base``
is ``git archive <rev>``, ``head`` a copy of the working tree's tracked
and untracked, not ignored, files.  Nothing is written into the repo or
its ``.git``.  Each pair runs ``benchmarks/suite/run.py --workload W
--seed S --seconds T --trace 0`` once on each side, alternating which
goes first, and reads the JSON of its last line.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints
the base's median and IQR, the head's median, the head's wins (ties
count for neither), ``failed``/``attempted`` on each side and a verdict
(:func:`judge`).  It exits 1 if any run was not ``correct``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "head")


def _iqr(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance, quartiles as ``run.py`` takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def judge(base: list[float], head: list[float], *, better: str, bound: float,
          gated: bool = True) -> dict:
    """Judge one metric over pairs ``(base[i], head[i])``.

    * ``worse``: the head's median is worse than the base's by more than
      ``bound``, relative to the base's median (``run.py::run_aa``'s rule);
    * ``unresolved``: a ``gated`` metric spreads (IQR over median) more
      than ``bound`` on either side, unless every head run beats every
      base run;
    * ``gain``: the head wins at least nine tenths of the pairs and its
      median differs from the base's by more than the base's IQR;
    * ``same`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, base_iqr = _iqr(base)
    head_median, head_iqr = _iqr(head)
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    worse = sign * (head_median - base_median) / base_median
    spread = max(base_iqr / base_median, head_iqr / head_median)
    dominates = max(sign * h for h in head) < min(sign * b for b in base)
    if worse > bound:
        verdict = "worse"
    elif gated and spread > bound and not dominates:
        verdict = "unresolved"
    elif wins >= 0.9 * len(base) and worse < 0 and abs(head_median - base_median) > base_iqr:
        verdict = "gain"
    else:
        verdict = "same"
    return {"base_median": base_median, "base_iqr": base_iqr,
            "head_median": head_median, "wins": wins, "verdict": verdict}


def _build(tree: Path, rev: str) -> None:
    """``base`` from ``git archive``, ``head`` from the working tree."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree / "base", filter="data")
    files = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, files.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            target = tree / "head" / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": done.stderr.strip()[-400:]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare against (the base)")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=2008)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (an IQR needs two runs)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tree = Path(tmp)
        _build(tree, args.rev)
        print(f"{'workload':<12s} {'metric':<12s} {'base med':>10s} {'base IQR':>9s} "
              f"{'head med':>10s} {'wins':>6s} {'base f/a':>9s} {'head f/a':>9s}  verdict")
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    result = _run(tree / side, workload, args.seed, args.seconds)
                    if not result["correct"]:
                        print(f"{workload}: {side} run {pair} not correct: "
                              f"{result.get('error', result)}", file=sys.stderr)
                        status = 1
                    runs[side].append(result)
            counts = {side: f"{sum(r['failed'] for r in runs[side])}/"
                            f"{sum(r['attempted'] for r in runs[side])}" for side in SIDES}
            for declared in bench["end_to_end"]:
                name = declared["name"]
                values = {side: [r["metrics"][name]["value"] for r in runs[side]
                                 if name in r["metrics"]] for side in SIDES}
                if min(map(len, values.values())) < args.pairs:
                    print(f"{workload:<12s} {name:<12s} (missing runs)")
                    continue
                row = judge(values["base"], values["head"], better=declared["better"],
                            bound=declared["bound"], gated=name != "setup_s")
                print(f"{workload:<12s} {name:<12s} {row['base_median']:>10.4f} "
                      f"{row['base_iqr']:>9.4f} {row['head_median']:>10.4f} "
                      f"{row['wins']:>3d}/{args.pairs:<2d} {counts['base']:>9s} "
                      f"{counts['head']:>9s}  {row['verdict']}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
