#!/usr/bin/env python3
"""Smoke check of the benchmark suite.

Runs the whole command path — child interpreters, daemon subprocess,
traced pass, output check, result JSON — on shrunken inputs
(``run.py --quick``), then asserts that ``BENCHMARK.json`` is within the
limits of the benchmark contract and that every workload and metric it
declares was emitted with a finite value and the declared unit.

    python3 benchmarks/suite/smoke_check.py

It lives with the suite, not under ``tests/``: tier-1 stays what it was.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def schema_problems(bench: dict) -> list[str]:
    """The limits the contract puts on ``BENCHMARK.json``."""
    problems = []
    if set(bench) != _KEYS:
        problems.append(f"keys are {sorted(bench)}, expected {sorted(_KEYS)}")
        return problems
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in bench[key]]
    problems += [f"name {n!r} is not allowed" for n in names if not _NAME.fullmatch(n)]
    problems += [f"name {n!r} is used twice" for n in set(names) if names.count(n) > 1]
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)):
        if not low <= len(bench[key]) <= high:
            problems.append(f"{len(bench[key])} {key}, allowed {low}..{high}")
    for workload in bench["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 \
                or "\n" in workload["why"]:
            problems.append(f"workload {workload.get('name')!r}: keys or why")
    for key, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                      ("per_layer", {"name", "unit", "better"})):
        for entry in bench[key]:
            if set(entry) != keys or not _UNIT.fullmatch(entry["unit"]) \
                    or entry["better"] not in ("lower", "higher"):
                problems.append(f"{key} {entry.get('name')!r}: keys, unit or better")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{entry['name']}: bound {entry['bound']}")
    setup = [e for e in bench["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("no end-to-end setup_s in s, lower is better")
    if not isinstance(bench["run_seconds"], int) or not 1 <= bench["run_seconds"] <= 60:
        problems.append(f"run_seconds {bench['run_seconds']!r}")
    return problems


def emitted_problems(bench: dict, results: dict) -> list[str]:
    problems = []
    measured: set[str] = set()
    for workload in bench["workloads"]:
        entry = results["workloads"].get(workload["name"])
        if entry is None:
            problems.append(f"{workload['name']}: not run")
            continue
        if entry["status"] == "skipped":
            print(f"smoke: {workload['name']} skipped: {entry['reason']}")
            continue
        for key in ("end_to_end", "per_layer"):
            emitted = entry[key]["metrics"]
            where = f"{workload['name']}/{key}"
            for declared in bench[key]:
                got = emitted.get(declared["name"])
                if got is None:
                    problems.append(f"{where}: {declared['name']} not emitted")
                elif got["unit"] != declared["unit"]:
                    problems.append(f"{where}: {declared['name']} in {got['unit']}, "
                                    f"declared {declared['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{where}: {declared['name']} = {got['value']}")
            undeclared = set(emitted) - {d["name"] for d in bench[key]}
            problems += [f"{where}: {name} emitted, not declared" for name in undeclared]
            measured |= set(emitted) - set(entry[key]["detail"].get("not_measured", ()))
    # A per-layer metric may read 0 = "not measured" on the workloads whose
    # kind does not go through its layer, but some workload must measure it.
    problems += [f"{d['name']}: measured on no workload"
                 for key in ("end_to_end", "per_layer") for d in bench[key]
                 if d["name"] not in measured]
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    problems = schema_problems(bench)
    out = SUITE / "out" / "smoke.json"
    out.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, str(SUITE / "run.py"), "--quick",
                           "--out", str(out)], stdout=subprocess.DEVNULL)
    if done.returncode:
        problems.append(f"run.py --quick exited {done.returncode}")
    if out.exists():
        results = json.loads(out.read_text(encoding="ascii"))
        problems += results["failures"] + emitted_problems(bench, results)
    for problem in problems:
        print(f"smoke: FAILED: {problem}")
    if not problems:
        print(f"smoke: ok — {len(bench['workloads'])} workloads, "
              f"{len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics emitted")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
