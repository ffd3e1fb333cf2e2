"""Serve side of the suite: the daemon as a subprocess, closed-loop
clients, and the probes of the traced pass.

The load is a **closed loop**: each client sends its next request only
after the previous reply arrived, because that is what ``repro query``
callers are, and two clients because that matches the core count.  The
unit of work is one *round* — a fixed, seeded mix of requests dealt to
the clients — so that the serve workloads have the same end-to-end
metrics as the batch ones: wall-clock and daemon CPU per unit.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro import PipelineConfig, SequenceSet, write_fasta
from repro.runtime import usable_cpu_count
from repro.serve import ProtocolError, ServeClient, load_serve_state, percentile
from repro.serve.incremental import plan_insert
from repro.util.timing import monotonic_now

import hostspeed
from spans import Tracer, duration, metric
from workloads import Workload, cli_flags, split_for_serving

#: Closed-loop callers: what the core count allows, never more than two.
CLIENTS = min(2, usable_cpu_count())

#: Direct ``plan_insert`` calls, per tier, timed on the in-process state.
PLAN_PROBES_PER_TIER = 3

_START_TIMEOUT = 60.0
_REQUEST_TIMEOUT = 30.0
_SHED_CODES = ("overloaded", "deadline_exceeded")

Request = tuple[str, str, str]  # (kind, sequence id, residues)


def child_env(repo_root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Daemon:
    """``python -m repro serve`` over a completed run directory."""

    def __init__(self, fasta: Path, run_dir: Path, flags: list[str],
                 env: dict[str, str]):
        self.run_dir = run_dir
        self.host, self.port = "", 0
        self._log = open(run_dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(fasta),
             "--run-dir", str(run_dir), "--port", "0", *flags],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.host, self.port = self._await_address()
            with self.client() as client:
                client.call("hello")
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> tuple[str, int]:
        addr = self.run_dir / "serve.addr"
        deadline = monotonic_now() + _START_TIMEOUT
        while monotonic_now() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening; see {self.run_dir / 'daemon.log'}")
            if addr.exists():
                parts = addr.read_text(encoding="ascii").split()
                if len(parts) == 2:
                    return parts[0], int(parts[1])
            time.sleep(0.01)
        raise RuntimeError("daemon did not write serve.addr in time")

    def client(self) -> ServeClient:
        return ServeClient.connect(self.host, self.port, timeout=_REQUEST_TIMEOUT)

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain and exit the daemon; kill it if it will not go."""
        if self.proc.poll() is None:
            try:
                if not self.port:
                    raise ConnectionError("daemon never listened")
                with self.client() as client:
                    client.call("shutdown")
                self.proc.wait(timeout=20)
            except (OSError, ProtocolError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _deal(groups: list[list[Any]], k: int) -> list[Any]:
    """Up to ``k`` records taken round-robin from the front of ``groups``."""
    out: list[Any] = []
    while len(out) < k and any(groups):
        for group in groups:
            if group and len(out) < k:
                out.append(group.pop(0))
    return out


class ServeSetup:
    """A base state being served: FASTA written, batch run checkpointed
    by ``repro run --run-dir``, daemon answering ``hello``.

    ``n_classify`` held-out sequences (one unrelated, the rest dealt
    over the tiers) are set aside to be classified, never inserted; what
    remains per tier is the insert pool, each sequence inserted once.
    """

    def __init__(self, sequences: SequenceSet, truth: dict[str, int],
                 workload: Workload, n_classify: int, workdir: Path,
                 repo_root: Path):
        self.base, held = split_for_serving(sequences, truth)
        self.base_ids = self.base.ids()
        *self.insert_tiers, noise = held
        self.classify_pool = noise[:1] + _deal(
            self.insert_tiers, n_classify - len(noise[:1]))
        self.fasta = workdir / "base.fasta"
        self.run_dir = workdir / "run"
        flags = cli_flags(workload.cli)
        env = child_env(repo_root)
        write_fasta(self.base, self.fasta)
        subprocess.run(
            [sys.executable, "-m", "repro", "run", str(self.fasta),
             "--run-dir", str(self.run_dir), *flags],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )
        self.journal = self.run_dir / "checkpoint.jsonl"
        self.daemon = Daemon(self.fasta, self.run_dir, flags, env)

    def close(self) -> None:
        self.daemon.stop()


def _deal_round(rng: random.Random, mix: tuple[int, int, int],
                setup: ServeSetup) -> list[list[Request]] | None:
    """One round's requests per client, or None when the insert pool
    cannot fill it.  Every round classifies the same held-out sequences
    and inserts the same number from each tier, so rounds cost alike."""
    lookups, classifies, n_inserts = mix
    inserts = _deal(setup.insert_tiers, n_inserts)
    if len(inserts) < n_inserts:
        return None
    requests: list[Request] = [
        ("lookup", rng.choice(setup.base_ids), "") for _ in range(lookups)
    ] + [
        ("classify", "", record.residues)
        for record in setup.classify_pool[:classifies]
    ] + [
        ("insert", record.id, record.residues) for record in inserts
    ]
    rng.shuffle(requests)
    return [requests[c::CLIENTS] for c in range(CLIENTS)]


def _run_client(client: ServeClient, requests: list[Request],
                tracer: Tracer | None, round_id: int,
                out: list[tuple[str, str, float, str]]) -> None:
    """Send one client's share of a round, timing every round-trip; the
    traced pass also keeps each as a span."""
    for n, (kind, seq_id, residues) in enumerate(requests):
        outcome = "ok"
        start = monotonic_now()
        try:
            if kind == "lookup":
                if not client.call("query", id=seq_id).get("found"):
                    outcome = "wrong"
            elif kind == "classify":
                client.call("query", residues=residues)
            else:
                reply = client.call("insert", id=seq_id, residues=residues)
                if not reply["results"][0].get("ok"):
                    outcome = "wrong"
        except ProtocolError as exc:
            outcome = exc.code if exc.code in _SHED_CODES else "error"
        except OSError:  # ServeTimeout and hang-ups
            outcome = "error"
        end = monotonic_now()
        if tracer is not None:
            tracer.add(f"request.{kind}", f"{tracer.thread}-r{round_id}-{n}",
                       start, end, outcome=outcome)
        out.append((kind, seq_id, end - start, outcome))


class Load:
    """Rounds of requests against one daemon, and what came back."""

    def __init__(self, setup: ServeSetup, mix: tuple[int, int, int],
                 seed: int, *, traced: bool = False):
        self.setup = setup
        self.mix = mix
        self._rng = random.Random(seed)
        self.tracers = [Tracer(f"client-{c}") if traced else None
                        for c in range(CLIENTS)]
        self.round_walls: list[float] = []
        self.round_cpus: list[float] = []
        self.readings: list[tuple[float, float]] = []
        self.samples: list[tuple[str, str, float, str]] = []
        self.elapsed = 0.0

    def run(self, seconds: float, min_rounds: int) -> None:
        """Rounds for ``seconds`` (at least ``min_rounds``), or until the
        insert pool is used up."""
        daemon = self.setup.daemon
        clients = [daemon.client() for _ in range(CLIENTS)]
        started = monotonic_now()
        self.readings.append(hostspeed.reading())
        try:
            while (len(self.round_walls) < min_rounds
                   or monotonic_now() - started < seconds):
                shares = _deal_round(self._rng, self.mix, self.setup)
                if shares is None:
                    break
                outs: list[list[tuple[str, str, float, str]]] = [[] for _ in clients]
                threads = [
                    threading.Thread(target=_run_client, args=(
                        clients[c], shares[c], self.tracers[c],
                        len(self.round_walls), outs[c]))
                    for c in range(CLIENTS)
                ]
                cpu0, t0 = daemon.cpu_seconds(), monotonic_now()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                self.round_walls.append(monotonic_now() - t0)
                self.round_cpus.append(daemon.cpu_seconds() - cpu0)
                self.readings.append(hostspeed.reading())
                for out in outs:
                    self.samples += out
        finally:
            self.elapsed = monotonic_now() - started
            for client in clients:
                client.close()

    def latencies_ms(self, kind: str) -> list[float]:
        return [s * 1e3 for k, _, s, outcome in self.samples
                if k == kind and outcome == "ok"]

    def acked_inserts(self) -> list[str]:
        return [seq_id for k, seq_id, _, outcome in self.samples
                if k == "insert" and outcome == "ok"]

    def verify(self) -> tuple[int, list[str]]:
        """Failed operations and what went wrong: every refused, errored
        or wrong reply; every acked insert a follow-up ``query id=`` does
        not find; a daemon that ends degraded."""
        problems: list[str] = []
        bad = [s for s in self.samples if s[3] != "ok"]
        if bad:
            problems.append(f"{len(bad)} requests failed ({bad[0][0]}: {bad[0][3]})")
        failed = len(bad)
        with self.setup.daemon.client() as client:
            for seq_id in self.acked_inserts():
                if not client.call("query", id=seq_id).get("found"):
                    failed += 1
                    problems.append(f"acked insert {seq_id} not found")
            status, health = client.call("status"), client.call("health")
        if status.get("degraded") or health.get("degraded") or not health.get("applier_alive"):
            failed += 1
            problems.append(f"daemon degraded at end: {health.get('degraded_reason')}")
        return min(failed, len(self.samples)), problems


def end_to_end(load: Load) -> dict[str, dict[str, Any]]:
    walls = hostspeed.at_reference_speed(load.round_walls, load.readings, hostspeed.WALL)
    cpus = hostspeed.at_reference_speed(load.round_cpus, load.readings, hostspeed.CPU)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        # A mean, so the 10 ms tick of /proc CPU accounting averages out.
        "cpu_s": metric(sum(cpus) / len(cpus), "s"),
        "peak_rss_mb": metric(load.setup.daemon.peak_rss_mb(), "MB"),
    }


def probe_state(setup: ServeSetup, config: PipelineConfig, tracer: Tracer
                ) -> dict[str, dict[str, Any]]:
    """Restore and ``plan_insert`` called directly on an in-process state
    (read-only: the journal is parsed, nothing is written or mutated)."""
    with tracer.span("serve.restore") as span:
        state = load_serve_state(setup.run_dir, setup.base, config)
    plans = []
    for record in [r for tier in setup.insert_tiers for r in tier[:PLAN_PROBES_PER_TIER]]:
        with tracer.span("serve.plan_insert", record.id) as plan_span:
            plan_insert(state, record.id, record.residues)
        plans.append(duration(plan_span) * 1e3)
    return {"serve.restore_s": metric(duration(span), "s"),
            "serve.plan_insert_ms": metric(statistics.median(plans), "ms")}


def _share(stages: dict[str, float], name: str) -> float:
    total = sum(stages.values())
    return stages.get(name, 0.0) / total if total else 0.0


def layer_metrics(load: Load, scrape: dict[str, Any], journal_bytes: int,
                  failed: int) -> dict[str, dict[str, Any]]:
    """Per-layer serve metrics from the clients' samples and the daemon's
    own ``metrics`` verb (stage seconds, histograms, counters).  The
    insert path is reported only by a load that writes."""
    m: dict[str, dict[str, Any]] = {}
    n = len(load.samples)
    inserts = len(load.acked_inserts())
    m["ops_per_s"] = metric(n / load.elapsed, "1/s")
    m["failed_fraction"] = metric(failed / n, "ratio")
    for kind, pcts in (("lookup", (50,)), ("classify", (50, 90)), ("insert", (50, 90))):
        samples = load.latencies_ms(kind)
        for pct in pcts if samples else ():
            m[f"{kind}_p{pct}_ms"] = metric(percentile(samples, pct), "ms")

    server = scrape["percentiles"]
    queries = load.latencies_ms("lookup") + load.latencies_ms("classify")
    m["serve.server_query_p50_ms"] = metric(server["query"]["p50_ms"], "ms")
    m["serve.client_server_gap_ms"] = metric(
        percentile(queries, 50) - server["query"]["p50_ms"], "ms")
    stages = scrape["stage_seconds"]
    verbs = [("query", ("candidates", "myers_reject", "dp", "ack"))]
    if inserts:
        m["serve.server_insert_p50_ms"] = metric(server["insert"]["p50_ms"], "ms")
        m["serve.journal_bytes_per_insert"] = metric(journal_bytes / inserts, "B")
        verbs.append(("insert", ("myers_reject", "dp", "journal_fsync")))
    for verb, names in verbs:
        for name in names:
            m[f"serve.stage_share.{verb}.{name}"] = metric(
                _share(stages[verb], name), "ratio")

    counters = scrape["counters"]
    sweeps = len(load.latencies_ms("classify")) + inserts
    dp_seconds = stages["query"].get("dp", 0.0) + stages.get("insert", {}).get("dp", 0.0)
    m["serve.candidates_per_query"] = metric(
        counters.get("serve.candidates", 0) / sweeps, "count")
    m["serve.myers_reject_ratio"] = metric(
        counters.get("serve.myers_rejects", 0)
        / max(counters.get("serve.candidates", 0), 1), "ratio")
    m["serve.dp_cells_per_s"] = metric(
        counters.get("serve.dp_cells", 0) / dp_seconds, "cells/s")
    m["serve.applier_busy_share"] = metric(
        counters.get("serve.applier_busy_seconds", 0.0) / load.elapsed, "ratio")
    return m


def trace_layers(
    setup: ServeSetup, config: PipelineConfig, mix: tuple[int, int, int],
    seed: int, seconds: float, min_rounds: int, tracer: Tracer,
) -> tuple[dict[str, dict[str, Any]], Load, int, list[str]]:
    """The traced pass over the serve layer: the direct probes, then the
    workload's own load with every round-trip kept as a span, then the
    daemon's ``metrics`` verb.  Returns the metrics, the load, and how
    many operations its verification failed and why."""
    m = probe_state(setup, config, tracer)
    journal_before = setup.journal.stat().st_size
    load = Load(setup, mix, seed, traced=True)
    load.run(seconds, min_rounds)
    journal_bytes = setup.journal.stat().st_size - journal_before
    time.sleep(0.05)  # a request reaches its histogram just after its ack
    with setup.daemon.client() as client:
        scrape = client.call("metrics")
    failed, problems = load.verify()
    m.update(layer_metrics(load, scrape, journal_bytes, failed))
    return m, load, failed, problems
