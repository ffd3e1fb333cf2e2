"""Execution-backend tests: result invariance, crash safety, stats.

The central guarantee of :mod:`repro.runtime` is that ``families`` and
the Table I row are bit-identical across backends for a fixed config
(``test_pipeline.py::TestSameAnswerEveryMode`` checks it end to end);
these tests cover how a backend is chosen and the operational contracts
(clean worker-crash propagation, shared-store round-trips, wall-clock
stats bookkeeping).
"""

from __future__ import annotations

import pickle
import time
from collections import Counter, defaultdict
from dataclasses import replace
from multiprocessing import shared_memory
from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.align.batch import batch_containment, containment_columns
from repro.align.matrices import blosum62_scheme
from repro.core.checkpoint import read_journal
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.eval.report import report_lines
from repro.faults.plan import Fault, FaultPlan
from repro.graph.bipartite import duplicate_bipartite
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import parallel_component_detection
from repro.pace.redundancy import parallel_redundancy_removal
from repro.parallel.simulator import VirtualCluster
from repro.runtime import phases
from repro.runtime.base import Backend, PairStream, run_task
from repro.runtime.sharedseq import EncodedStore
from repro.runtime.phases import backend_component_detection
from repro.shingle.algorithm import ShingleParams
from repro.runtime import (
    BackendError,
    ProcessBackend,
    SerialBackend,
    SharedSequenceStore,
    WorkerCrashError,
    default_worker_count,
    make_backend,
    runtime_info,
)
from tests.scalar_align import alignment_table, local_align


@pytest.fixture(scope="module")
def workload(mode_workload):
    return mode_workload


@pytest.fixture(scope="module")
def reference(workload):
    sequences, config = workload
    return ProteinFamilyPipeline(config).run(sequences)


class TestResultInvariance:
    def test_process_backend_matches_simulator(self, workload, mode_results):
        """Simulator and runtime agree: the process backend's RR and CCD
        decide what the simulated ones do at p = 8."""
        sequences, config = workload
        process = mode_results["process"]
        cluster = VirtualCluster(8)
        rr = parallel_redundancy_removal(sequences, cluster, psi=config.psi)
        ccd = parallel_component_detection(sequences, rr.kept, cluster, psi=config.psi)
        assert (rr.redundant, rr.kept) == (
            process.redundancy.redundant, process.redundancy.kept)
        assert ccd.components == process.clustering.components
        assert len(ccd.components) < len(rr.kept)

    def test_config_backend_field(self, workload, reference):
        sequences, config = workload
        configured = replace(config, backend="process", workers=2)
        result = ProteinFamilyPipeline(configured).run(sequences)
        assert result.runtime is not None
        assert result.runtime.backend == "process"
        assert result.families == reference.families


class TestRuntimeStats:
    def test_phases_and_utilization(self, workload):
        sequences, config = workload
        result = ProteinFamilyPipeline(config).run(sequences, backend="serial")
        stats = result.runtime
        assert stats is not None
        assert stats.backend == "serial"
        assert set(stats.phases) == {
            "redundancy", "clustering", "bipartite", "dense_subgraphs",
        }
        assert stats.total_wall > 0.0
        assert 0.0 <= stats.utilization() <= 1.0
        for phase in stats.phases.values():
            assert phase.wall_seconds >= 0.0
            assert 0.0 <= phase.utilization(stats.workers) <= 1.0
        assert result.obs.counters()["runtime.batch_pairs"] > 0
        report = report_lines(result)
        assert "run: mode=serial workers=1" in report[0]
        for name, phase in stats.phases.items():
            (row,) = [line for line in report
                      if line.startswith(f"  {name} ") and "util=" in line]
            assert f"tasks={phase.tasks:,d}" in row


def drained_pairs(stream) -> list[tuple[int, int]]:
    """The pairs a stream's ``drain`` answers, task after task."""
    return [(i, j) for ia, ib, _ in stream.drain()
            for i, j in zip(ia.tolist(), ib.tolist())]


class TestCrashSafety:
    def test_worker_exception_propagates(self, workload):
        """A raising worker surfaces a WorkerCrashError — no hang."""
        sequences, config = workload
        backend = ProcessBackend(workers=1)
        with backend.session(sequences, config.scheme):
            stream = backend.alignment_stream()
            # An out-of-range index.
            stream.submit_columns(np.array([0]), np.array([len(sequences) + 5]))
            with pytest.raises(WorkerCrashError, match="out of range"):
                list(stream.drain())
        # close() ran via session(); the backend is reusable afterwards.
        with backend.session(sequences, config.scheme):
            stream = backend.alignment_stream()
            stream.submit_columns(np.array([0]), np.array([1]))
            assert drained_pairs(stream) == [(0, 1)]

    def test_poisoned_job_raises_deterministically(self, workload):
        """A task of unknown kind (protocol poison) surfaces the worker's
        original ValueError inside a WorkerCrashError — same message
        every run, no hang, and the worker loop survives to serve the
        next task."""
        sequences, config = workload
        backend = ProcessBackend(workers=1)
        with backend.session(sequences, config.scheme):
            backend._dispatch(("poison", 99), lambda result, busy: None)
            with pytest.raises(WorkerCrashError, match="unknown task kind"):
                backend._pump(block=True)
            # The worker caught the poison and is still serving.
            stream = backend.alignment_stream()
            stream.submit_columns(np.array([0]), np.array([1]))
            assert drained_pairs(stream) == [(0, 1)]

    def test_liveness_sweep_respawns_killed_worker(self, workload):
        """A worker killed by signal (no error message possible) is
        caught by the recovery sweep, which respawns it under the
        respawn budget; subsequent work lands on the replacement and
        the stream completes normally."""
        sequences, config = workload
        backend = ProcessBackend(workers=1)
        with backend.session(sequences, config.scheme):
            victim = backend._procs[0]
            victim.kill()
            victim.join(timeout=5.0)
            assert not victim.is_alive()
            backend._sweep()
            probe = backend.telemetry_probe()
            assert probe["respawns"] == 1
            assert backend._procs[0].is_alive()
            stream = backend.alignment_stream()
            stream.submit_columns(np.array([0]), np.array([1]))
            assert drained_pairs(stream) == [(0, 1)]

    def test_closed_backend_rejects_work(self, workload):
        sequences, config = workload
        backend = ProcessBackend(workers=1)
        with pytest.raises(BackendError, match="not open"):
            backend.alignment_stream()

    def test_telemetry_survives_sigkilled_worker(self, workload, tmp_path):
        """The sampler keeps emitting through a worker SIGKILL, the
        liveness probe reports the corpse before the recovery sweep
        replaces it, work submitted before the sweep completes
        in-master instead of raising, and ``repro top`` renders the
        end-less file as a degraded view instead of refusing it."""
        from repro.obs import Recorder, TelemetrySampler, read_telemetry, recording
        from repro.obs.top import render_screen

        sequences, config = workload
        backend = ProcessBackend(workers=1)
        recorder = Recorder(meta={"mode": "process", "workers": 1})
        sampler = TelemetrySampler(
            recorder,
            tmp_path,
            interval=0.01,
            probes={"runtime": backend.telemetry_probe},
        )
        with recording(recorder), backend.session(sequences, config.scheme):
            with recorder.span("clustering", cat="phase"):
                sampler.open()
                stream = backend.alignment_stream()
                stream.submit_columns(np.array([0]), np.array([1]))
                list(stream.drain())  # healthy batch: heartbeat flows
                healthy = sampler.sample_now()

                victim = backend._procs[0]
                victim.kill()
                victim.join(timeout=5.0)
                assert not victim.is_alive()

                # Sampling does not stop — nor raise — on a dead backend,
                # and neither does the stream: with no live worker and no
                # sweep yet, the batch is computed in-master.
                degraded = sampler.sample_now()
                stream.submit_columns(np.array([0]), np.array([2]))
                assert drained_pairs(stream) == [(0, 2)]
                post_crash = sampler.sample_now()
        # Run dies without sampler.stop(): no end record, like a SIGKILL
        # of the whole process tree.

        assert healthy["probes"]["runtime"]["workers"][0]["alive"] is True
        assert healthy["gauges"].get("worker.0.last_seen") is not None
        assert degraded["probes"]["runtime"]["workers"][0]["alive"] is False
        assert degraded["probes"]["runtime"]["workers"][0]["exitcode"] == -9
        assert post_crash["seq"] == healthy["seq"] + 2

        meta, samples, end = read_telemetry(tmp_path)
        assert end is None
        assert [s["seq"] for s in samples] == [1, 2, 3]
        screen = "\n".join(render_screen(meta, samples, end))
        assert "no end record" in screen
        assert "LOST" in screen


ACCOUNTING_MODES = {
    "serial": lambda: PipelineConfig(backend="serial"),
    "process": lambda: PipelineConfig(backend="process", workers=2),
    "quarantined": lambda: PipelineConfig(
        backend="process", workers=2, fault_plan=FaultPlan(faults=(
            Fault(kind="poison_task", phase="clustering", at_task=0),
        ))),
    "degraded": lambda: PipelineConfig(
        backend="process", workers=1, respawn_budget=0,
        fault_plan=FaultPlan(faults=(
            Fault(kind="kill_worker", phase="redundancy", worker=0,
                  at_task=0),
        ))),
}


@pytest.fixture(scope="module")
def accounting_runs(workload, tmp_path_factory):
    """``mode -> (result, journaled ccd_union sequence)``, one
    checkpointed pipeline run per accounting mode."""
    sequences, config = workload
    runs = {}
    for mode, overrides in ACCOUNTING_MODES.items():
        overrides = overrides()
        run_dir = tmp_path_factory.mktemp(mode)
        result = ProteinFamilyPipeline(replace(
            config, backend=overrides.backend, workers=overrides.workers,
            fault_plan=overrides.fault_plan,
            respawn_budget=overrides.respawn_budget,
        )).run(sequences, run_dir=run_dir)
        runs[mode] = (result, [
            (r["i"], r["j"])
            for r in read_journal(run_dir / "checkpoint.jsonl")
            if r["type"] == "ccd_union"
        ])
    return runs


class TestWorkAccounting:
    """One definition of ``PhaseStats.tasks``, wherever a task ended up
    running — and one CCD, whatever ran it."""

    @pytest.mark.parametrize("mode", ACCOUNTING_MODES)
    def test_tasks_are_the_pairs_submitted(self, accounting_runs, mode):
        result, _ = accounting_runs[mode]
        counters = result.obs.counters()
        if mode == "quarantined":
            assert counters["runtime.poison_quarantined"] >= 1
        if mode == "degraded":
            assert result.obs.gauges()["runtime.degraded"] == 1

        # tasks = work dispatched: every pair a phase admits, once.
        submitted = {
            "redundancy": counters["rr.pairs"],
            "clustering": counters["ccd.alignments"],
            "bipartite": counters["bipartite.pairs"],
            "dense_subgraphs": counters["dsd.components"],
        }
        for name, phase in result.runtime.phases.items():
            assert phase.tasks == submitted[name], name

    @pytest.mark.parametrize("mode", [m for m in ACCOUNTING_MODES if m != "serial"])
    def test_ccd_work_is_the_serial_runs(self, accounting_runs, mode):
        """The CCD filter decides each pair as the pair-by-pair loop
        does on every backend, recovery paths included: the work
        counters, the submitted pairs and the journal are not "close to"
        the serial run's, they are the serial run's."""
        def ccd_work(run):
            result, unions = run
            counters = result.obs.counters()
            phase = result.runtime.phases["clustering"]
            return (
                counters["ccd.alignments"], counters["ccd.filtered"],
                counters["ccd.redecided"], phase.tasks,
                unions,
            )

        serial = ccd_work(accounting_runs["serial"])
        assert serial[0] > 1 and serial[4]
        assert ccd_work(accounting_runs[mode]) == serial

    def test_a_resumed_run_aligns_nothing_new(self, workload, serial_session,
                                              accounting_runs, monkeypatch):
        """Replayed unions are a head start for the filter: the resumed
        phase submits a subset of the clean run's pairs."""
        sequences, config = workload
        kept = accounting_runs["serial"][0].redundancy.kept
        unions = accounting_runs["serial"][1]
        submitted: list[set] = []
        submit_columns = PairStream.submit_columns

        def recording(stream, ia, ib):
            submitted[-1].update(zip(ia.tolist(), ib.tolist()))
            submit_columns(stream, ia, ib)

        monkeypatch.setattr(PairStream, "submit_columns", recording)
        results = []
        for replay in ((), unions[: len(unions) // 2 + 1]):
            submitted.append(set())
            results.append(backend_component_detection(
                sequences, kept, *serial_session(sequences), psi=config.psi,
                replay_unions=replay,
            ))
        clean, resumed = results
        assert resumed.components == clean.components
        assert submitted[1] < submitted[0]
        assert resumed.n_alignments == len(submitted[1])


class TestOneIndexPerSession:
    """The string index is built once per backend session, on first
    use, and every phase reads it whole: no sub-collection index is
    cut out of it."""

    @pytest.mark.parametrize("mode", ["default", "serial", "process"])
    def test_a_run_builds_one_index(self, mode_results, mode):
        counters = mode_results[mode].obs.counters()
        assert counters["suffix.index_builds"] == 1
        assert not [name for name in counters if "restrict" in name]
        spans = [s for s in mode_results[mode].obs.spans if s.name.startswith("index.")]
        assert [s.name for s in spans] == ["index.build"]
        assert dict(spans[0].args)["sequences"] == mode_results[mode].n_input

    def test_simulated_phases_build_one_index_each(self, workload):
        """The simulated RR and CCD drivers build their own index, CCD's
        over the kept sequences, so its buckets are a sub-collection's."""
        sequences, config = workload
        cluster = VirtualCluster(4)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            rr = parallel_redundancy_removal(sequences, cluster, psi=config.psi)
            parallel_component_detection(sequences, rr.kept, cluster, psi=config.psi)
        assert recorder.counters()["suffix.index_builds"] == 2

    def test_index_is_lazy_shared_and_dropped_on_close(self, workload):
        sequences, config = workload
        backend = SerialBackend()
        with pytest.raises(BackendError, match="not open"):
            backend.index
        recorder = obs.Recorder()
        with obs.recording(recorder), backend.session(sequences, config.scheme):
            assert "suffix.index_builds" not in recorder.counters()
            index = backend.index
            assert backend.index is index
            assert index.n_sequences == len(sequences)
        assert recorder.counters()["suffix.index_builds"] == 1
        assert backend._index is None
        with pytest.raises(BackendError, match="not open"):
            backend.index


def _shingle_body():
    edges = [(i, j) for base in (0, 10) for i in range(base, base + 8)
             for j in range(i + 1, base + 8)]
    return ("shingle", duplicate_bipartite(20, edges), "global",
            ShingleParams(s1=3, c1=80, s2=2, c2=30, seed=9), 4, 0.5)


TASK_BODIES = {
    "local": lambda: ("local", np.array([0, 2, 3]), np.array([1, 5, 4])),
    "contain": lambda: ("contain", 0.95, 0.95,
                        np.array([0, 2, 3, 0]), np.array([1, 5, 4, 6])),
    "contain_dp": lambda: ("contain_dp", np.array([0, 2, 3]), np.array([1, 5, 4])),
    "shingle": _shingle_body,
    "unknown": lambda: ("poison", 99),
}


class TestOneTaskFunction:
    """The seam: ``run_task`` in-line, in a worker process and in the
    process backend's in-master recovery path is one function, so the
    three placements return equal results (and fail alike)."""

    @staticmethod
    def _via_backend(backend, sequences, scheme, body, *, degrade):
        got = []
        with backend.session(sequences, scheme):
            if degrade:
                backend._procs[0].kill()
                backend._procs[0].join(timeout=5.0)
                backend._sweep()
                assert backend.telemetry_probe()["degraded"] is True
            backend._dispatch(body, lambda result, busy: got.append(result))
            while not got:
                backend._pump(block=True)
        return got[0]

    @pytest.mark.parametrize("kind", TASK_BODIES)
    def test_three_placements_agree(self, workload, kind):
        sequences, config = workload
        scheme = config.scheme
        body = TASK_BODIES[kind]()
        store = EncodedStore.from_sequences([r.encoded for r in sequences])
        worker = ProcessBackend(workers=1)
        master = ProcessBackend(workers=1, respawn_budget=0)
        if kind == "unknown":
            text = "unknown task kind 'poison'"
            with pytest.raises(ValueError, match=text):
                run_task(body, store, scheme)
            with pytest.raises(WorkerCrashError, match=f"ValueError: {text}"):
                self._via_backend(worker, sequences, scheme, body,
                                  degrade=False)
            with pytest.raises(ValueError, match=text):
                self._via_backend(master, sequences, scheme, body,
                                  degrade=True)
            return
        inline = run_task(body, store, scheme)
        if kind == "shingle":  # the component's families, nothing else
            assert sorted(inline) == [tuple(range(8)), tuple(range(10, 18))]
        else:
            assert len(inline) == len(body[-1])
        # A pair task answers one array, a shingle task a list.
        same = (lambda a, b: a == b) if kind == "shingle" else np.array_equal
        assert same(self._via_backend(
            worker, sequences, scheme, body, degrade=False), inline)
        assert same(self._via_backend(
            master, sequences, scheme, body, degrade=True), inline)


    def test_contain_stages_compose_to_the_columns(self, rr_dp_metagenome):
        """A ``"contain"`` task is the Myers sweep alone: a NaN row for
        each pair it leaves to the DP, and a ``"contain_dp"`` task over
        those pairs fills in exactly the rows of the one-call engine."""
        sequences = rr_dp_metagenome.sequences
        store = EncodedStore.from_sequences([r.encoded for r in sequences])
        scheme = blosum62_scheme()
        ia, ib = np.triu_indices(len(sequences), 1)
        recorder = obs.Recorder()
        with obs.recording(recorder):
            stats = run_task(("contain", 0.95, 0.95, ia, ib), store, scheme)
            undecided = np.isnan(stats[:, 0])
            assert np.isnan(stats[undecided]).all()
            assert 0 < undecided.sum() < len(ia)
            stats[undecided] = run_task(
                ("contain_dp", ia[undecided], ib[undecided]), store, scheme)
        assert not np.isnan(stats).any()
        assert np.array_equal(stats, containment_columns(
            store, ia, ib, scheme=scheme, similarity=0.95, coverage=0.95))
        counters = recorder.counters()
        assert counters["batch.pairs"] == len(ia)
        assert counters["batch.dp_pairs"] == undecided.sum()

    def test_local_task_is_one_int64_table(self, workload):
        """A ``"local"`` task answers the ``(k, 8)`` int64 alignment
        table, and a serial run and a round-trip through two worker
        processes answer equal tables."""
        sequences, config = workload
        body = TASK_BODIES["local"]()
        store = EncodedStore.from_sequences([r.encoded for r in sequences])
        inline = run_task(body, store, config.scheme)
        assert isinstance(inline, np.ndarray)
        assert inline.dtype == np.int64 and inline.shape == (len(body[-1]), 8)
        for backend in (SerialBackend(), ProcessBackend(workers=2)):
            table = self._via_backend(backend, sequences, config.scheme, body, degrade=False)
            assert table.dtype == np.int64 and np.array_equal(table, inline)


def task_key(body: tuple) -> tuple:
    """A task body as a hashable value: its index columns, or a shingle
    task's pickled arguments."""
    if body[0] == "shingle":
        return (body[0], pickle.dumps(body[1:]))
    return (*body[:-2], tuple(body[-2].tolist()), tuple(body[-1].tolist()))


class TestOneTaskGrain:
    """A task is exactly what a phase driver submits, and a worker runs
    one at a time: the serial backend's tasks, on every backend."""

    def test_every_backend_runs_the_serial_tasks(self, workload, monkeypatch):
        """Per phase, the multiset of task bodies dispatched is the same
        on the serial backend and on two worker processes (the drivers'
        chunks patched small, so every pair phase has many tasks)."""
        sequences, config = workload
        seen = {}
        for backend in (SerialBackend(), ProcessBackend(workers=2)):
            bodies: defaultdict[str, Counter] = defaultdict(Counter)
            real = type(backend)._dispatch

            def recording(self, body, sink, real=real, bodies=bodies):
                bodies[self._phase_stats().name][task_key(body)] += 1
                real(self, body, sink)

            monkeypatch.setattr(type(backend), "_dispatch", recording)
            with mock.patch.object(phases, "RR_CHUNK", 4), \
                    mock.patch.object(phases, "LOCAL_CHUNK", 4):
                ProteinFamilyPipeline(config).run(sequences, backend=backend)
            seen[backend.name] = dict(bodies)
        assert seen["process"] == seen["serial"]
        tasks = {phase: sum(c.values()) for phase, c in seen["serial"].items()}
        assert set(tasks) == {"redundancy", "clustering", "bipartite",
                              "dense_subgraphs"}
        assert all(tasks[phase] > 1 for phase in ("redundancy", "bipartite")), tasks

    def test_every_backend_spans_the_serial_tasks(self, workload, monkeypatch):
        """Per phase, the serial backend and two worker processes record
        the same multiset of task spans — name, and ``pairs`` or
        ``left`` — one per dispatched task, on worker 0's lane serially
        and on the worker lanes otherwise."""
        sequences, config = workload
        seen = {}
        for backend in (SerialBackend(), ProcessBackend(workers=2)):
            dispatched: Counter = Counter()
            real = type(backend)._dispatch

            def counting(self, body, sink, real=real, dispatched=dispatched):
                dispatched[self._phase_stats().name] += 1
                real(self, body, sink)

            monkeypatch.setattr(type(backend), "_dispatch", counting)
            with mock.patch.object(phases, "RR_CHUNK", 4), \
                    mock.patch.object(phases, "LOCAL_CHUNK", 4):
                spans = ProteinFamilyPipeline(config).run(sequences, backend=backend).obs.spans
            windows = [s for s in spans if s.cat == "phase"]
            per_phase: defaultdict[str, Counter] = defaultdict(Counter)
            lanes = set()
            for span in (s for s in spans if s.cat == "task"):
                mid = (span.start + span.end) / 2
                (phase,) = [w.name for w in windows if w.start <= mid <= w.end]
                args = dict(span.args)
                per_phase[phase][span.name, args.get("pairs", args.get("left"))] += 1
                lanes.add(span.lane)
            assert {phase: sum(c.values()) for phase, c in per_phase.items()} == dispatched
            seen[backend.name] = dict(per_phase), lanes
        assert seen["process"][0] == seen["serial"][0]
        assert seen["serial"][1] == {1}
        assert seen["process"][1] <= {1, 2}

    def test_dp_cut_does_not_depend_on_completion_order(self, rr_dp_metagenome, monkeypatch):
        """RR's ``"contain_dp"`` tasks are cut from the sweeps' undecided
        pairs in submission order: while worker 0 sleeps on the first
        sweep the later ones come back first, and the multiset of RR
        task bodies is still the serial run's.  Every DP task but the
        last holds exactly ``LOCAL_CHUNK`` pairs, and RR's progress
        counts each pair once."""
        sequences = rr_dp_metagenome.sequences
        delay = FaultPlan(faults=(Fault(kind="delay_task", phase="redundancy",
                                        worker=0, at_task=0, seconds=0.3),))
        seen, injected = {}, {}
        for backend in (SerialBackend(), ProcessBackend(workers=2, fault_plan=delay)):
            bodies: list[tuple] = []
            real = type(backend)._dispatch

            def recording(self, body, sink, real=real, bodies=bodies):
                if self._phase_stats().name == "redundancy":
                    bodies.append(body)
                real(self, body, sink)

            monkeypatch.setattr(type(backend), "_dispatch", recording)
            with mock.patch.object(phases, "RR_CHUNK", 4), \
                    mock.patch.object(phases, "LOCAL_CHUNK", 3):
                result = ProteinFamilyPipeline(PipelineConfig()).run(
                    sequences, backend=backend)
            seen[backend.name] = bodies
            counters = result.obs.counters()
            injected[backend.name] = counters.get("faults.injected", 0)
            # Progress counts each pair once: by its sweep or its DP task.
            assert counters["runtime.pairs_done.redundancy"] == counters["rr.pairs"]
            assert counters["batch.dp_pairs"] > 0
        assert injected == {"serial": 0, "process": 1}
        assert Counter(map(task_key, seen["process"])) == Counter(map(task_key, seen["serial"]))
        sweeps = [body for body in seen["serial"] if body[0] == "contain"]
        dp = [body for body in seen["serial"] if body[0] == "contain_dp"]
        assert len(sweeps) + len(dp) == len(seen["serial"])
        assert len(dp) >= 2
        assert [len(body[-1]) for body in dp[:-1]] == [3] * (len(dp) - 1)
        assert 1 <= len(dp[-1][-1]) <= 3
        # Not vacuous: a DP task holds pairs of the delayed first sweep
        # and of a later one.
        sweep_of = {pair: k for k, body in enumerate(sweeps)
                    for pair in zip(body[-2].tolist(), body[-1].tolist())}
        assert any(
            len({sweep_of[pair] for pair in zip(a.tolist(), b.tolist())}) > 1
            and 0 in {sweep_of[pair] for pair in zip(a.tolist(), b.tolist())}
            for _, a, b in dp
        )

    def test_one_task_per_worker_in_flight(self, workload, monkeypatch):
        """Once ``_throttle`` returns a worker is free, so a send never
        finds more than ``workers`` tasks in the ledger; while worker 0
        sleeps on its first RR task, its peer takes the next ones."""
        sequences, config = workload
        backend = ProcessBackend(workers=2, fault_plan=FaultPlan(faults=(
            Fault(kind="delay_task", phase="redundancy", worker=0,
                  at_task=0, seconds=0.3),
        )))
        ledger, sends = [], Counter()
        real_send, real_throttle = ProcessBackend._send, ProcessBackend._throttle

        def send(self, record):
            ledger.append(len(self._ledger))
            real_send(self, record)
            sends[record.phase, record.worker] += 1

        def throttle(self):
            real_throttle(self)
            assert len(self._ledger) < self.workers

        monkeypatch.setattr(ProcessBackend, "_send", send)
        monkeypatch.setattr(ProcessBackend, "_throttle", throttle)
        with mock.patch.object(phases, "RR_CHUNK", 2):
            result = ProteinFamilyPipeline(config).run(sequences, backend=backend)
        assert result.obs.counters()["faults.injected"] == 1
        assert len(ledger) > 4 and max(ledger) <= backend.workers
        assert sends["redundancy", 1] > sends["redundancy", 0] >= 1

    def test_components_dispatch_largest_first(self, workload):
        """Shingle tasks go out by descending edge count, ties by index;
        the results come back in input order however the executor
        completes them."""

        class Reversed(Backend):
            """Holds every task and completes them last first."""

            name = "reversed"

            def __init__(self):
                super().__init__()
                self.held, self.order = [], []

            def _dispatch(self, body, sink):
                self.order.append(body[1])
                self.held.append((body[1], sink))

            def _pump(self, *, block):
                while self.held:
                    graph, sink = self.held.pop()
                    sink(graph, 0.0)

        sequences, config = workload
        sizes = [2, 5, 3, 5, 1, 3]
        graphs = [duplicate_bipartite(n, [(i, i + 1) for i in range(n - 1)])
                  for n in sizes]
        backend = Reversed()
        with backend.session(sequences, config.scheme):
            results = backend.map_components(graphs, "global", ShingleParams(), 2, 0.5)
        assert results == graphs
        by_size = sorted(range(len(graphs)), key=lambda k: (-graphs[k].n_edges, k))
        assert [graphs.index(g) for g in backend.order] == by_size == [1, 3, 2, 5, 0, 4]

    def test_close_waits_on_sentinels(self, workload, monkeypatch):
        """Closing an idle backend waits on the workers' sentinels, never
        sleeps, and leaves no live worker and no shared-memory segment."""
        sequences, config = workload
        backend = ProcessBackend(workers=2)
        backend.open(sequences, config.scheme)
        procs = list(backend._procs)
        segments = [backend._store.spec().buffer_name,
                    backend._store.spec().offsets_name]

        def sleep(_seconds):
            raise AssertionError("close() polled with time.sleep")

        monkeypatch.setattr(time, "sleep", sleep)
        backend.close()
        monkeypatch.undo()
        assert not any(proc.is_alive() for proc in procs)
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestSharedSequenceStore:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        encoded = [
            rng.integers(0, 20, size=n).astype(np.uint8) for n in (5, 1, 17, 3)
        ]
        with SharedSequenceStore.create(encoded) as store:
            spec = store.spec()
            assert spec.n_sequences == 4
            assert spec.total_symbols == 26
            for k, seq in enumerate(encoded):
                np.testing.assert_array_equal(store.get(k), seq)
            with pytest.raises(IndexError):
                store.get(4)

    def test_attach_sees_owner_data(self):
        encoded = [np.arange(7, dtype=np.uint8)]
        owner = SharedSequenceStore.create(encoded)
        try:
            attached = SharedSequenceStore.attach(owner.spec())
            np.testing.assert_array_equal(attached.get(0), encoded[0])
            attached.close()
        finally:
            owner.close()

    def test_close_is_idempotent(self):
        store = SharedSequenceStore.create([np.zeros(3, dtype=np.uint8)])
        store.close()
        store.close()

    def test_codes_are_checked_before_the_byte_cast(self):
        """259 used to wrap to 3 in the store, so the pair below read as
        two copies of one sequence, contained at (1.0, 1.0, 1.0), where
        the list-of-arrays entry raises; 1.7 used to truncate to 1."""
        tail = list(range(1, 10))
        kwargs = dict(scheme=blosum62_scheme(), similarity=0.95, coverage=0.95)
        for make in (EncodedStore.from_sequences, SharedSequenceStore.create):
            with pytest.raises(IndexError):
                make([np.array([259, *tail]), np.array([3, *tail])])
            with pytest.raises(IndexError):
                make([np.array([-1, *tail])])
            for bad in (np.array([1.7, 2.0]), np.array([[1, 2]]), np.array([True])):
                with pytest.raises(ValueError, match="1-D integer"):
                    make([np.array(tail), bad])
        with pytest.raises(IndexError):
            batch_containment([(np.array([259, *tail]), np.array([3, *tail]))], **kwargs)
        store = EncodedStore.from_sequences([np.array([19, *tail]), np.array(tail, np.int64)])
        assert store.buffer.dtype == np.uint8 and store.get(0)[0] == 19
        with pytest.raises(IndexError, match="alphabet"):
            containment_columns(EncodedStore.from_sequences([np.array([20, *tail])] * 2),
                                np.array([0]), np.array([1]), **kwargs)


class TestBackendFactory:
    def test_make_backend(self):
        assert make_backend(None) is None
        assert isinstance(make_backend("serial"), SerialBackend)
        process = make_backend("process", workers=3)
        assert isinstance(process, ProcessBackend)
        assert process.workers == 3
        passthrough = SerialBackend()
        assert make_backend(passthrough) is passthrough
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("threads")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProcessBackend(workers=-1)
        with pytest.raises(ValueError):
            PipelineConfig(backend="gpu")
        with pytest.raises(ValueError):
            PipelineConfig(workers=-2)

    def test_runtime_info_shape(self):
        info = runtime_info()
        assert info["cpu_count"] >= 1
        assert info["usable_cpus"] >= 1
        assert info["default_workers"] == default_worker_count() >= 1
        assert info["backends"]["serial"] is True
        assert isinstance(info["backends"]["process"], bool)


class TestCacheStats:
    def test_hits_and_misses_are_tracked(self, workload):
        sequences, config = workload
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], blosum62_scheme())
        row = alignment_table([local_align(encoded[0], encoded[1])])[0]
        cache.insert(0, 1, row)
        assert cache.lookup(1, 0) is row  # canonical key: a hit
        cache.insert(0, 2, row)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["entries"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)

    def test_lookup_and_insert(self, workload):
        sequences, config = workload
        encoded = [r.encoded for r in sequences]
        cache = AlignmentCache(lambda k: encoded[k], blosum62_scheme())
        assert cache.lookup(0, 1) is None  # no counter change
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0
        row = alignment_table([local_align(encoded[0], encoded[1])])[0]
        cache.insert(0, 1, row)
        assert cache.lookup(1, 0) is row
        assert cache.stats()["hits"] == 1
        cache.insert(0, 2, row)
        assert cache.lookup(2, 0) is row
        assert cache.stats()["misses"] == 2
