"""Serve hardening tests: deadlines, backpressure, degraded mode,
snapshots + compaction, retries, and the serve chaos driver.

The property at the center (DESIGN.md §13): for any seeded insert
history, snapshot + journal-compaction + crash (torn tail) + reload
yields exactly the digest an uninterrupted full replay yields — the
snapshot machinery is a pure restart-cost optimisation with zero
influence on the science.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import obs
from repro.core.checkpoint import (
    CHECKPOINT_NAME,
    CheckpointError,
    CheckpointJournal,
    config_digest,
    input_digest,
    read_journal,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.faults.harness import run_chaos
from repro.faults.plan import (
    SERVE_KILL_EXIT_CODE,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)
from repro.faults.serve_chaos import (
    SERVE_CHAOS_REPORT,
    ServeChaosReport,
    ServeChaosScenario,
    run_serve_chaos,
)
from repro.obs.core import Recorder
from repro.obs.request import RequestContext
from repro.sequence.record import SequenceSet
from repro.serve import incremental, protocol
from repro.serve import server as server_module
from repro.serve.loadgen import run_load
from repro.serve.protocol import (
    RETRYABLE_CODES,
    ProtocolError,
    ServeClient,
    ServeTimeout,
)
from repro.serve.incremental import insert_sequence
from repro.serve.server import ServeServer
from repro.serve.snapshot import (
    SNAPSHOT_NAME,
    SNAPSHOT_PREV_NAME,
    load_snapshot,
    write_snapshot,
)
from repro.serve.state import (
    build_or_restore_serve_state,
    build_serve_state,
    load_serve_state,
)


@pytest.fixture(scope="module")
def chaos_workload(small_metagenome, tmp_path_factory):
    """(base 80%, held-out 20%, completed run_dir, config)."""
    sequences = small_metagenome.sequences
    n_base = int(len(sequences) * 0.8)
    base = sequences.subset(range(n_base))
    held = sequences.subset(range(n_base, len(sequences)))
    run_dir = tmp_path_factory.mktemp("serve-chaos-base")
    config = PipelineConfig()
    ProteinFamilyPipeline(config).run(base, run_dir=run_dir)
    return base, held, run_dir, config


def _fresh(base: SequenceSet) -> SequenceSet:
    return base.subset(range(len(base)))


def _copy_run(run_dir, tmp_path):
    import shutil

    dest = tmp_path / "run"
    dest.mkdir()
    shutil.copy2(run_dir / CHECKPOINT_NAME, dest / CHECKPOINT_NAME)
    return dest


def _resume(dest, base, config):
    return CheckpointJournal.resume(
        dest,
        config_dig=config_digest(config),
        input_dig=input_digest(base),
        n_input=len(base),
    )


def _start(state, journal, run_dir, **kw):
    server = ServeServer(
        state, journal=journal, host="127.0.0.1", port=0,
        run_dir=run_dir, **kw,
    )
    server.run_in_thread()
    return server


class TestSnapshotReplayProperty:
    """snapshot -> compact -> crash -> reload == uninterrupted replay."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("snapshot_every", [1, 2])
    def test_snapshot_compact_crash_reload_identity(
        self, chaos_workload, tmp_path, seed, snapshot_every
    ):
        import random

        base, held, run_dir, config = chaos_workload
        history = list(held)
        random.Random(seed).shuffle(history)
        history = history[: 4 + seed]

        # Arm A: uninterrupted replay — insert through a daemon with
        # snapshots *disabled*, then rebuild from the journal alone.
        plain = tmp_path / f"plain-{seed}-{snapshot_every}"
        plain.mkdir()
        import shutil

        shutil.copy2(run_dir / CHECKPOINT_NAME, plain / CHECKPOINT_NAME)
        journal = _resume(plain, _fresh(base), config)
        state = build_serve_state(
            _fresh(base), config, journal.resume_state
        )
        server = _start(state, journal, plain)
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            for record in history:
                out = client.call(
                    "insert", id=record.id, residues=record.residues
                )
                assert out["results"][0]["ok"]
            expected = client.call("status")["digest"]
        server.request_stop()
        time.sleep(0.3)

        # Arm B: snapshotting daemon, same history, then a torn journal
        # tail (the crash) before reloading through the snapshot path.
        snap = tmp_path / f"snap-{seed}-{snapshot_every}"
        snap.mkdir()
        shutil.copy2(run_dir / CHECKPOINT_NAME, snap / CHECKPOINT_NAME)
        journal_b = _resume(snap, _fresh(base), config)
        state_b = build_serve_state(
            _fresh(base), config, journal_b.resume_state
        )
        server_b = _start(
            state_b, journal_b, snap, snapshot_every=snapshot_every
        )
        host_b, port_b = server_b.address
        with ServeClient.connect(host_b, port_b) as client:
            for record in history:
                out = client.call(
                    "insert", id=record.id, residues=record.residues
                )
                assert out["results"][0]["ok"]
            live = client.call("status")["digest"]
        server_b.request_stop()
        time.sleep(0.3)
        assert live == expected
        assert (snap / SNAPSHOT_NAME).exists()
        # Compaction really pruned the journal below the previous
        # snapshot generation's coverage.
        if len(history) > snapshot_every * 2:
            seqs = [
                r["seq"] for r in read_journal(snap / CHECKPOINT_NAME)
                if r.get("type") == "serve_insert"
            ]
            assert seqs and seqs[0] > 0
        # The crash: a torn, CRC-failing tail on the compacted journal.
        with open(snap / CHECKPOINT_NAME, "ab") as fh:
            fh.write(b'deadbeef {"type":"serve_insert","se')
        journal_c = _resume(snap, _fresh(base), config)
        try:
            restored, info = build_or_restore_serve_state(
                _fresh(base), config, journal_c.resume_state, run_dir=snap
            )
        finally:
            journal_c.close()
        assert restored.digest() == expected
        assert info["snapshot_covered"] is not None

    def test_compaction_below_lost_snapshot_is_loud(
        self, chaos_workload, tmp_path
    ):
        """Journal compacted + every snapshot generation gone: refuse
        to serve a silently wrong state."""
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        server = _start(state, journal, dest, snapshot_every=1)
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            for record in list(held)[:3]:
                client.call(
                    "insert", id=record.id, residues=record.residues
                )
        server.request_stop()
        time.sleep(0.3)
        (dest / SNAPSHOT_NAME).unlink()
        (dest / SNAPSHOT_PREV_NAME).unlink()
        journal_b = _resume(dest, _fresh(base), config)
        with pytest.raises(CheckpointError, match="compacted below"):
            build_or_restore_serve_state(
                _fresh(base), config, journal_b.resume_state, run_dir=dest
            )
        journal_b.close()


class TestDeadlinesAndBackpressure:
    def test_expired_deadline_sheds_before_dispatch(
        self, chaos_workload, tmp_path
    ):
        base, _held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        server = _start(state, journal, dest)
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.call("query", id=base[0].id, deadline_ms=0.001)
            assert excinfo.value.code == "deadline_exceeded"
            assert "deadline_exceeded" in RETRYABLE_CODES
            # A sane budget answers normally.
            ok = client.call("query", id=base[0].id, deadline_ms=30000)
            assert ok["found"]
        server.request_stop()

    def test_deadline_between_stages_sheds_the_whole_query(
        self, chaos_workload, monkeypatch
    ):
        """A budget the containment stage uses up is shed at the stage
        boundary: `deadline_exceeded`, one shed counted, no overlap
        stage run and nothing of the classification in the reply."""
        base, held, run_dir, config = chaos_workload
        state = load_serve_state(run_dir, _fresh(base), config)
        server = ServeServer(state)
        clock = [0.0]
        monkeypatch.setattr(server.recorder, "now", lambda: clock[0])
        stages: list[str] = []

        def containment_taking_a_second(*args):
            stages.append("containment")
            clock[0] += 1.0
            return incremental.plan_containment(*args)

        def overlap(*args):
            stages.append("overlap")
            return incremental.plan_overlaps(*args)

        monkeypatch.setattr(
            server_module, "plan_containment", containment_taking_a_second)
        monkeypatch.setattr(server_module, "plan_overlaps", overlap)

        def classify(deadline_ms: float) -> dict:
            line = protocol.encode(protocol.request(
                "query", residues=held[0].residues, deadline_ms=deadline_ms))
            ctx = RequestContext(server.recorder)
            with ctx.install():
                response, _keep_open = server._respond(ctx, line)
            server._finish_request(ctx)
            return response

        whole = classify(60_000)
        assert whole["ok"] and stages == ["containment", "overlap"]
        del stages[:]
        shed = classify(500)
        assert stages == ["containment"]
        assert shed["ok"] is False and shed["code"] == "deadline_exceeded"
        assert "overlap stage" in shed["error"]
        assert shed.keys() == {"ok", "code", "error"}
        assert server.recorder.value("serve.deadline_sheds") == 1
        assert server.recorder.value("serve.errors") == 1
        # The same query inside its budget runs both stages and answers.
        assert classify(1500) == whole
        assert stages == ["containment", "containment", "overlap"]
        assert server.recorder.value("serve.deadline_sheds") == 1

    def test_overload_sheds_with_retry_after(self, chaos_workload, tmp_path):
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        plan = FaultPlan(
            (Fault(kind="serve_delay_insert", at_task=0, seconds=1.0),)
        )
        server = _start(
            state, journal, dest,
            max_queue=1, queue_wait=0.02, injector=FaultInjector(plan),
        )
        host, port = server.address
        records = list(held)[:3]
        outcomes: dict[str, object] = {}

        def worker(key: str, record) -> None:
            try:
                with ServeClient.connect(host, port) as cl:
                    outcomes[key] = cl.call(
                        "insert", id=record.id, residues=record.residues
                    )
            except (ProtocolError, OSError) as exc:
                outcomes[key] = exc

        t_apply = threading.Thread(
            target=worker, args=("apply", records[0]), daemon=True
        )
        t_queue = threading.Thread(
            target=worker, args=("queue", records[1]), daemon=True
        )
        t_apply.start()
        time.sleep(0.2)
        t_queue.start()
        deadline = time.monotonic() + 10.0
        while not server._queue.full() and time.monotonic() < deadline:
            time.sleep(0.01)
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.call(
                    "insert", id=records[2].id, residues=records[2].residues
                )
            assert excinfo.value.code == "overloaded"
            assert excinfo.value.retry_after_ms
            # call_with_retry honours the hint and converges.
            out = client.call_with_retry(
                "insert", retries=12, backoff=0.3,
                id=records[2].id, residues=records[2].residues,
            )
            assert out["results"][0]["ok"]
        t_apply.join(timeout=15)
        t_queue.join(timeout=15)
        assert isinstance(outcomes["apply"], dict)
        assert isinstance(outcomes["queue"], dict)
        server.request_stop()

    def test_batch_cap_is_a_bad_request(self, chaos_workload, tmp_path):
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        server = _start(state, journal, dest, max_batch_records=2)
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.call("insert_batch", records=[
                    {"id": f"cap-{i}", "residues": held[0].residues}
                    for i in range(3)
                ])
            assert excinfo.value.code == "bad_request"
        server.request_stop()


class TestDegradedMode:
    def test_journal_failure_degrades_read_only(
        self, chaos_workload, tmp_path
    ):
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        plan = FaultPlan((Fault(kind="serve_journal_error", at_task=1),))
        server = _start(state, journal, dest, injector=FaultInjector(plan))
        host, port = server.address
        records = list(held)[:3]
        with ServeClient.connect(host, port) as client:
            ok = client.call(
                "insert", id=records[0].id, residues=records[0].residues
            )
            assert ok["results"][0]["ok"]
            health = client.call("health")
            assert health["degraded"] is False
            with pytest.raises(ProtocolError) as excinfo:
                client.call(
                    "insert", id=records[1].id, residues=records[1].residues
                )
            assert excinfo.value.code == "read_only"
            # Degraded for good: later inserts refused up front, queries
            # and health keep answering.
            with pytest.raises(ProtocolError) as excinfo:
                client.call(
                    "insert", id=records[2].id, residues=records[2].residues
                )
            assert excinfo.value.code == "read_only"
            health = client.call("health")
            assert health["degraded"] is True
            assert health["degraded_reason"]
            assert client.call("query", id=base[0].id)["found"]
            assert client.call("status")["degraded"] is True
            assert server.metrics_snapshot()["degraded"] is True
        server.request_stop()

    def test_refused_insert_counts_no_decision(
        self, chaos_workload, tmp_path
    ):
        """`serve.redundant` and `serve.merges` count applied decisions:
        an insert the journal refuses moves neither, though the same
        insert applied moves both."""
        base, _held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        rep = sorted(state.rep_index.active)[0]
        # Retires the representative it extends and joins its family.
        record = {"id": "tailed",
                  "residues": state.sequences[rep].residues + "ACD"}
        plan = FaultPlan((Fault(kind="serve_journal_error", at_task=0),))
        server = ServeServer(state, journal=journal,
                             injector=FaultInjector(plan))
        digest = state.digest()
        refused = Recorder()
        with obs.recording(refused):
            result = server._apply_one(record)
        journal.close()
        assert result["ok"] is False and result["code"] == "read_only"
        assert state.digest() == digest
        assert refused.value("serve.redundant") == 0
        assert refused.value("serve.merges") == 0
        applied = Recorder()
        with obs.recording(applied):
            insert_sequence(state, record["id"], record["residues"])
        assert applied.value("serve.redundant") >= 1
        assert applied.value("serve.merges") >= 1


class TestClientTimeoutsAndRetries:
    def test_timeout_is_typed(self):
        gate = threading.Event()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def mute_server():
            conn, _ = listener.accept()
            gate.wait(5.0)  # never answers
            conn.close()

        thread = threading.Thread(target=mute_server, daemon=True)
        thread.start()
        try:
            with ServeClient.connect(host, port, timeout=0.2) as client:
                with pytest.raises(ServeTimeout):
                    client.call("hello")
                # ServeTimeout is an OSError: one except arm in callers.
                assert isinstance(ServeTimeout("x"), OSError)
        finally:
            gate.set()
            listener.close()

    def test_retry_reconnects_after_drop(self, chaos_workload, tmp_path):
        base, _held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        server = _start(state, journal, dest)
        host, port = server.address
        client = ServeClient.connect(host, port, timeout=10.0)
        try:
            client._sock.shutdown(socket.SHUT_RDWR)  # simulate a drop
            out = client.call_with_retry("hello", retries=2, backoff=0.01)
            assert out["ok"]
        finally:
            client.close()
            server.request_stop()


class TestLoadgenSheds:
    def test_sheds_counted_apart_from_errors(self, chaos_workload, tmp_path):
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        server = _start(state, journal, dest, max_queue=1, queue_wait=0.001)
        host, port = server.address
        result = run_load(
            host, port,
            clients=8, requests_per_client=6,
            query_ids=[r.id for r in base],
            inserts=[
                {"id": f"lg-{i}", "residues": r.residues}
                for i, r in enumerate(list(held) * 3)
            ],
            insert_fraction=0.9,
            seed=7,
        )
        server.request_stop()
        assert result.n_errors == 0
        metrics = result.metrics()
        assert metrics["n_overloaded"] == result.n_overloaded
        assert (
            metrics["shed_fraction"]
            == result.n_shed / result.n_attempted
        )
        assert metrics["goodput_per_s"] >= 0.0


class TestServeChaosDriver:
    def test_batch_harness_rejects_serve_faults(self, tiny_metagenome):
        plan = FaultPlan((Fault(kind="serve_kill_daemon", at_task=0),))
        with pytest.raises(FaultPlanError, match="repro chaos --serve"):
            run_chaos(
                tiny_metagenome.sequences, PipelineConfig(), plan
            )

    def test_unknown_scenario_rejected(self, small_metagenome, tmp_path):
        with pytest.raises(FaultPlanError, match="unknown serve chaos"):
            run_serve_chaos(
                small_metagenome.sequences, PipelineConfig(),
                run_dir=tmp_path, only=["nope"],
            )

    def test_inprocess_scenarios_identical(self, small_metagenome, tmp_path):
        """A fast subset of the matrix (the full matrix, subprocess
        scenarios included, runs in the serve-chaos CI job)."""
        report = run_serve_chaos(
            small_metagenome.sequences, PipelineConfig(),
            run_dir=tmp_path,
            only=["journal_error", "torn_journal", "stalled_client"],
        )
        assert isinstance(report, ServeChaosReport)
        assert [s.name for s in report.scenarios] == [
            "journal_error", "torn_journal", "stalled_client"
        ]
        for scenario in report.scenarios:
            assert isinstance(scenario, ServeChaosScenario)
            assert scenario.ok, scenario.failures
        assert report.ok
        assert report.lines()[-1].endswith("IDENTICAL")
        report_path = tmp_path / SERVE_CHAOS_REPORT
        assert report_path.exists()
        import json

        doc = json.loads(report_path.read_text())
        assert doc["schema"] == "repro-serve-chaos/1"
        assert doc["ok"] is True

    def test_serve_fault_plan_rejects_task_coordinates(self):
        with pytest.raises(FaultPlanError, match="phase"):
            Fault(kind="serve_kill_applier", at_task=0, phase="rr")
        assert SERVE_KILL_EXIT_CODE == 73


class TestSnapshotRoundtrip:
    def test_write_load_roundtrip_and_foreign_config(
        self, chaos_workload, tmp_path
    ):
        base, held, run_dir, config = chaos_workload
        dest = _copy_run(run_dir, tmp_path)
        journal = _resume(dest, _fresh(base), config)
        state = build_serve_state(_fresh(base), config, journal.resume_state)
        journal.close()
        config_dig = config_digest(config)
        input_dig = input_digest(_fresh(base))
        write_snapshot(
            dest, state, config_dig=config_dig, input_dig=input_dig
        )
        payload = load_snapshot(
            dest, config_dig=config_dig, input_dig=input_dig
        )
        assert payload is not None
        assert payload["covered"] == 0
        assert payload["digest"] == state.digest()
        # A foreign (config, input) pair is damage, not a match.
        with pytest.warns(RuntimeWarning, match="different"):
            foreign = load_snapshot(
                dest, config_dig="0" * 64, input_dig=input_dig
            )
        assert foreign is None
