"""Serving subsystem tests: state loading, incremental inserts, journal
replay identity, the socket daemon, the wire protocol, and the load
generator — plus the two acceptance gates of the serving design:

* **equivalence** — inserting a held-out 20% of the workload through
  the serving path (uncapped representatives) yields exactly the
  families the batch pipeline finds on the full input;
* **replay identity** — a state rebuilt from the journal alone is
  digest-identical to the live state that wrote it.
"""

from __future__ import annotations

import json
import math
import random
import re
import socket
import threading
import time

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    config_digest,
    input_digest,
    read_journal,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro import obs
from repro.align import batch
from repro.obs import (
    TELEMETRY_FILENAME,
    LatencyHistogram,
    RequestContext,
    next_request_id,
    read_slow_log,
    read_telemetry,
    request_recording,
    slow_trace,
    write_slow_trace,
)
from repro.obs.core import Recorder
from repro.obs.hist import (
    BUCKET_FACTOR,
    MIN_LATENCY_S,
    MAX_LATENCY_S,
)
from repro.obs.top import render_screen
from repro.sequence.record import SequenceSet
from repro.serve import protocol
from repro.serve.incremental import insert_sequence, replay_insert
from repro.serve.loadgen import percentile, run_load
from repro.serve.protocol import ProtocolError, ServeClient
from repro.serve.representatives import (
    RepresentativeIndex,
    select_representatives,
)
from repro.serve.server import (
    ADDR_FILENAME,
    METRICS_SCHEMA,
    REJECTED_VERB,
    ServeServer,
)
from repro.serve.state import build_serve_state, load_serve_state
from repro.sequence.alphabet import encode


@pytest.fixture(scope="module")
def serve_workload(small_metagenome, tmp_path_factory):
    """(base 80%, held-out 20%, completed run_dir, config)."""
    sequences = small_metagenome.sequences
    n_base = int(len(sequences) * 0.8)
    base = sequences.subset(range(n_base))
    held = sequences.subset(range(n_base, len(sequences)))
    run_dir = tmp_path_factory.mktemp("serve-run")
    config = PipelineConfig()
    ProteinFamilyPipeline(config).run(base, run_dir=run_dir)
    return base, held, run_dir, config


def _reload_base(base: SequenceSet) -> SequenceSet:
    """A fresh, un-mutated copy of the base set (serving appends)."""
    return base.subset(range(len(base)))


def _family_ids(state) -> list[list[str]]:
    return sorted(
        sorted(state.sequences[i].id for i in fam)
        for fam in state.families()
    )


class TestRepresentatives:
    def test_selection_ranks_centrality_then_length(self):
        lengths = [10, 50, 30, 40]
        centrality = {2: 3}
        picked = select_representatives(
            [0, 1, 2, 3], lengths=lengths, centrality=centrality, cap=2
        )
        # 2 wins on centrality, 1 is the longest of the rest.
        assert picked == [1, 2]

    def test_selection_deterministic_ties_by_index(self):
        lengths = [20, 20, 20]
        picked = select_representatives(
            [2, 0, 1], lengths=lengths, centrality={}, cap=2
        )
        assert picked == [0, 1]

    def test_selection_cap_validation(self):
        with pytest.raises(ValueError, match="cap"):
            select_representatives([0], lengths=[5], centrality={}, cap=0)

    def test_index_candidates_share_psi_window(self):
        index = RepresentativeIndex(psi=4)
        a = encode("MKLVAAAA")
        b = encode("QQQQMKLV")  # shares window "MKLV" with a
        c = encode("WWWWWWWW")
        index.add(0, a)
        index.add(2, c)
        assert index.candidates(b) == [0]
        assert index.candidates(c) == [2]

    def test_index_discard_is_lazy_but_filtered(self):
        index = RepresentativeIndex(psi=3)
        index.add(0, encode("MKLVA"))
        assert index.candidates(encode("MKLVA")) == [0]
        index.discard(0)
        assert index.candidates(encode("MKLVA")) == []
        assert len(index) == 0

    def test_index_add_idempotent_and_contains(self):
        index = RepresentativeIndex(psi=3)
        index.add(1, encode("MKLVA"))
        index.add(1, encode("MKLVA"))
        assert 1 in index and len(index) == 1

    def test_index_psi_validation(self):
        with pytest.raises(ValueError, match="psi"):
            RepresentativeIndex(psi=1)


class TestServeStateLoading:
    def test_load_families_match_checkpoint_components(self, serve_workload):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        batch = ProteinFamilyPipeline(config).run(_reload_base(base))
        batch_fams = sorted(
            sorted(base[i].id for i in comp)
            for comp in batch.clustering.components
        )
        assert _family_ids(state) == batch_fams

    def test_load_rejects_missing_run_dir(self, serve_workload, tmp_path):
        base, _held, _run_dir, config = serve_workload
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            load_serve_state(tmp_path / "absent", _reload_base(base), config)

    def test_load_rejects_wrong_input(self, serve_workload):
        base, held, run_dir, config = serve_workload
        with pytest.raises(CheckpointError, match="different input"):
            load_serve_state(run_dir, held.subset(range(len(held))), config)

    def test_load_requires_completed_clustering(self, serve_workload,
                                                tmp_path):
        base, _held, run_dir, config = serve_workload
        # Copy only the meta line: validates but has no phases done.
        src = (run_dir / "checkpoint.jsonl").read_text().splitlines()
        stub = tmp_path / "stub"
        stub.mkdir()
        (stub / "checkpoint.jsonl").write_text(src[0] + "\n")
        with pytest.raises(CheckpointError, match="clustering"):
            load_serve_state(stub, _reload_base(base), config)

    def test_digest_is_stable_across_loads(self, serve_workload):
        base, _held, run_dir, config = serve_workload
        one = load_serve_state(run_dir, _reload_base(base), config)
        two = load_serve_state(run_dir, _reload_base(base), config)
        assert one.digest() == two.digest()


class TestIncrementalInsert:
    def test_duplicate_id_rejected_without_mutation(self, serve_workload):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        digest = state.digest()
        with pytest.raises(ValueError, match="already present"):
            insert_sequence(state, base[0].id, base[0].residues)
        assert state.digest() == digest

    def test_invalid_residues_rejected_without_mutation(self,
                                                        serve_workload):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        digest = state.digest()
        with pytest.raises(ValueError):
            insert_sequence(state, "bad", "NOT@PROTEIN!")
        assert state.digest() == digest

    def test_failing_journal_write_leaves_state_unmutated(self,
                                                         serve_workload):
        """Journal first, then commit: a write that fails raises with
        nothing applied, so no live change lacks its durable record."""
        base, held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        digest = state.digest()

        class FullDisk:
            def serve_insert(self, decision):
                raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space"):
            insert_sequence(state, held[0].id, held[0].residues,
                            journal=FullDisk())
        assert state.digest() == digest
        assert held[0].id not in state.sequences

    def test_exact_duplicate_is_contained(self, serve_workload):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        # Re-insert a copy of an existing representative: Definition 1
        # must declare the (equal-length, higher-index) copy redundant.
        rep = sorted(state.rep_index.active)[0]
        out = insert_sequence(
            state, "copy-of-rep", state.sequences[rep].residues
        )
        container = out["redundant_against"]
        assert container is not None
        assert state.redundant[out["index"]] == container
        # The copy joins its container's family for membership queries.
        assert state.uf.same(out["index"], container)

    def test_n_families_counts_without_building(self, serve_workload):
        """The count under the server lock equals the materialised
        families' through merges and members going redundant."""
        base, held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        assert state.n_families() == len(state.families())
        rep = sorted(state.rep_index.active)[0]
        loner = held[len(held) - 1]  # a noise sequence: a family of one
        rng = random.Random(3)
        flanks = ["".join(rng.choices("ACDEFGHIKLMNPQRSTVWY", k=300))
                  for _ in range(2)]
        inserts = [(r.id, r.residues) for r in held]
        # A copy is retired into its family; a container retires a
        # representative of its own family; and one so much longer that
        # Definition 2 fails retires the loner without joining it, which
        # leaves a component with no live member — not a family.
        inserts.insert(2, ("copy", base[rep].residues))
        inserts.insert(4, ("longer",
                           "MKV" * 4 + base[rep].residues + "GHW" * 4))
        inserts.append(("engulfing", flanks[0] + loner.residues + flanks[1]))
        for seq_id, residues in inserts:
            insert_sequence(state, seq_id, residues)
            assert state.n_families() == len(state.families())
        assert rep in state.redundant
        assert state.n_families() == len(state.partition()) - 1

    def test_equivalence_gate_vs_batch(self, serve_workload,
                                       small_metagenome):
        """Held-out 20% inserted through serving == batch on 100%."""
        base, held, run_dir, config = serve_workload
        state = load_serve_state(
            run_dir, _reload_base(base), config, max_representatives=10_000
        )
        for record in held:
            insert_sequence(state, record.id, record.residues)
        full = small_metagenome.sequences
        batch = ProteinFamilyPipeline(config).run(
            full.subset(range(len(full)))
        )
        batch_fams = sorted(
            sorted(full[i].id for i in comp)
            for comp in batch.clustering.components
        )
        assert _family_ids(state) == batch_fams
        assert len(state.redundant) == len(batch.redundancy.redundant)

    def test_journal_replay_is_bit_identical(self, serve_workload,
                                             tmp_path):
        base, held, run_dir, config = serve_workload
        # Private journal copy so inserts don't leak into other tests.
        my_run = tmp_path / "run"
        my_run.mkdir()
        (my_run / "checkpoint.jsonl").write_bytes(
            (run_dir / "checkpoint.jsonl").read_bytes()
        )
        journal = CheckpointJournal.resume(
            my_run,
            config_dig=config_digest(config),
            input_dig=input_digest(base),
            n_input=len(base),
        )
        state = build_serve_state(
            _reload_base(base), config, journal.resume_state
        )
        for record in held:
            insert_sequence(state, record.id, record.residues,
                            journal=journal)
        live_digest = state.digest()
        journal.close()  # the SIGKILL stand-in: only the file survives
        replayed = load_serve_state(my_run, _reload_base(base), config)
        assert replayed.digest() == live_digest
        assert len(replayed.inserted) == len(held)
        assert _family_ids(replayed) == _family_ids(state)

    def test_replay_insert_applies_decision_without_alignment(
            self, serve_workload, tmp_path, monkeypatch):
        base, held, run_dir, config = serve_workload
        my_run = tmp_path / "run"
        my_run.mkdir()
        (my_run / "checkpoint.jsonl").write_bytes(
            (run_dir / "checkpoint.jsonl").read_bytes()
        )
        journal = CheckpointJournal.resume(
            my_run,
            config_dig=config_digest(config),
            input_dig=input_digest(base),
            n_input=len(base),
        )
        live = build_serve_state(
            _reload_base(base), config, journal.resume_state
        )
        insert_sequence(live, held[0].id, held[0].residues, journal=journal)
        journal.close()
        decisions = [
            r["data"] for r in read_journal(my_run / "checkpoint.jsonl")
            if r.get("type") == "serve_insert"
        ]
        assert len(decisions) == 1
        mirror = load_serve_state(run_dir, _reload_base(base), config)

        def no_alignment(*_args, **_kwargs):
            raise AssertionError("replay must not align")

        # Every alignment route ends in one of these three kernels.
        monkeypatch.setattr(batch, "_myers_table_sweep", no_alignment)
        monkeypatch.setattr(batch, "_myers_packed", no_alignment)
        monkeypatch.setattr(batch, "_bucket_fill", no_alignment)
        replay_insert(mirror, decisions[0])
        assert mirror.digest() == live.digest()


class TestServerSocket:
    @pytest.fixture()
    def server(self, serve_workload, tmp_path):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path)
        server.run_in_thread()
        yield server
        server.request_stop()

    def test_hello_status_and_addr_file(self, server, tmp_path):
        host, port = server.address
        addr_text = (tmp_path / "serve.addr").read_text().split()
        assert addr_text == [host, str(port)]
        with ServeClient.connect(host, port) as client:
            hello = client.call("hello")
            assert hello["protocol"] == protocol.PROTOCOL_VERSION
            status = client.call("status")
            assert status["n_sequences"] == hello["n_sequences"]
            assert "digest" in status

    def test_query_by_id_and_by_residues(self, server, serve_workload):
        base, _held, _run_dir, _config = serve_workload
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            by_id = client.call("query", id=base[0].id)
            assert by_id["found"] and base[0].id in by_id["family"]
            missing = client.call("query", id="no-such-id")
            assert missing["found"] is False
            # Read-only classification finds the same family and does
            # not grow the collection.
            n_before = client.call("status")["n_sequences"]
            by_res = client.call("query", residues=base[0].residues)
            assert by_res["found"]
            assert client.call("status")["n_sequences"] == n_before

    def test_insert_and_batch_roundtrip(self, server, serve_workload):
        _base, held, _run_dir, _config = serve_workload
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            single = client.call(
                "insert", id="srv-one", residues=held[0].residues
            )
            assert single["results"][0]["ok"]
            batch = client.call("insert_batch", records=[
                {"id": f"srv-batch-{i}", "residues": r.residues}
                for i, r in enumerate(list(held)[1:4])
            ])
            assert [r["ok"] for r in batch["results"]] == [True] * 3
            # Retrying an acked insert is exactly-once: the (id,
            # residues) idempotency key returns the original outcome.
            dup = client.call("insert", id="srv-one",
                              residues=held[0].residues)
            assert dup["results"][0]["ok"] is True
            assert dup["results"][0]["idempotent"] is True
            # The same id with different residues stays a hard error.
            clash = client.call("insert", id="srv-one",
                                residues=held[1].residues)
            assert clash["results"][0]["ok"] is False
            assert "different residues" in clash["results"][0]["error"]

    def test_version_mismatch_refused(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(b'{"v": 99, "op": "hello"}\n')
            reply = json.loads(raw.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["code"] == "version_mismatch"

    def test_unknown_op_and_bad_request(self, server):
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.call("frobnicate")
            assert excinfo.value.code == "unknown_op"
            with pytest.raises(ProtocolError) as excinfo:
                client.call("query")
            assert excinfo.value.code == "bad_request"

    def test_shutdown_op_drains(self, serve_workload):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0)
        thread = server.run_in_thread()
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            assert client.call("shutdown")["stopping"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestLoadgen:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 102)]  # odd: exact median
        assert percentile(samples, 50.0) == 51.0
        assert percentile(samples, 99.0) == 100.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 101.0
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_load_against_live_server(self, serve_workload):
        base, held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0)
        server.run_in_thread()
        host, port = server.address
        try:
            result = run_load(
                host, port,
                clients=4,
                requests_per_client=6,
                query_ids=[r.id for r in base],
                inserts=[{"id": f"lg-{i}", "residues": r.residues}
                         for i, r in enumerate(held)],
                insert_fraction=0.3,
                seed=7,
            )
        finally:
            server.request_stop()
        assert result.n_errors == 0
        assert result.n_queries + result.n_inserts == 24
        metrics = result.metrics()
        assert metrics["query_p99_ms"] >= metrics["query_p50_ms"] > 0.0


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        msg = protocol.request("query", id="x")
        assert protocol.decode_line(protocol.encode(msg)) == msg

    def test_decode_rejects_bad_json_and_non_objects(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_line(b"not json\n")
        assert excinfo.value.code == "bad_json"
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_line(b"[1, 2]\n")
        assert excinfo.value.code == "bad_request"

    def test_decode_rejects_oversized_line(self):
        blob = b"x" * (protocol.MAX_LINE_BYTES + 1)
        with pytest.raises(ProtocolError) as excinfo:
            protocol.decode_line(blob)
        assert excinfo.value.code == "line_too_long"

    def test_validate_version_first(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_request({"op": "hello"})
        assert excinfo.value.code == "version_mismatch"

    @pytest.mark.parametrize("message,code", [
        ({"v": 1, "op": "nope"}, "unknown_op"),
        ({"v": 1, "op": "query"}, "bad_request"),
        ({"v": 1, "op": "insert", "id": "x"}, "bad_request"),
        ({"v": 1, "op": "insert", "id": "", "residues": "MK"},
         "bad_request"),
        ({"v": 1, "op": "insert_batch", "records": []}, "bad_request"),
        ({"v": 1, "op": "insert_batch", "records": ["x"]}, "bad_request"),
    ])
    def test_validate_rejections(self, message, code):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.validate_request(message)
        assert excinfo.value.code == code

    @pytest.mark.parametrize("message", [
        {"v": 1, "op": "hello"},
        {"v": 1, "op": "query", "id": "x"},
        {"v": 1, "op": "query", "residues": "MKLV"},
        {"v": 1, "op": "insert", "id": "x", "residues": "MKLV"},
        {"v": 1, "op": "insert_batch",
         "records": [{"id": "x", "residues": "MKLV"}]},
        {"v": 1, "op": "metrics"},
        {"v": 1, "op": "shutdown"},
    ])
    def test_validate_accepts(self, message):
        assert protocol.validate_request(message) == message["op"]


class TestServeCli:
    def test_serve_missing_run_dir_exits_2(self, serve_workload, tmp_path,
                                           capsys):
        from repro.cli import main

        base, _held, _run_dir, _config = serve_workload
        fasta = tmp_path / "base.fasta"
        from repro.sequence.fasta import write_fasta

        write_fasta(base, fasta)
        rc = main(["serve", str(fasta), "--run-dir",
                   str(tmp_path / "absent")])
        assert rc == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_serve_corrupt_journal_exits_2(self, serve_workload, tmp_path,
                                           capsys):
        from repro.cli import main
        from repro.sequence.fasta import write_fasta

        base, _held, _run_dir, _config = serve_workload
        fasta = tmp_path / "base.fasta"
        write_fasta(base, fasta)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "checkpoint.jsonl").write_text("garbage\n")
        rc = main(["serve", str(fasta), "--run-dir", str(bad)])
        assert rc == 2
        assert "meta record" in capsys.readouterr().err

    def test_serve_port_in_use_exits_2(self, serve_workload, tmp_path,
                                       capsys):
        from repro.cli import main
        from repro.sequence.fasta import write_fasta

        base, _held, run_dir, _config = serve_workload
        fasta = tmp_path / "base.fasta"
        write_fasta(base, fasta)
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(["serve", str(fasta), "--run-dir", str(run_dir),
                       "--port", str(port)])
        finally:
            blocker.close()
        assert rc == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_query_bad_address_exits_2(self, capsys):
        from repro.cli import main

        assert main(["query", "not-an-address"]) == 2
        assert main(["query", "localhost:99999999"]) == 2
        capsys.readouterr()

    def test_query_connection_refused_exits_2(self, capsys):
        from repro.cli import main

        free = socket.socket()
        free.bind(("127.0.0.1", 0))
        port = free.getsockname()[1]
        free.close()  # nothing listens here any more
        rc = main(["query", f"127.0.0.1:{port}"])
        assert rc == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_query_against_live_daemon(self, serve_workload, capsys):
        from repro.cli import main

        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0)
        server.run_in_thread()
        host, port = server.address
        try:
            assert main(["query", f"{host}:{port}"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["ok"] and out["n_families"] > 0
            assert main(["query", f"{host}:{port}", "--id",
                         base[0].id]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["found"]
            # --metrics scrapes the SLO surface over the same wire.
            assert main(["query", f"{host}:{port}", "--metrics"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["ok"] and out["schema"] == METRICS_SCHEMA
            assert out["percentiles"]["query"]["count"] >= 1
        finally:
            server.request_stop()


def _wait_for(predicate, timeout=5.0, interval=0.01):
    """Poll until ``predicate()`` is truthy (cross-thread metric reads:
    a request lands in the histograms/counters just *after* its ack)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


class TestLatencyHistogram:
    def _samples(self):
        rng = random.Random(2008)
        # Log-uniform across the resolvable range plus edge clusters.
        samples = [10.0 ** rng.uniform(-5.5, 0.5) for _ in range(400)]
        samples += [2e-4] * 25 + [3e-2] * 10
        return samples

    def test_percentile_within_one_bucket_of_exact(self):
        samples = self._samples()
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        for pct in (0.0, 50.0, 90.0, 99.0, 99.9, 100.0):
            exact = percentile(samples, pct)  # loadgen's nearest-rank
            estimate = hist.percentile(pct)
            # Upper-edge reporting: never under-reads, over-reads by at
            # most one bucket ratio.
            assert exact <= estimate <= exact * BUCKET_FACTOR * (1 + 1e-9)

    def test_underflow_and_overflow_buckets(self):
        hist = LatencyHistogram()
        hist.record(0.0)
        hist.record(MIN_LATENCY_S / 10)
        assert hist.percentile(50.0) == MIN_LATENCY_S
        hist.record(MAX_LATENCY_S * 10)  # overflow reads as inf, visibly
        assert hist.percentile(100.0) == math.inf
        assert hist.summary()["p999_ms"] == math.inf

    def test_percentile_validation(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="empty"):
            hist.percentile(50.0)
        hist.record(1e-3)
        with pytest.raises(ValueError, match="pct"):
            hist.percentile(101.0)
        assert hist.summary() == {
            "count": 1.0, "p50_ms": 1.0, "p99_ms": 1.0, "p999_ms": 1.0,
        }


class TestRequestContext:
    def test_request_ids_are_process_monotonic(self):
        first = next_request_id()
        parent = Recorder()
        ids = [RequestContext(parent).request_id for _ in range(5)]
        assert ids == sorted(ids) and ids[0] > first
        assert len(set(ids)) == 5

    def test_install_is_thread_local(self):
        """A request's recorder override must not leak into sibling
        connection threads (the bug a process-global override had)."""
        parent = Recorder()
        ctx = RequestContext(parent)
        seen = {}
        with ctx.install():
            assert obs.active() is ctx.recorder
            thread = threading.Thread(
                target=lambda: seen.setdefault("active", obs.active())
            )
            thread.start()
            thread.join()
        assert seen["active"] is not ctx.recorder
        assert obs.active() is not ctx.recorder  # uninstalled on exit

    def test_install_moves_across_threads(self):
        """The applier hand-off: re-installing on another thread routes
        that thread's ambient counts to the same request."""
        parent = Recorder()
        ctx = RequestContext(parent)

        def applier():
            with request_recording(ctx.recorder):
                obs.count("serve.alignments", 3)

        thread = threading.Thread(target=applier)
        thread.start()
        thread.join()
        assert ctx.recorder.value("serve.alignments") == 3

    def test_finish_into_parent_merges_counters_once(self):
        parent = Recorder()
        ctx = RequestContext(parent)
        with ctx.install():
            obs.count("serve.queries")
            with ctx.stage("parse"):
                pass
        first = ctx.finish_into_parent()
        again = ctx.finish_into_parent()  # idempotent: duration frozen
        assert first == again == ctx.duration()
        assert parent.value("serve.queries") == 1
        # Tail sampling: spans stay on the child until absorbed.
        assert parent.wall_spans() == []
        assert ctx.stage_seconds().keys() == {"parse"}
        (row,) = ctx.span_records()
        assert row["name"] == "parse" and row["cat"] == "stage"


class TestServeErrorsAccounting:
    """Every error *response* bumps `serve.errors` exactly once; the
    rejection path decides which latency histogram the request lands in."""

    @pytest.fixture()
    def server(self, serve_workload, tmp_path):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path)
        server.run_in_thread()
        yield server
        server.request_stop()

    def _errors(self, server):
        return server.recorder.value("serve.errors")

    def _raw_exchange(self, server, payload: bytes) -> dict:
        """Send one raw line, read one reply (fatal paths drop us after)."""
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(payload)
            reply = json.loads(raw.makefile("rb").readline())
        return reply

    @pytest.mark.parametrize("op,kwargs,code", [
        ("frobnicate", {}, "unknown_op"),
        ("query", {}, "bad_request"),  # neither id nor residues
        ("insert", {"id": ""}, "bad_request"),  # validation rejects
        ("query", {"residues": "NOT@PROTEIN!"}, "bad_request"),  # dispatch
    ])
    def test_nonfatal_rejections_bump_once(self, server, op, kwargs, code):
        host, port = server.address
        before = self._errors(server)
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.call(op, **kwargs)
            assert excinfo.value.code == code
            # Same-connection follow-up: the error request's counters
            # merged before the server read this line, so no polling.
            assert client.call("hello")["ok"]
        assert self._errors(server) == before + 1

    @pytest.mark.parametrize("payload,code", [
        (b"not json\n", "bad_json"),
        (b"[1, 2]\n", "bad_request"),  # non-object: non-fatal envelope
        (b'{"v": 99, "op": "hello"}\n', "version_mismatch"),
        (b"x" * (protocol.MAX_LINE_BYTES + 1) + b"\n", "line_too_long"),
    ])
    def test_framing_rejections_bump_once(self, server, payload, code):
        before = self._errors(server)
        reply = self._raw_exchange(server, payload)
        assert reply["ok"] is False and reply["code"] == code
        # Fatal paths close the connection; the finish races us, so poll.
        assert _wait_for(lambda: self._errors(server) == before + 1)

    def test_rejected_lines_land_in_rejected_histogram(self, server):
        self._raw_exchange(server, b"not json\n")
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            with pytest.raises(ProtocolError):
                client.call("frobnicate")  # fails validation: no verb
            client.call("hello")
        def rejected_count():
            with server._metrics_lock:
                hist = server._hists.get(REJECTED_VERB)
                return hist.count if hist else 0
        assert _wait_for(lambda: rejected_count() == 2)

    def test_insert_record_failures_are_not_error_responses(self, server):
        """Per-record failures ride inside an ok envelope: not errors."""
        base_errors = self._errors(server)
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            out = client.call("insert", id="err-dup", residues="MKLVMKLV")
            assert out["results"][0]["ok"]
            # Same id, different residues: a per-record hard error that
            # still rides inside an ok envelope.
            dup = client.call("insert", id="err-dup", residues="MKLVMKLVAA")
            assert dup["ok"] and dup["results"][0]["ok"] is False
            client.call("hello")
        assert self._errors(server) == base_errors


class TestMetricsVerb:
    @pytest.fixture()
    def server(self, serve_workload, tmp_path):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path)
        server.run_in_thread()
        yield server
        server.request_stop()

    def test_snapshot_schema_and_same_connection_counts(self, server,
                                                        serve_workload,
                                                        tmp_path):
        base, held, _run_dir, _config = serve_workload
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            client.call("query", id=base[0].id)
            client.call("insert", id="mv-one", residues=held[0].residues)
            # Same connection: both requests finished before the server
            # read the metrics line, so counts are exact, race-free.
            snap = client.call("metrics")
            sample = server.sampler.sample_now()
        assert snap["schema"] == METRICS_SCHEMA
        assert snap["percentiles"]["query"]["count"] == 1
        assert snap["percentiles"]["insert"]["count"] == 1
        assert snap["queue_depth"] == 0
        assert snap["counters"]["serve.requests"] == 2
        assert snap["counters"]["serve.queries"] == 1
        # Digests only: the buckets never leave the daemon.
        assert "hists" not in snap
        # Stage decomposition: every traced request parses and acks;
        # the insert also waited on the applier hand-off.
        assert set(snap["stage_seconds"]["query"]) >= {"parse", "ack"}
        assert set(snap["stage_seconds"]["insert"]) >= {"parse",
                                                        "candidates"}
        # The verb is the stream's `serve` probe plus the counters'
        # serve.* slice; the probe itself carries no counters, since
        # the sample beside it carries all of them.
        (streamed,) = [s for s in read_telemetry(tmp_path)[1]
                       if s["seq"] == sample["seq"]]
        probe = streamed["probes"]["serve"]
        assert "counters" not in probe
        for verb in ("query", "insert"):  # `metrics` itself landed since
            assert probe["percentiles"][verb] == snap["percentiles"][verb]
            assert probe["stage_seconds"][verb] == snap["stage_seconds"][verb]
        assert streamed["counters"]["serve.queries"] == 1
        assert set(snap["counters"]) <= set(streamed["counters"])

    def test_loadgen_totals_match_server_histograms(self, server,
                                                    serve_workload):
        base, held, _run_dir, _config = serve_workload
        host, port = server.address
        result = run_load(
            host, port,
            clients=4,
            requests_per_client=6,
            query_ids=[r.id for r in base],
            inserts=[{"id": f"mv-lg-{i}", "residues": r.residues}
                     for i, r in enumerate(held)],
            insert_fraction=0.3,
            seed=11,
        )
        assert result.n_errors == 0

        def scrape():
            with ServeClient.connect(host, port) as client:
                return client.call("metrics")["percentiles"]

        # Cross-connection read: poll until the last acks' histogram
        # records land (every client-timed request, server-histogrammed).
        assert _wait_for(lambda: (
            scrape().get("query", {}).get("count") == result.n_queries
            and scrape().get("insert", {}).get("count") == result.n_inserts
        ))
        percentiles = scrape()
        assert percentiles["query"]["p99_ms"] >= percentiles["query"]["p50_ms"]


class TestSlowLogAndTrace:
    @pytest.fixture()
    def server(self, serve_workload, tmp_path):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        # slow_ms=0: every request is "slow", so the tail-sampling path
        # runs deterministically.
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path, slow_ms=0.0)
        server.run_in_thread()
        yield server
        server.request_stop()

    def test_slow_log_records_span_trees(self, server, serve_workload,
                                         tmp_path):
        base, held, _run_dir, _config = serve_workload
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            client.call("query", residues=base[0].residues)
            client.call("insert", id="slow-one", residues=held[0].residues)
            client.call("hello")
        log_path = tmp_path / TELEMETRY_FILENAME
        assert _wait_for(lambda: len(read_slow_log(log_path)) == 3)
        records = read_slow_log(log_path)
        assert [r["op"] for r in records] == ["query", "insert", "hello"]
        ids = [r["request_id"] for r in records]
        assert ids == sorted(ids) and len(set(ids)) == 3
        assert all(r["lane"] == 1 for r in records)  # one connection
        assert all(r["threshold_ms"] == 0.0 for r in records)
        assert all(r["duration_ms"] >= 0.0 for r in records)
        assert all(r["counters"]["serve.requests"] == 1 for r in records)
        by_op = {r["op"]: r for r in records}
        query_spans = {s["name"] for s in by_op["query"]["spans"]}
        assert {"parse", "candidates", "ack"} <= query_spans
        insert_spans = {s["name"] for s in by_op["insert"]["spans"]}
        assert {"parse", "candidates", "ack"} <= insert_spans
        # A sweep stage is one span per engine call and says how much
        # it was handed, in the log and in the trace made from it.
        assert "myers_reject" in query_spans
        stages = [s for r in records for s in r["spans"]
                  if s["name"] in ("myers_reject", "dp")]
        assert all(s["args"]["pairs"] >= 1 for s in stages)
        assert all(s["args"]["cells"] > 0
                   for s in stages if s["name"] == "dp")
        slices = [e for e in slow_trace(records)["traceEvents"]
                  if e["name"] in ("myers_reject", "dp")]
        assert len(slices) == len(stages)
        assert all({"pairs", "request_id", "op"} <= e["args"].keys()
                   for e in slices)
        # Tail sampling absorbed the span trees onto the connection lane
        # of the daemon recorder, and counted each slow request.
        assert server.recorder.value("serve.slow_requests") == 3
        lanes = {s.lane for s in server.recorder.spans}
        assert 1 in lanes

    def test_slow_trace_export(self, server, serve_workload, tmp_path):
        base, _held, _run_dir, _config = serve_workload
        host, port = server.address
        with ServeClient.connect(host, port) as client:
            client.call("query", id=base[0].id)
            client.call("hello")
        log_path = tmp_path / TELEMETRY_FILENAME
        assert _wait_for(lambda: len(read_slow_log(log_path)) == 2)
        records = read_slow_log(log_path)
        doc = slow_trace(records)
        assert doc["otherData"]["slow_requests"] == 2
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert slices and all(e["tid"] == 1 for e in slices)
        assert all("request_id" in e["args"] and "op" in e["args"]
                   for e in slices)
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "connection lane 1" in names
        out = write_slow_trace(log_path, tmp_path / "slow-trace.json")
        assert json.loads(out.read_text())["traceEvents"]

    def test_fast_requests_leave_no_spans(self, serve_workload, tmp_path):
        """The other half of tail sampling: with a high threshold, the
        daemon recorder accumulates no span memory and the stream no
        slow record."""
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path, slow_ms=60_000.0)
        server.run_in_thread()
        host, port = server.address
        try:
            with ServeClient.connect(host, port) as client:
                client.call("query", id=base[0].id)
                client.call("hello")
                # Counters still merged (visible on the same connection).
                snap = client.call("metrics")
            assert snap["counters"]["serve.requests"] == 2
            assert snap["percentiles"]["query"]["count"] == 1
            assert server.recorder.spans == []
            assert read_slow_log(tmp_path) == []
        finally:
            server.request_stop()


class TestServeTopScreen:
    def test_render_serve_screen_from_sampler_file(self, serve_workload,
                                                   tmp_path):
        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path)
        server.run_in_thread()
        host, port = server.address
        try:
            with ServeClient.connect(host, port) as client:
                client.call("query", id=base[0].id)
                client.call("metrics")

            def verbs_recorded():
                with server._metrics_lock:
                    return {"query", "metrics"} <= set(server._hists)

            assert _wait_for(verbs_recorded)
            server.sampler.sample_now()
            meta, samples, end = read_telemetry(tmp_path)
        finally:
            server.request_stop()
        assert samples
        # One renderer: the `serve` probe picks the daemon's body.
        screen = "\n".join(render_screen(meta, samples, end))
        assert screen.startswith("repro top — mode=serve")
        assert "query" in screen and "metrics" in screen
        assert "applier" in screen and "insert queue" in screen
        assert "requests=" in screen and "(>250 ms)" in screen
        assert "rss:" in screen
        assert "workers:" not in screen and "counters:" not in screen

    def test_render_serve_screen_empty_file(self, tmp_path):
        meta, samples, end = read_telemetry(tmp_path / "absent.jsonl")
        lines = render_screen(meta, samples, end)
        assert "no samples" in lines[0]

    def test_top_renders_a_daemon_run_dir(self, serve_workload, tmp_path,
                                          capsys):
        """`repro top DIR` on a daemon's run dir, with no flag."""
        from repro.cli import main

        base, _held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path)
        accept = server.run_in_thread()
        with ServeClient.connect(*server.address) as client:
            client.call("query", residues=base[0].residues)
            client.call("shutdown")
        accept.join(timeout=10)
        assert not accept.is_alive()
        assert main(["top", str(tmp_path), "--once"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "repro top — mode=serve"
        assert lines[1].startswith("status: finished")
        # The verb table: one query, with its p50/p99/p999.
        assert any(re.match(r"  query +1( +[\d.]+){3}$", line)
                   for line in lines)
        assert any(line.startswith("applier ") for line in lines)


class TestOneStreamPerDaemon:
    def test_a_daemon_keeps_one_stream(self, serve_workload, tmp_path):
        """One sampler thread, one live file: samples with the `serve`
        probe, the slow requests and the end record all land in
        ``<run_dir>/telemetry.jsonl``, and nothing else is written."""
        base, held, run_dir, config = serve_workload
        state = load_serve_state(run_dir, _reload_base(base), config)
        server = ServeServer(state, host="127.0.0.1", port=0,
                             run_dir=tmp_path, slow_ms=0.0)
        before = set(threading.enumerate())
        accept = server.run_in_thread()
        with ServeClient.connect(*server.address) as client:
            client.call("query", residues=base[0].residues)
            client.call("insert", id="one-stream", residues=held[0].residues)
            samplers = [t for t in threading.enumerate()
                        if t.name == "repro-telemetry" and t not in before]
            client.call("shutdown")
        accept.join(timeout=10)
        assert not accept.is_alive()

        assert len(samplers) == 1
        assert {p.name for p in tmp_path.iterdir()} == {
            ADDR_FILENAME, TELEMETRY_FILENAME}
        meta, samples, end = read_telemetry(tmp_path)
        assert meta["meta"] == {"mode": "serve"}
        assert samples and all("serve" in s["probes"] for s in samples)
        assert end["status"] == "finished" and end["samples"] == len(samples)
        records = read_slow_log(tmp_path)
        assert [r["op"] for r in records][:2] == ["query", "insert"]
        stages = [s for r in records[:2] for s in r["spans"]
                  if s["name"] in ("myers_reject", "dp")]
        assert {"myers_reject", "dp"} <= {s["name"] for s in stages}
        assert all(s["args"]["pairs"] >= 1 for s in stages)
        assert all(s["args"]["cells"] > 0
                   for s in stages if s["name"] == "dp")
