"""Fault-tolerance tests: deterministic fault plans, the checkpoint
journal, recovery identity (the chaos matrix), and the crash/resume
round trips behind ``repro run --resume``.

The load-bearing assertions all have the same shape as the repo's
cross-mode invariance contract: whatever the fault and however recovery
routed the work (requeue, respawn, quarantine, in-master degraded
completion, checkpoint replay), the final families and every
*scientific* counter must be bit-identical to the fault-free run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.core.checkpoint import (
    SCHEMA,
    SCHEMA_VERSION,
    CheckpointError,
    CheckpointJournal,
    ResumeState,
    _frame,
    config_digest,
    input_digest,
    read_journal,
    validate_meta,
)
from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.faults.harness import run_chaos
from repro.faults.plan import (
    ABORT_EXIT_CODE,
    TRUNCATE_EXIT_CODE,
    WORKER_FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
)
from repro.obs.registry import scientific_view
from repro.runtime import base as runtime_base
from repro.runtime import process as process_backend
from repro.sequence.fasta import write_fasta
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from tests.scalar_density import adjacency

SRC_DIR = Path(repro.__file__).resolve().parents[1]

PHASES = ("redundancy", "clustering", "bipartite", "dense_subgraphs")


@pytest.fixture(scope="module")
def workload():
    spec = MetagenomeSpec(n_families=6, mean_family_size=8, seed=11)
    return generate_metagenome(spec).sequences


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(backend="process", workers=2)


@pytest.fixture(scope="module")
def baseline(workload, config):
    """Fault-free process-backend reference run."""
    return ProteinFamilyPipeline(config).run(workload, backend="process")


def _faulted_run(workload, config, plan, **run_kwargs):
    from dataclasses import replace

    cfg = replace(config, fault_plan=plan)
    return ProteinFamilyPipeline(cfg).run(
        workload, backend="process", **run_kwargs
    )


def assert_identical(result, baseline):
    assert result.families == baseline.families
    assert scientific_view(result.obs.counters()) == scientific_view(
        baseline.obs.counters()
    )


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="clustering", worker=1, at_task=2),
            Fault(kind="delay_task", seconds=0.5),
            Fault(kind="abort_master", phase="redundancy", after_records=3),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_kind_partitions(self):
        plan = FaultPlan(faults=(
            Fault(kind="poison_task"),
            Fault(kind="truncate_checkpoint", phase="bipartite"),
        ))
        assert [f.kind for f in plan.of_kind(*WORKER_FAULT_KINDS)] == ["poison_task"]
        assert [f.kind for f in plan.checkpoint_faults] == [
            "truncate_checkpoint"
        ]
        assert len(plan) == 2 and bool(plan)
        assert not FaultPlan()

    @pytest.mark.parametrize("bad", [
        dict(kind="nuke_site_from_orbit"),
        dict(kind="kill_worker", phase="warmup"),
        dict(kind="abort_master"),           # checkpoint kind needs a phase
        dict(kind="truncate_checkpoint"),
        dict(kind="kill_worker", worker=-1),
        dict(kind="kill_worker", at_task=-2),
        dict(kind="delay_task", seconds=-0.1),
        dict(kind="abort_master", phase="clustering", after_records=0),
        dict(kind="truncate_checkpoint", phase="clustering", drop_bytes=0),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(FaultPlanError):
            Fault(**bad)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown fault fields"):
            Fault.from_dict({"kind": "kill_worker", "when": "now"})

    @pytest.mark.parametrize("text,match", [
        ("not json", "not valid JSON"),
        ("[1, 2]", "must be an object"),
        ('{"schema": "repro-faultplan/9", "faults": []}', "schema"),
        ('{"faults": 3}', "must be a list"),
    ])
    def test_from_json_rejects(self, text, match):
        with pytest.raises(FaultPlanError, match=match):
            FaultPlan.from_json(text)

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(42, workers=3, n_faults=4)
        b = FaultPlan.random(42, workers=3, n_faults=4)
        c = FaultPlan.random(43, workers=3, n_faults=4)
        assert a == b
        assert a != c
        assert len(a) == 4
        assert all(f.kind in ("kill_worker", "delay_task", "poison_task")
                   for f in a.faults)

    def test_random_rejects_checkpoint_kinds_and_bad_workers(self):
        with pytest.raises(FaultPlanError, match="worker-task kinds"):
            FaultPlan.random(1, kinds=("abort_master",))
        with pytest.raises(FaultPlanError, match="workers"):
            FaultPlan.random(1, workers=0)


class TestFaultInjector:
    def test_kill_fires_at_exact_send_ordinal_once(self):
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="clustering", worker=0, at_task=1),
        ))
        inj = FaultInjector(plan)
        assert inj.marker_for_send("clustering", 0) is None
        assert inj.marker_for_send("clustering", 0) == ("die",)
        assert inj.marker_for_send("clustering", 0) is None
        assert inj.last_fired == 0

    def test_wildcard_phase_uses_any_phase_ordinal(self):
        plan = FaultPlan(faults=(
            Fault(kind="delay_task", worker=1, at_task=2, seconds=0.5),
        ))
        inj = FaultInjector(plan)
        assert inj.marker_for_send("redundancy", 1) is None
        assert inj.marker_for_send("clustering", 1) is None
        assert inj.marker_for_send("bipartite", 1) == ("delay", 0.5)

    def test_worker_mismatch_never_fires(self):
        plan = FaultPlan(faults=(Fault(kind="kill_worker", worker=3),))
        inj = FaultInjector(plan)
        for _ in range(5):
            assert inj.marker_for_send("redundancy", 0) is None
        assert inj.last_fired == -1

    def test_poison_counts_new_tasks_per_phase(self):
        plan = FaultPlan(faults=(
            Fault(kind="poison_task", phase="bipartite", at_task=1),
        ))
        inj = FaultInjector(plan)
        assert inj.poison_new_task("redundancy") is False
        assert inj.poison_new_task("bipartite") is False
        assert inj.poison_new_task("bipartite") is True
        assert inj.poison_new_task("bipartite") is False

    def test_abort_counts_journal_records_per_phase(self):
        plan = FaultPlan(faults=(
            Fault(kind="abort_master", phase="clustering", after_records=2),
        ))
        inj = FaultInjector(plan)
        assert inj.abort_after_append("redundancy") is False
        assert inj.abort_after_append("clustering") is False
        assert inj.abort_after_append("clustering") is True
        assert inj.abort_after_append("clustering") is False
        assert inj.abort_after_append("") is False

    def test_truncation_consumed_once(self):
        plan = FaultPlan(faults=(
            Fault(kind="truncate_checkpoint", phase="redundancy",
                  drop_bytes=17),
        ))
        inj = FaultInjector(plan)
        assert inj.truncation_for("clustering") is None
        assert inj.truncation_for("redundancy") == 17
        assert inj.truncation_for("redundancy") is None


class TestCheckpointJournal:
    def _open(self, tmp_path, **kwargs):
        defaults = dict(config_dig="cfg", input_dig="inp", n_input=5)
        defaults.update(kwargs)
        return CheckpointJournal.start(tmp_path, **defaults)

    def test_write_and_read_round_trip(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.phase_done("redundancy", {"redundant": [1, 2]})
        journal.phase_start("clustering")
        journal.ccd_union(0, 3)
        journal.ccd_union(3, 4)
        journal.close()
        records = read_journal(journal.path)
        assert [r["type"] for r in records] == [
            "meta", "phase_start", "phase_done", "phase_start",
            "ccd_union", "ccd_union",
        ]
        state = ResumeState.from_records(records[1:])
        assert state.phase_payloads["redundancy"] == {"redundant": [1, 2]}
        assert state.ccd_unions == [(0, 3), (3, 4)]
        assert state.started == ["redundancy", "clustering"]

    def test_torn_tail_is_dropped(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("deadbeef {\"type\": \"phase_done\", \"pha")  # torn
        records = read_journal(journal.path)
        assert [r["type"] for r in records] == ["meta", "phase_start"]

    def test_corrupt_middle_line_truncates_prefix(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.phase_done("redundancy", {"x": 1})
        journal.close()
        lines = journal.path.read_text(encoding="utf-8").splitlines(True)
        lines[1] = lines[1].replace("phase_start", "phase_smart")  # bad CRC
        journal.path.write_text("".join(lines), encoding="utf-8")
        assert [r["type"] for r in read_journal(journal.path)] == ["meta"]

    def test_resume_amputates_torn_tail_and_appends(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.close()
        clean_size = os.path.getsize(journal.path)
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("deadbeef torn")
        resumed = CheckpointJournal.resume(
            tmp_path, config_dig="cfg", input_dig="inp", n_input=5
        )
        assert os.path.getsize(resumed.path) == clean_size
        resumed.phase_done("redundancy", {"ok": True})
        resumed.close()
        assert [r["type"] for r in read_journal(resumed.path)] == [
            "meta", "phase_start", "phase_done",
        ]

    def test_resume_rejects_mismatched_identity(self, tmp_path):
        self._open(tmp_path).close()
        with pytest.raises(CheckpointError, match="different configuration"):
            CheckpointJournal.resume(
                tmp_path, config_dig="other", input_dig="inp", n_input=5
            )
        with pytest.raises(CheckpointError, match="different input"):
            CheckpointJournal.resume(
                tmp_path, config_dig="cfg", input_dig="other", n_input=5
            )

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            CheckpointJournal.resume(
                tmp_path, config_dig="cfg", input_dig="inp", n_input=5
            )

    def test_resume_state_requires_ordered_prefix(self):
        state = ResumeState(phase_payloads={"clustering": {}})
        assert not state.has("clustering")  # redundancy missing
        state.phase_payloads["redundancy"] = {}
        assert state.has("redundancy")
        assert state.has("clustering")
        assert not state.has("bipartite")

    def test_meta_carries_schema_version(self, tmp_path):
        journal = self._open(tmp_path)
        journal.close()
        meta = read_journal(journal.path)[0]
        assert meta["schema"] == SCHEMA
        assert meta["schema_version"] == SCHEMA_VERSION

    def test_unknown_record_type_warned_and_skipped(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.phase_done("redundancy", {"x": 1})
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as fh:
            # A CRC-valid record of a type this reader has never seen
            # (as written by some future repro) — twice, to check the
            # warning is deduplicated per type.
            fh.write(_frame({"type": "hologram", "data": 1}))
            fh.write(_frame({"type": "hologram", "data": 2}))
        records = read_journal(journal.path)
        assert [r["type"] for r in records] == [
            "meta", "phase_start", "phase_done", "hologram", "hologram",
        ]
        with pytest.warns(RuntimeWarning, match="unknown record type") as w:
            state = ResumeState.from_records(records[1:])
        assert len(w) == 1
        assert state.phase_payloads["redundancy"] == {"x": 1}

    def test_newer_schema_version_refused(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.close()
        lines = journal.path.read_text(encoding="utf-8").splitlines(True)
        meta = read_journal(journal.path)[0]
        meta["schema_version"] = SCHEMA_VERSION + 1
        journal.path.write_text(
            _frame(meta) + "".join(lines[1:]), encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="newer"):
            CheckpointJournal.resume(
                tmp_path, config_dig="cfg", input_dig="inp", n_input=5
            )

    def test_version1_journal_without_field_still_resumes(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.close()
        lines = journal.path.read_text(encoding="utf-8").splitlines(True)
        meta = read_journal(journal.path)[0]
        del meta["schema_version"]  # journals written before the field
        journal.path.write_text(
            _frame(meta) + "".join(lines[1:]), encoding="utf-8"
        )
        records = read_journal(journal.path)
        validate_meta(records, path=journal.path, config_dig="cfg",
                      input_dig="inp", n_input=5)
        resumed = CheckpointJournal.resume(
            tmp_path, config_dig="cfg", input_dig="inp", n_input=5
        )
        resumed.close()

    def test_serve_inserts_do_not_disturb_batch_resume(self, tmp_path):
        journal = self._open(tmp_path)
        journal.phase_start("redundancy")
        journal.phase_done("redundancy", {"x": 1})
        decision = {"id": "q", "residues": "MK", "redundant": [],
                    "unions": []}
        journal.serve_insert(decision)
        journal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # serve_insert is a known type
            state = ResumeState.from_records(
                read_journal(journal.path)[1:]
            )
        assert state.serve_inserts == [decision]
        assert state.phase_payloads["redundancy"] == {"x": 1}
        assert state.ccd_unions == []

    def test_digests_are_stable_and_discriminating(self, workload):
        cfg = PipelineConfig()
        assert config_digest(cfg) == config_digest(PipelineConfig())
        assert config_digest(cfg) != config_digest(PipelineConfig(psi=12))
        # backend choice is deliberately excluded: resume may change it
        assert config_digest(cfg) == config_digest(
            PipelineConfig(backend="process", workers=4)
        )
        dig = input_digest(workload)
        assert dig == input_digest(workload)
        assert dig != input_digest(workload[:-1])


class TestChaosMatrix:
    """Every fault primitive x every phase: recovery must be invisible
    in the science (identical families, identical scientific counters).
    """

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize(
        "kind", ("kill_worker", "delay_task", "poison_task")
    )
    def test_primitive_times_phase_is_identical(
        self, workload, config, baseline, kind, phase
    ):
        plan = FaultPlan(faults=(
            Fault(kind=kind, phase=phase, worker=0, at_task=0, seconds=0.05),
        ))
        result = _faulted_run(workload, config, plan)
        assert_identical(result, baseline)

    def test_kill_recovery_requeues_and_respawns(
        self, workload, config, baseline
    ):
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="clustering", worker=0,
                  at_task=0),
        ))
        result = _faulted_run(workload, config, plan)
        counters = result.obs.counters()
        assert counters["faults.injected"] == 1
        assert counters["runtime.tasks_requeued"] >= 1
        assert counters["runtime.worker_respawns"] >= 1
        assert_identical(result, baseline)

    def test_poison_task_is_quarantined_in_master(
        self, workload, config, baseline
    ):
        plan = FaultPlan(faults=(
            Fault(kind="poison_task", phase="redundancy", at_task=0),
        ))
        result = _faulted_run(workload, config, plan)
        counters = result.obs.counters()
        assert counters["runtime.poison_quarantined"] == 1
        assert counters["runtime.worker_respawns"] >= 2  # two victims
        assert_identical(result, baseline)

    def test_kill_during_contain_dp_is_requeued(
        self, workload, config, monkeypatch
    ):
        """RR sends its one sweep, then its one ``"contain_dp"`` task, to
        worker 0 (both go to the lowest idle slot): killing worker 0 at
        its second RR task loses the DP task, which is requeued, and the
        run is the fault-free one."""
        requeued = []
        send = process_backend.ProcessBackend._send

        def recording_send(self, record):
            if record.deaths:
                requeued.append(record.body[0])
            send(self, record)

        monkeypatch.setattr(process_backend.ProcessBackend, "_send", recording_send)
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="redundancy", worker=0,
                  at_task=1),
        ))
        report = run_chaos(workload, config, plan)
        assert report.lines()[-1] == "chaos verdict: IDENTICAL"
        assert report.recovery["runtime.tasks_requeued"] >= 1
        assert requeued == ["contain_dp"]

    def test_poisoned_contain_dp_is_quarantined_through_run_task(
        self, workload, config, baseline, monkeypatch
    ):
        """A ``"contain_dp"`` task that kills every worker it meets is
        computed by the master through the one task function."""
        in_master = []
        run_task = runtime_base.run_task

        def recording_run_task(body, store, scheme):
            in_master.append(body[0])
            return run_task(body, store, scheme)

        # Forked workers inherit the wrapper, but record in their own
        # memory: the list sees the master's calls only.
        monkeypatch.setattr(runtime_base, "run_task", recording_run_task)
        plan = FaultPlan(faults=(
            Fault(kind="poison_task", phase="redundancy", at_task=1),
        ))
        result = _faulted_run(workload, config, plan)
        assert result.obs.counters()["runtime.poison_quarantined"] == 1
        assert in_master == ["contain_dp"]
        assert_identical(result, baseline)

    def test_exhausted_budget_degrades_to_in_master(self, workload, baseline):
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="redundancy", worker=0,
                  at_task=0),
        ))
        cfg = PipelineConfig(backend="process", workers=1, fault_plan=plan,
                             respawn_budget=0)
        result = ProteinFamilyPipeline(cfg).run(workload, backend="process")
        counters = result.obs.counters()
        assert result.obs.gauges()["runtime.degraded"] == 1
        assert counters["runtime.tasks_requeued"] >= 1
        assert "runtime.worker_respawns" not in counters
        assert_identical(result, baseline)

    def test_task_deadline_reaps_hung_worker(self, workload, baseline):
        # A delay far past the deadline looks like a hang: the sweep
        # must SIGKILL the worker, requeue its batch, and respawn.
        plan = FaultPlan(faults=(
            Fault(kind="delay_task", phase="redundancy", worker=0,
                  at_task=0, seconds=30.0),
        ))
        cfg = PipelineConfig(backend="process", workers=2, fault_plan=plan,
                             task_deadline=0.5)
        result = ProteinFamilyPipeline(cfg).run(workload, backend="process")
        counters = result.obs.counters()
        assert counters["runtime.tasks_requeued"] >= 1
        assert counters["runtime.worker_respawns"] >= 1
        assert_identical(result, baseline)


class TestChaosHarness:
    def test_run_chaos_verdict_and_report(self, workload, config, tmp_path):
        plan = FaultPlan(faults=(
            Fault(kind="kill_worker", phase="clustering", worker=0,
                  at_task=0),
            Fault(kind="delay_task", phase="redundancy", worker=0,
                  at_task=0, seconds=0.02),
        ))
        report = run_chaos(workload, config, plan, run_dir=tmp_path)
        assert report.ok
        assert report.families_identical
        assert report.violations == []
        assert report.recovery["faults.injected"] == 2
        assert any("IDENTICAL" in line for line in report.lines())
        doc = json.loads(
            (tmp_path / "chaos_report.json").read_text(encoding="utf-8")
        )
        assert doc["schema"] == "repro-chaos/1"
        assert doc["ok"] is True
        assert len(doc["plan"]) == 2

    def test_run_chaos_rejects_checkpoint_faults(self, workload, config):
        plan = FaultPlan(faults=(
            Fault(kind="abort_master", phase="clustering"),
        ))
        with pytest.raises(FaultPlanError, match="worker-task faults"):
            run_chaos(workload, config, plan)


class TestPipelineResume:
    def test_full_journal_resume_skips_every_phase(self, workload, tmp_path):
        cfg = PipelineConfig(backend="serial")
        pipeline = ProteinFamilyPipeline(cfg)
        first = pipeline.run(workload, backend="serial", run_dir=tmp_path)
        resumed = pipeline.run(workload, backend="serial",
                               run_dir=tmp_path, resume=True)
        assert resumed.families == first.families
        assert resumed.obs.counters()["checkpoint.phases_skipped"] == 4

    def test_journal_with_neighbors_still_resumes(self, workload, tmp_path):
        """A bipartite record that still carries the ``"neighbors"``
        adjacency beside its edges, CRC-framed as the older writer left
        it, resumes to the same families and Table I row as the
        uninterrupted run; the writer leaves that field out."""
        pipeline = ProteinFamilyPipeline(PipelineConfig())
        first = pipeline.run(workload, backend="serial", run_dir=tmp_path)
        path = tmp_path / "checkpoint.jsonl"
        records = read_journal(path)
        bipartite = next(r for r in records if r["type"] == "phase_done"
                         and r["phase"] == "bipartite")
        data = bipartite["data"]
        assert "neighbors" not in data
        assert any(data["edges"])
        neighbors = adjacency((members[u], members[v])
                              for members, edges in zip(data["components"], data["edges"])
                              for u, v in edges)
        data["neighbors"] = {str(g): sorted(ns) for g, ns in sorted(neighbors.items())}
        # The journal as if the run had died in DSD.
        kept = records[:records.index(bipartite) + 1]
        path.write_text("".join(map(_frame, kept)), encoding="utf-8")
        assert read_journal(path) == kept

        resumed = pipeline.run(workload, backend="serial", run_dir=tmp_path, resume=True)
        assert resumed.obs.counters()["checkpoint.phases_skipped"] == 3
        assert resumed.families == first.families
        assert resumed.families
        assert resumed.table1() == first.table1()

    def test_resume_requires_run_dir(self, workload):
        with pytest.raises(ValueError, match="resume requires run_dir"):
            ProteinFamilyPipeline(PipelineConfig()).run(
                workload, backend="serial", resume=True
            )


class TestCrashResumeRoundTrip:
    """Subprocess round trips: a checkpoint fault kills ``repro run``
    mid-pipeline; ``repro run --resume`` must finish the run with
    families identical to a never-crashed run."""

    @pytest.fixture(scope="class")
    def fasta(self, tmp_path_factory, workload):
        path = tmp_path_factory.mktemp("crash") / "input.fasta"
        write_fasta(workload, path)
        return path

    @pytest.fixture(scope="class")
    def reference_families(self, tmp_path_factory, fasta):
        out = tmp_path_factory.mktemp("ref") / "families.json"
        proc = self._cli("run", str(fasta), "--backend", "serial",
                         "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text(encoding="utf-8"))

    @staticmethod
    def _cli(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=300, env=env,
        )

    def test_abort_mid_ccd_then_resume(self, tmp_path, fasta,
                                       reference_families):
        run_dir = tmp_path / "run"
        plan_path = tmp_path / "abort.json"
        FaultPlan(faults=(
            Fault(kind="abort_master", phase="clustering", after_records=2),
        )).dump(plan_path)

        crashed = self._cli("run", str(fasta), "--backend", "serial",
                            "--run-dir", str(run_dir),
                            "--fault-plan", str(plan_path))
        assert crashed.returncode == ABORT_EXIT_CODE
        types = [r["type"] for r in read_journal(run_dir / "checkpoint.jsonl")]
        assert "phase_start" in types
        done_phases = {
            r["phase"] for r in read_journal(run_dir / "checkpoint.jsonl")
            if r["type"] == "phase_done"
        }
        assert "clustering" not in done_phases  # died mid-CCD

        out = tmp_path / "resumed.json"
        resumed = self._cli("run", str(fasta), "--backend", "process",
                            "--workers", "2", "--resume", str(run_dir),
                            "--output", str(out))
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(out.read_text(encoding="utf-8")) == \
            reference_families

    @pytest.mark.parametrize("died_in, skipped, builds", [
        ("clustering", 1, 1),       # a pair phase is left: one index
        ("dense_subgraphs", 3, 0),  # none is: the session never builds it
    ])
    def test_resume_builds_the_index_only_for_a_pair_phase(
        self, tmp_path, fasta, workload, died_in, skipped, builds
    ):
        run_dir = tmp_path / "run"
        plan_path = tmp_path / "abort.json"
        FaultPlan(faults=(
            Fault(kind="abort_master", phase=died_in, after_records=1),
        )).dump(plan_path)
        crashed = self._cli("run", str(fasta), "--backend", "serial",
                            "--run-dir", str(run_dir),
                            "--fault-plan", str(plan_path))
        assert crashed.returncode == ABORT_EXIT_CODE

        resumed = ProteinFamilyPipeline(PipelineConfig()).run(
            workload, backend="serial", run_dir=run_dir, resume=True
        )
        counters = resumed.obs.counters()
        assert counters["checkpoint.phases_skipped"] == skipped
        assert counters.get("suffix.index_builds", 0) == builds
        assert resumed.families

    def test_torn_write_crash_then_resume(self, tmp_path, fasta,
                                          reference_families):
        run_dir = tmp_path / "run"
        plan_path = tmp_path / "trunc.json"
        FaultPlan(faults=(
            Fault(kind="truncate_checkpoint", phase="redundancy",
                  drop_bytes=17),
        )).dump(plan_path)

        crashed = self._cli("run", str(fasta), "--backend", "serial",
                            "--run-dir", str(run_dir),
                            "--fault-plan", str(plan_path))
        assert crashed.returncode == TRUNCATE_EXIT_CODE
        # The tail really is torn: the journal's last line fails its CRC.
        raw = (run_dir / "checkpoint.jsonl").read_text(encoding="utf-8")
        valid = read_journal(run_dir / "checkpoint.jsonl")
        assert len(valid) < len(raw.splitlines())

        out = tmp_path / "resumed.json"
        resumed = self._cli("run", str(fasta), "--backend", "serial",
                            "--resume", str(run_dir),
                            "--output", str(out))
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(out.read_text(encoding="utf-8")) == \
            reference_families

    def test_resume_mismatched_input_exits_two(self, tmp_path, fasta):
        run_dir = tmp_path / "run"
        done = self._cli("run", str(fasta), "--backend", "serial",
                         "--run-dir", str(run_dir))
        assert done.returncode == 0, done.stderr
        other = tmp_path / "other.fasta"
        other.write_text(">only\nMKVLITTTTTGGGGGAAAAAWWWWYYYYFFFF\n",
                         encoding="ascii")
        wrong = self._cli("run", str(other), "--backend", "serial",
                          "--resume", str(run_dir))
        assert wrong.returncode == 2
        assert "different input" in wrong.stderr
