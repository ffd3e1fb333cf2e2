"""The four-phase protein-family identification pipeline (Figure 2).

``ProteinFamilyPipeline`` orchestrates redundancy removal, connected
component detection, bipartite graph generation, and dense subgraph
detection.  Every run executes on an execution backend
(:mod:`repro.runtime`; the in-process serial backend unless another is
named) and reports *measured* wall-clock timings.  The paper's simulated
BlueGene/L run-times are not a pipeline mode: the RR and CCD drivers of
:mod:`repro.pace` run on a :class:`repro.parallel.VirtualCluster`
directly (``repro simulate``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.config import PipelineConfig
from repro.eval.report import Table1Row, table1_row
from repro.obs import (
    DEFAULT_INTERVAL,
    Recorder,
    TelemetrySampler,
    recording,
)
from repro.pace.bipartite_gen import ComponentGraphs
from repro.pace.clustering import ClusteringResult
from repro.pace.densesub import DsdResult
from repro.pace.redundancy import RedundancyResult
from repro.runtime import Backend, RuntimeStats, make_backend
from repro.runtime.phases import (
    backend_component_detection,
    backend_dense_subgraph_detection,
    backend_generate_component_graphs,
    backend_redundancy_removal,
)
from repro.sequence.record import SequenceSet


@dataclass
class PipelineResult:
    """Everything a pipeline run produces."""

    config: PipelineConfig
    n_input: int
    redundancy: RedundancyResult
    clustering: ClusteringResult
    graphs: ComponentGraphs
    dense: DsdResult
    runtime: RuntimeStats | None = None
    """Measured wall-clock stats of the execution backend the run used."""
    obs: Recorder | None = None
    """The run's observability recorder: phase/task spans, scientific and
    work counters.  Export with :func:`repro.obs.write_chrome_trace` /
    :func:`repro.obs.write_counters_json`."""

    @property
    def families(self) -> list[tuple[int, ...]]:
        """Final dense subgraphs as tuples of global sequence indices."""
        return self.dense.subgraphs

    def family_ids(self, sequences: SequenceSet) -> list[list[str]]:
        """Families as lists of sequence id strings."""
        return [[sequences[i].id for i in family] for family in self.families]

    def table1(self) -> Table1Row:
        """The paper's Table I summary row for this run."""
        return table1_row(
            n_input=self.n_input,
            n_nonredundant=self.redundancy.n_nonredundant,
            components=self.clustering.components,
            subgraphs=self.dense.subgraphs,
            graphs=self.graphs,
            min_component_size=self.config.min_component_size,
        )


class ProteinFamilyPipeline:
    """End-to-end pipeline runner.

    >>> pipeline = ProteinFamilyPipeline(PipelineConfig())
    >>> result = pipeline.run(sequences)                 # serial backend
    >>> result = pipeline.run(sequences, backend="process", workers=4)
    """

    def __init__(self, config: PipelineConfig | None = None):
        self.config = PipelineConfig() if config is None else config

    def _run_meta(
        self, sequences: SequenceSet, *, mode: str, workers: int
    ) -> dict:
        """Run-identifying metadata stamped on the recorder (and thence
        into every export)."""
        return {
            "mode": mode,
            "workers": workers,
            "n_input": len(sequences),
            "psi": self.config.psi,
            "reduction": self.config.reduction,
        }

    def _open_journal(
        self,
        sequences: SequenceSet,
        run_dir: str | Path | None,
        resume: bool,
    ):
        """Open the checkpoint journal for this run, or None."""
        if run_dir is None and not resume:
            return None
        if resume and run_dir is None:
            raise ValueError("resume requires run_dir")
        from repro.core import checkpoint
        from repro.faults.plan import FaultInjector

        injector = None
        if self.config.fault_plan is not None and self.config.fault_plan:
            injector = FaultInjector(self.config.fault_plan)
        opener = checkpoint.CheckpointJournal.resume if resume \
            else checkpoint.CheckpointJournal.start
        return opener(
            run_dir,
            config_dig=checkpoint.config_digest(self.config),
            input_dig=checkpoint.input_digest(sequences),
            n_input=len(sequences),
            injector=injector,
        )

    def run(
        self,
        sequences: SequenceSet,
        *,
        backend: Backend | str | None = None,
        workers: int | None = None,
        recorder: Recorder | None = None,
        observe: bool = True,
        telemetry_dir: str | Path | None = None,
        telemetry_interval: float = DEFAULT_INTERVAL,
        run_dir: str | Path | None = None,
        resume: bool = False,
    ) -> PipelineResult:
        """Run all four phases.

        ``backend`` selects the execution backend ("serial", "process",
        or a :class:`~repro.runtime.Backend` instance; default:
        ``config.backend``) that carries the alignment and Shingle work
        and records measured wall-clock stats in ``result.runtime``;
        every backend returns identical ``families``/Table I output.

        Every run records spans and counters into a
        :class:`repro.obs.Recorder` (pass ``recorder`` to supply your
        own, e.g. to accumulate several runs); it is returned as
        ``result.obs``.  ``observe=False`` runs bare — no ambient
        recorder, no sampler — which is what the observability-overhead
        benchmark compares against.  ``telemetry_dir`` additionally
        starts a :class:`repro.obs.TelemetrySampler` streaming live
        snapshots (every ``telemetry_interval`` seconds) to
        ``<telemetry_dir>/telemetry.jsonl`` for ``repro top``.

        ``run_dir`` additionally journals phase checkpoints to
        ``<run_dir>/checkpoint.jsonl`` (crash-consistent, CRC-framed;
        see :mod:`repro.core.checkpoint`); ``resume=True`` reopens that
        journal, skips phases it records as done, and replays CCD from
        the last checkpointed union.
        """
        config = self.config
        if backend is None and config.backend != "serial":
            backend = config.backend
        if workers is None and config.workers:
            workers = config.workers
        backend = make_backend(
            "serial" if backend is None else backend,
            workers,
            fault_plan=config.fault_plan,
            task_deadline=config.task_deadline,
            respawn_budget=config.respawn_budget,
        )
        journal = self._open_journal(sequences, run_dir, resume)
        if recorder is None:
            recorder = Recorder(meta=self._run_meta(
                sequences, mode=backend.name, workers=backend.workers,
            ))
        try:
            with self._observing(recorder, observe, telemetry_dir,
                                 telemetry_interval, backend):
                result = self._run_phases(sequences, backend, recorder, journal)
        finally:
            if journal is not None:
                journal.close()
        result.obs = recorder if observe else None
        return result

    @contextlib.contextmanager
    def _observing(
        self,
        recorder: Recorder,
        observe: bool,
        telemetry_dir: str | Path | None,
        telemetry_interval: float,
        backend: Backend,
    ):
        """Install the ambient recorder — and, when ``telemetry_dir`` is
        given, the sampling thread — around one run.  A run that raises
        still gets its telemetry end record (status "error"), so a
        monitored crash is distinguishable from a SIGKILL."""
        if not observe:
            yield
            return
        with recording(recorder):
            if telemetry_dir is None:
                yield
                return
            sampler = TelemetrySampler(
                recorder,
                telemetry_dir,
                interval=telemetry_interval,
                probes={"runtime": backend.telemetry_probe},
            )
            with sampler:
                yield

    def _run_phases(
        self,
        sequences: SequenceSet,
        backend: Backend,
        recorder: Recorder,
        journal,
    ) -> PipelineResult:
        """Sequence the four phases inside one backend session.

        With a checkpoint ``journal``: each phase is bracketed by
        ``phase_start``/``phase_done`` records, and on resume a phase
        the journal records as done is *rebuilt from its payload* —
        skipped entirely (its counters are not re-emitted; see
        :mod:`repro.core.checkpoint`).  A half-finished CCD resumes by
        replaying the journaled unions into the fresh union–find before
        re-running the phase.
        """
        from repro.core import checkpoint as ckpt

        config = self.config
        state = journal.resume_state if journal is not None else None

        def phase(
            name: str,
            run: Callable[[], Any],
            save: Callable[[Any], dict | None],
            restore: Callable[[dict], Any],
        ) -> Any:
            """One phase: restored from the journal if it is done there,
            else run on the backend."""
            if state is not None and state.has(name):
                recorder.count("checkpoint.phases_skipped")
                return restore(state.payload(name))
            if journal is not None:
                journal.phase_start(name)
            result = run()
            if journal is not None:
                payload = save(result)
                if payload is not None:
                    journal.phase_done(name, payload)
            return result

        pairs = {"psi": config.psi,
                 "max_pairs_per_node": config.max_pairs_per_node}
        containment = {"similarity": config.containment_similarity,
                       "coverage": config.containment_coverage, **pairs}
        overlap = {"similarity": config.overlap_similarity,
                   "coverage": config.overlap_coverage, **pairs}
        edges = {"edge_similarity": config.edge_similarity,
                 "edge_coverage": config.edge_coverage,
                 "min_size": config.min_component_size, **pairs}
        shingle = {"params": config.shingle, "tau": config.tau,
                   "min_size": config.min_subgraph_size}

        with backend.session(sequences, config.scheme):
            rr = phase(
                "redundancy",
                lambda: backend_redundancy_removal(
                    sequences, backend, None, **containment),
                ckpt.redundancy_payload,
                lambda data: ckpt.redundancy_from_payload(data, len(sequences)),
            )
            ccd = phase(
                "clustering",
                lambda: backend_component_detection(
                    sequences, rr.kept, backend, None, **overlap,
                    journal=journal,
                    replay_unions=state.ccd_unions if state is not None else None,
                ),
                ckpt.clustering_payload,
                ckpt.clustering_from_payload,
            )
            qualifying = ccd.components_of_size(config.min_component_size)
            graphs = phase(
                "bipartite",
                lambda: backend_generate_component_graphs(
                    sequences, qualifying, backend, None,
                    reduction=config.reduction, w=config.w, **edges),
                # None for the domain reduction: cheaper to recompute on
                # resume than to serialise.
                ckpt.bipartite_payload,
                ckpt.bipartite_from_payload,
            )
            dense = phase(
                "dense_subgraphs",
                lambda: backend_dense_subgraph_detection(
                    graphs, backend, **shingle),
                ckpt.dense_payload,
                ckpt.dense_from_payload,
            )
        return PipelineResult(
            config=config,
            n_input=len(sequences),
            redundancy=rr,
            clustering=ccd,
            graphs=graphs,
            dense=dense,
            runtime=backend.stats,
        )
