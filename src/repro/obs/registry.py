"""Canonical counter names and the cross-mode invariance contract.

Every counter the pipeline emits is declared here with its phase and a
one-line meaning.  The ``scientific`` flag is the heart of the
contract: a scientific counter describes *what the algorithm decided*
(pairs examined, clusters merged, shingles drawn) and must be
bit-identical across both execution backends (the serial one is the
reference) and the simulator on the same input — the counter analogue of the
result-invariance guarantee.  Non-scientific ("work") counters
describe *how the work got done* (batch counts, pairs killed
by the transitive-closure filter) and may vary with the executor.  The
CCD filter's do not vary between the runtime backends — every one of
them decides each pair exactly as the pair-by-pair loop does, see
:func:`repro.runtime.phases.backend_component_detection` — but they do
with the *simulator's* processor count, whose master filters against a
union–find that lags the workers, exactly as the paper's Table II work
counters vary with processor count.

``tests/test_obs.py`` enforces the scientific half of this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class CounterSpec:
    """Declared name, owning phase, meaning, and invariance class."""

    name: str
    phase: str
    description: str
    scientific: bool = False


_SPECS = [
    # -- Phase 1: redundancy removal ---------------------------------------
    CounterSpec("rr.pairs", "redundancy",
                "unique promising pairs examined (maximal match >= psi)",
                scientific=True),
    CounterSpec("rr.alignments", "redundancy",
                "overlap alignments consulted for Definition 1",
                scientific=True),
    CounterSpec("rr.redundant", "redundancy",
                "sequences removed as contained (Definition 1)",
                scientific=True),
    # -- Phase 2: connected component detection ----------------------------
    CounterSpec("ccd.pairs", "clustering",
                "promising pairs streamed through the PaCE master filter",
                scientific=True),
    CounterSpec("ccd.filtered", "clustering",
                "pairs killed by the transitive-closure filter (the "
                "paper's >99.9% figure; one value on every runtime "
                "backend, varies with the *simulator's* processor count)"),
    CounterSpec("ccd.alignments", "clustering",
                "pairs aligned against Definition 2 (one value on every "
                "runtime backend, grows with the *simulator's* "
                "processor count as its filter lags)"),
    CounterSpec("ccd.merges", "clustering",
                "unions that actually merged two clusters",
                scientific=True),
    CounterSpec("ccd.components", "clustering",
                "connected components at phase end (incl. singletons)",
                scientific=True),
    # Work: how the backend driver batched the alignments above.
    CounterSpec("ccd.batches", "clustering",
                "speculative batches settled (one batched alignment "
                "submit each)"),
    CounterSpec("ccd.held", "clustering",
                "pairs held undecided while a batch that may close them "
                "was open"),
    CounterSpec("ccd.redecided", "clustering",
                "held pairs that went back through the filter after a "
                "failed verdict in their batch"),
    # -- Phase 3: bipartite graph generation -------------------------------
    CounterSpec("bipartite.pairs", "bipartite",
                "unique intra-component promising pairs aligned",
                scientific=True),
    CounterSpec("bipartite.edges", "bipartite",
                "pairs meeting the edge-similarity cutoff",
                scientific=True),
    CounterSpec("bipartite.graphs", "bipartite",
                "component bipartite graphs built",
                scientific=True),
    # -- Phase 4: dense subgraph detection ---------------------------------
    CounterSpec("dsd.components", "dense_subgraphs",
                "component graphs run through the Shingle algorithm",
                scientific=True),
    CounterSpec("dsd.first_shingles", "dense_subgraphs",
                "distinct first-level (s1, c1)-shingles",
                scientific=True),
    CounterSpec("dsd.second_shingles", "dense_subgraphs",
                "distinct second-level (s2, c2)-shingles",
                scientific=True),
    CounterSpec("dsd.tuples_pass1", "dense_subgraphs",
                "<shingle, vertex> tuples emitted by pass I",
                scientific=True),
    CounterSpec("dsd.tuples_pass2", "dense_subgraphs",
                "<shingle, shingle> tuples emitted by pass II",
                scientific=True),
    CounterSpec("dsd.skipped_low_degree", "dense_subgraphs",
                "left vertices skipped for degree < s1",
                scientific=True),
    CounterSpec("dsd.subgraphs", "dense_subgraphs",
                "dense subgraphs surviving the reporting filter",
                scientific=True),
    # Work: how many are equal depends on which ranks see them together.
    CounterSpec("dsd.sets", "dense_subgraphs",
                "sets of >= s elements presented to a shingle draw, both passes"),
    CounterSpec("dsd.sets_drawn", "dense_subgraphs",
                "distinct sets among them: the ones hashed (equal sets share a draw)"),
    CounterSpec("dsd.hashes", "dense_subgraphs",
                "element images the draws computed: c per distinct element of "
                "the sets they ranked (a set of exactly s is its own sample)"),
    # -- Pair generation (repro.suffix.matches block stream) ---------------
    # Work counters: they describe how the masters' pair source did its
    # job (summed over the RR, CCD and bipartite streams of a backend
    # run; the simulator's rank programs generate per bucket and do not
    # bump them), not what was decided.
    CounterSpec("suffix.candidates", "suffix",
                "cross-child suffix pairs expanded by the block "
                "generator before the same-sequence / left-maximality "
                "/ label mask"),
    CounterSpec("suffix.matches", "suffix",
                "maximal matches the block generator emitted to a "
                "master"),
    CounterSpec("suffix.index_builds", "suffix",
                "string indices sorted (one per session or simulated phase)"),
    # -- Batched alignment kernel (repro.align.batch) ----------------------
    # Work counters by design: how many pairs each engine route handled
    # varies with chunking/backends, while the decisions they feed
    # (rr.*, ccd.*) stay scientific and bit-identical.
    CounterSpec("batch.pairs", "align",
                "pairs submitted to the batched DP/containment engine "
                "(a containment pair the DP decides counts once)"),
    CounterSpec("batch.cells", "align",
                "DP cells filled by batched kernels, counted per real "
                "pair dimensions (padding slots excluded)"),
    CounterSpec("batch.buckets", "align",
                "DP buckets filled (batch.pairs / batch.buckets is the "
                "mean bucket width)"),
    CounterSpec("batch.padded_cells", "align",
                "DP cells the buckets filled, padding included "
                "(batch.cells / batch.padded_cells is the fill efficiency)"),
    CounterSpec("batch.myers_rejects", "align",
                "containment pairs rejected by the sound bit-parallel "
                "Myers infix-distance bound (DP skipped)"),
    CounterSpec("batch.exact_certified", "align",
                "containment pairs answered by the distance-0 exact "
                "certificate under a strict-diagonal scheme"),
    CounterSpec("batch.dp_pairs", "align",
                "containment pairs that fell through to the batched DP"),
    # -- Runtime backends ---------------------------------------------------
    CounterSpec("runtime.batches", "runtime",
                "tasks entered into the process backend's ledger "
                "(absent from a serial run)"),
    CounterSpec("runtime.batch_pairs", "runtime",
                "pairs the pair streams dispatched as tasks"),
    CounterSpec("runtime.max_outstanding", "runtime",
                "high-water mark of tasks in flight (at most one per "
                "worker)"),
    CounterSpec("runtime.shingle_jobs", "runtime",
                "component Shingle tasks dispatched"),
    CounterSpec("runtime.heartbeats", "runtime",
                "worker result messages seen by the master "
                "(the heartbeat source behind `repro top` lane ages)"),
    CounterSpec("runtime.pairs_done.redundancy", "runtime",
                "RR alignment results absorbed — the progress model's "
                "done figure"),
    CounterSpec("runtime.pairs_done.clustering", "runtime",
                "CCD alignment results absorbed — progress done figure"),
    CounterSpec("runtime.pairs_done.bipartite", "runtime",
                "bipartite alignment results absorbed — progress done "
                "figure"),
    # -- Fault tolerance & recovery ----------------------------------------
    CounterSpec("runtime.tasks_requeued", "runtime",
                "in-flight tasks requeued to survivors after their "
                "worker died"),
    CounterSpec("runtime.worker_respawns", "runtime",
                "dead workers relaunched under the respawn budget"),
    CounterSpec("runtime.poison_quarantined", "runtime",
                "tasks that killed two workers, quarantined and "
                "computed in-master"),
    CounterSpec("runtime.duplicate_results", "runtime",
                "late/duplicate task results dropped by the "
                "exactly-once ledger gate"),
    CounterSpec("faults.injected", "faults",
                "faults fired from the run's FaultPlan "
                "(deterministic chaos injection)"),
    CounterSpec("checkpoint.records", "checkpoint",
                "records appended to the run-dir checkpoint journal"),
    CounterSpec("checkpoint.phases_skipped", "checkpoint",
                "finished phases rebuilt from checkpoint on --resume"),
    CounterSpec("checkpoint.compactions", "checkpoint",
                "journal rewrites that dropped snapshot-covered "
                "serve_insert records"),
    # -- Serving (`repro serve` incremental daemon) ------------------------
    CounterSpec("serve.requests", "serve",
                "protocol requests handled by the daemon"),
    CounterSpec("serve.connections", "serve",
                "client connections accepted"),
    CounterSpec("serve.errors", "serve",
                "requests answered with an error response"),
    CounterSpec("serve.queries", "serve",
                "family-membership queries answered"),
    CounterSpec("serve.inserts", "serve",
                "sequences inserted through the incremental path"),
    CounterSpec("serve.replays", "serve",
                "journaled serve_insert decisions replayed at state load"),
    CounterSpec("serve.candidates", "serve",
                "representative candidates generated for inserts "
                "(psi-window promising pairs against representatives)"),
    CounterSpec("serve.alignments", "serve",
                "alignments of insert/query containment and overlap "
                "tests, counted over the candidates a pair-by-pair sweep "
                "reaches (a pair certified exact at Myers distance 0 "
                "counts as the alignment it replaces)"),
    CounterSpec("serve.filtered", "serve",
                "insert candidates killed by the transitive-closure "
                "filter (already co-clustered with the new sequence)"),
    CounterSpec("serve.merges", "serve",
                "insert-time unions that merged two families"),
    CounterSpec("serve.redundant", "serve",
                "sequences declared contained (Definition 1) at insert"),
    # -- Serving request tracing (per-request child recorders) -------------
    CounterSpec("serve.myers_rejects", "serve",
                "insert/query containment candidates rejected by the "
                "sound bit-parallel Myers infix bound (DP skipped)"),
    CounterSpec("serve.dp_cells", "serve",
                "DP cells of the alignments `serve.alignments` counts "
                "(representative x new-sequence length each; Myers "
                "rejects excluded)"),
    CounterSpec("serve.applier_busy_seconds", "serve",
                "seconds the applier thread spent applying insert jobs "
                "(busy-fraction source for `repro top` on a daemon)"),
    CounterSpec("serve.slow_requests", "serve",
                "requests over the --slow-ms threshold, span trees "
                "written into the daemon's telemetry.jsonl"),
    # -- Serving failure hardening (DESIGN.md §13) -------------------------
    CounterSpec("serve.deadline_sheds", "serve",
                "requests shed because their deadline_ms budget expired "
                "(before dispatch, between the stages of a query "
                "sweep, or while queued)"),
    CounterSpec("serve.overloaded", "serve",
                "inserts refused with `overloaded` after the bounded "
                "queue-admission wait"),
    CounterSpec("serve.readonly_refused", "serve",
                "inserts refused because the daemon is in read-only "
                "degraded mode (journal failure or dead applier)"),
    CounterSpec("serve.idempotent_hits", "serve",
                "insert retries answered from the (id, residues) "
                "idempotency key without re-planning or re-journaling"),
    CounterSpec("serve.snapshots", "serve",
                "serve-state snapshots written (tmp+rename, two "
                "generations retained)"),
    CounterSpec("serve.snapshot_skipped_replays", "serve",
                "journaled serve_insert decisions skipped at load "
                "because the restored snapshot already covered them"),
    CounterSpec("serve.snapshot_errors", "serve",
                "snapshot write failures and unusable snapshot files "
                "skipped at load (journal remains the authority)"),
]

REGISTRY: dict[str, CounterSpec] = {spec.name: spec for spec in _SPECS}

#: Counters that must be identical across execution modes.
SCIENTIFIC_COUNTERS: tuple[str, ...] = tuple(
    spec.name for spec in _SPECS if spec.scientific
)

#: Declared gauges (last-value-wins readings; never scientific).
#: ``repro lint`` rule R2 rejects any literal gauge name not listed
#: here, which keeps the telemetry vocabulary as closed as the counter
#: vocabulary.
GAUGES: dict[str, str] = {
    "phase": "name of the currently open phase span (\"\" between phases)",
    "phase.start": "recorder-epoch start time of the current phase",
    "ccd.components_now": "live union-find component count during CCD",
    "runtime.outstanding": "work batches currently in flight to workers",
    "runtime.degraded": "1 once the backend fell back to in-master "
                        "serial completion (respawn budget exhausted)",
    "serve.queue_depth": "insert jobs waiting in the daemon's bounded "
                         "queue",
    "serve.families_now": "live family count (non-redundant components) "
                          "in the serving state",
    "serve.degraded": "1 once the daemon entered read-only degraded "
                      "mode (journal write failure or applier death)",
}

#: Families of counter names constructed at runtime (f-strings).  A
#: dynamic counter is legal iff its constant prefix matches one of
#: these; everything else must be a declared literal.
#: ``runtime.worker.<w>.*`` are per-worker lanes,
#: ``runtime.pairs_done.<phase>`` feeds the progress model (the three
#: declared phases are also listed above).
DYNAMIC_COUNTER_PREFIXES: tuple[str, ...] = (
    "runtime.worker.",
    "runtime.pairs_done.",
)

#: Families of gauge names constructed at runtime: per-worker
#: heartbeats (``worker.<w>.last_seen``) and per-stream queue state
#: (``stream.<id>.in_flight`` / ``stream.<id>.kind``).
DYNAMIC_GAUGE_PREFIXES: tuple[str, ...] = (
    "worker.",
    "stream.",
)


def scientific_view(counters: Mapping[str, float]) -> dict[str, float]:
    """The mode-invariant slice of a counter snapshot (absent -> 0)."""
    return {name: counters.get(name, 0) for name in SCIENTIFIC_COUNTERS}


def describe(name: str) -> CounterSpec | None:
    """Registry entry for ``name``; None for dynamic counters (names
    matching :data:`DYNAMIC_COUNTER_PREFIXES`, such as the per-worker
    ``runtime.worker.<w>.*`` lanes, carry no per-name spec)."""
    return REGISTRY.get(name)
