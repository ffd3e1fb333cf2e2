"""Batch side of the suite: the timed pipeline repetition, its output
check, and the traced walk through the batch layers.

The timed unit is ``ProteinFamilyPipeline(config).run(sequences,
backend=...)`` with pipeline defaults — what ``repro run`` gives a user.
The traced walk replays ``_run_on_backend``'s sequence by hand through
the public ``backend_*`` phase functions with a benchmark span around
each, then re-times the leaf kernels on the pair sets that run produced.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
from pathlib import Path
from typing import Any

from repro import PipelineConfig, ProteinFamilyPipeline, SequenceSet
from repro.align import batch_align, batch_containment, batch_myers_infix
from repro.eval import pair_confusion, quality_scores
from repro.obs import scientific_view
from repro.pace import AlignmentCache
from repro.runtime import make_backend
from repro.runtime.phases import (
    backend_component_detection,
    backend_dense_subgraph_detection,
    backend_generate_component_graphs,
    backend_redundancy_removal,
)
from repro.shingle import shingle_dense_subgraphs
from repro.suffix import MaximalMatchFinder
from repro.util.timing import monotonic_now

import hostspeed
from spans import Tracer, duration, metric, span_cost_seconds
from workloads import Workload, truth_clusters

#: Planted-truth precision below which a repetition fails its check.
MIN_PRECISION = 0.99

#: Pairs the DP kernels are re-timed on in the traced pass.
DP_PROBE_PAIRS, DP_PROBE_PAIRS_QUICK = 300, 40

#: Executions behind the durations of the traced pass, which are
#: subtracted and divided (unattributed share, checkpoint overhead,
#: scaling exponent): on a shared host a slow spell in a single run
#: would swamp the difference.  ``pipeline.run`` and its hand replay run
#: as this many back-to-back pairs and the pair with the median
#: difference is reported; the other runs, this many less one, the fastest.
TRACE_PAIRS = 3


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    usage = [resource.getrusage(who)
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def run_once(
    sequences: SequenceSet, config: PipelineConfig, backend: str,
    workers: int | None, **kwargs: Any,
) -> tuple[Any, float, float]:
    """One pipeline run; returns (result, wall seconds, CPU seconds)."""
    cpu0, start = cpu_seconds(), monotonic_now()
    result = ProteinFamilyPipeline(config).run(
        sequences, backend=backend, workers=workers, **kwargs
    )
    return result, monotonic_now() - start, cpu_seconds() - cpu0


def families_digest(family_ids: list[list[str]]) -> str:
    canonical = sorted(sorted(family) for family in family_ids)
    return hashlib.sha256(json.dumps(canonical).encode("ascii")).hexdigest()


class OutputCheck:
    """Same-answer check applied to every pipeline result of a run.

    Families must be identical across all results checked (repetitions,
    and serial vs process in the traced pass), score at least
    ``MIN_PRECISION`` against the planted truth, and — when ``expected``
    is given (default seed, full size) — match the committed families
    digest and scientific counters.
    """

    def __init__(self, sequences: SequenceSet, truth: dict[str, int],
                 expected: dict[str, Any] | None):
        self.sequences = sequences
        self.clusters = truth_clusters(truth)
        self.expected = expected
        self.digest: str | None = None
        self.scores: Any = None
        self.counters: dict[str, float] = {}
        self.problems: list[str] = []

    def __call__(self, result: Any) -> bool:
        problems: list[str] = []
        family_ids = result.family_ids(self.sequences)
        digest = families_digest(family_ids)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("families differ between repetitions")
        self.scores = quality_scores(pair_confusion(family_ids, self.clusters))
        if self.scores.precision < MIN_PRECISION:
            problems.append(f"precision {self.scores.precision:.4f} < {MIN_PRECISION}")
        if result.obs is not None:
            self.counters = scientific_view(result.obs.counters())
        if self.expected is not None:
            if digest != self.expected["families_digest"]:
                problems.append("families digest differs from expected.json")
            if result.obs is not None and self.counters != self.expected["counters"]:
                problems.append("scientific counters differ from expected.json")
        self.problems += problems
        return not problems

    def record(self) -> dict[str, Any]:
        """What ``expected.json`` stores for this workload."""
        return {"families_digest": self.digest, "counters": self.counters}


def measure(
    sequences: SequenceSet, config: PipelineConfig, workload: Workload,
    check: OutputCheck, seconds: float, min_reps: int,
) -> dict[str, Any]:
    """Repeat the pipeline for ``seconds`` (at least ``min_reps`` times),
    tracing off, a host-speed reading between repetitions; every
    repetition is output-checked."""
    walls: list[float] = []
    cpus: list[float] = []
    readings = [hostspeed.reading()]
    failed = 0
    started = monotonic_now()
    while len(walls) < min_reps or monotonic_now() - started < seconds:
        result, wall, cpu = run_once(
            sequences, config, workload.backend, workload.workers
        )
        readings.append(hostspeed.reading())
        walls.append(wall)
        cpus.append(cpu)
        failed += not check(result)
    return {"walls": walls, "cpus": cpus, "readings": readings,
            "attempted": len(walls), "failed": failed}


def end_to_end(run: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The gated metrics of one :func:`measure` run."""
    walls = hostspeed.at_reference_speed(run["walls"], run["readings"], hostspeed.WALL)
    cpus = hostspeed.at_reference_speed(run["cpus"], run["readings"], hostspeed.CPU)
    # ru_maxrss of this interpreter, or of its largest reaped child (the
    # process backend's workers) if that is more.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def replay_phases(
    sequences: SequenceSet, config: PipelineConfig, workload: Workload,
    tracer: Tracer, trace_id: str,
) -> dict[str, Any]:
    """``_run_on_backend`` by hand, one benchmark span per layer call."""
    encoded = [record.encoded for record in sequences]
    cache = AlignmentCache(lambda k: encoded[k], config.scheme)
    backend = make_backend(workload.backend, workload.workers)
    with tracer.span("runtime.session", trace_id) as session:
        with backend.session(sequences, config.scheme):
            cache.set_phase("redundancy")
            with tracer.span("runtime.rr", trace_id) as span:
                rr = backend_redundancy_removal(
                    sequences, backend, cache, psi=config.psi,
                    similarity=config.containment_similarity,
                    coverage=config.containment_coverage,
                    max_pairs_per_node=config.max_pairs_per_node,
                )
                span["counts"].update(pairs=rr.n_promising_pairs,
                                      redundant=len(rr.redundant))
            cache.set_phase("clustering")
            with tracer.span("runtime.ccd", trace_id) as span:
                ccd = backend_component_detection(
                    sequences, rr.kept, backend, cache, psi=config.psi,
                    similarity=config.overlap_similarity,
                    coverage=config.overlap_coverage,
                    max_pairs_per_node=config.max_pairs_per_node,
                )
                span["counts"].update(pairs=ccd.n_promising_pairs,
                                      aligned=ccd.n_alignments,
                                      filtered=ccd.n_filtered)
            cache.set_phase("bipartite")
            with tracer.span("runtime.bgg", trace_id) as span:
                graphs = backend_generate_component_graphs(
                    sequences,
                    ccd.components_of_size(config.min_component_size),
                    backend, cache, reduction=config.reduction,
                    psi=config.psi, edge_similarity=config.edge_similarity,
                    edge_coverage=config.edge_coverage, w=config.w,
                    min_size=config.min_component_size,
                    max_pairs_per_node=config.max_pairs_per_node,
                )
                span["counts"].update(aligned=graphs.n_alignments,
                                      edges=graphs.n_edges)
            with tracer.span("runtime.dsd", trace_id) as span:
                dense = backend_dense_subgraph_detection(
                    graphs, backend, params=config.shingle,
                    min_size=config.min_subgraph_size, tau=config.tau,
                )
                span["counts"].update(components=len(graphs.graphs),
                                      subgraphs=len(dense.subgraphs))
    return {"session": session, "rr": rr, "ccd": ccd, "graphs": graphs,
            "dense": dense, "cache": cache.stats(),
            "utilization": backend.stats.utilization()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_layers(
    sequences: SequenceSet, config: PipelineConfig, workload: Workload,
    check: OutputCheck, tracer: Tracer, workdir: Path, quick: bool,
) -> tuple[dict[str, dict[str, Any]], dict[str, Any]]:
    """The traced pass over the batch layers of one input.

    Returns the per-layer metrics and a free-form ``notes`` record (the
    bases of every ratio) for the trace file and the printed report.
    """
    m: dict[str, dict[str, Any]] = {}
    pairs = 1 if quick else TRACE_PAIRS

    def fastest(seqs: SequenceSet, **kwargs: Any) -> float:
        return min(run_once(seqs, config, workload.backend, workload.workers,
                            **kwargs)[1] for _ in range(max(pairs - 1, 1)))

    # -- core + runtime: untraced pipeline.run beside the hand replay,
    # alternating so a slow spell of the host hits both alike.
    walls: list[float] = []
    gaps: list[float] = []
    replays: list[dict[str, Any]] = []
    failed = 0
    for k in range(pairs):
        result, wall, _ = run_once(sequences, config, workload.backend,
                                   workload.workers)
        failed += not check(result)
        walls.append(wall)
        timed = sum(p.wall_seconds for p in result.runtime.phases.values())
        gaps.append((wall - timed) / wall)
        replays.append(replay_phases(sequences, config, workload, tracer,
                                     f"replay-{k}"))
    middle = sorted(range(pairs),
                    key=lambda k: walls[k] - duration(replays[k]["session"]))[pairs // 2]
    pipeline_s, replay = walls[middle], replays[middle]
    replay_spans = [s for s in tracer.spans if s["trace"] == replay["session"]["trace"]]
    # The phase spans sit inside the session span, so its self time is
    # worker spawn and teardown plus whatever falls between the phases,
    # and the five add up to the replay exactly.
    session_s = tracer.self_seconds(replay["session"])
    unattributed_s = pipeline_s - duration(replay["session"])
    m["core.pipeline_s"] = metric(pipeline_s, "s")
    m["core.unattributed_s"] = metric(unattributed_s, "s")
    m["core.unattributed_share"] = metric(unattributed_s / pipeline_s, "ratio")
    m["core.self_timer_gap_share"] = metric(statistics.median(gaps), "ratio")
    m["runtime.session_s"] = metric(session_s, "s")
    for span in replay_spans[1:]:
        m[f"{span['name']}_s"] = metric(duration(span), "s")
    # Computed, not measured: spans of one replay times the cost of an
    # empty span.  Differencing two runs cannot resolve a share this
    # small on a shared host.
    m["core.trace_overhead_share"] = metric(
        len(replay_spans) * span_cost_seconds() / duration(replay["session"]), "ratio")

    rr, ccd, graphs = replay["rr"], replay["ccd"], replay["graphs"]
    m["runtime.rr_pairs"] = metric(rr.n_promising_pairs, "count")
    m["runtime.rr_redundant"] = metric(len(rr.redundant), "count")
    m["runtime.ccd_pairs"] = metric(ccd.n_promising_pairs, "count")
    m["runtime.ccd_aligned"] = metric(ccd.n_alignments, "count")
    m["runtime.ccd_filter_ratio"] = metric(
        _ratio(ccd.n_filtered, ccd.n_promising_pairs), "ratio")
    m["runtime.bgg_aligned"] = metric(graphs.n_alignments, "count")
    m["runtime.bgg_edges"] = metric(graphs.n_edges, "count")
    m["runtime.dsd_components"] = metric(len(graphs.graphs), "count")
    m["runtime.worker_utilization"] = metric(replay["utilization"], "ratio")

    cache = replay["cache"]
    bgg = cache["by_phase"].get("bipartite", {"hits": 0, "misses": 0})
    m["pace.cache_hits"] = metric(cache["hits"], "count")
    m["pace.cache_misses"] = metric(cache["misses"], "count")
    m["pace.cache_hit_ratio"] = metric(cache["hit_rate"], "ratio")
    m["pace.cache_hit_ratio_bgg"] = metric(
        _ratio(bgg["hits"], bgg["hits"] + bgg["misses"]), "ratio")

    # -- core: what the checkpoint journal costs and, on the headline
    # input only, how the wall-clock grows from the half-size prefix.
    run_dir = workdir / "checkpointed"
    ckpt_wall = fastest(sequences, run_dir=run_dir)
    m["core.checkpoint_overhead_s"] = metric(ckpt_wall - min(walls), "s")
    m["core.checkpoint_bytes"] = metric(
        (run_dir / "checkpoint.jsonl").stat().st_size, "B")
    notes: dict[str, Any] = {"pipeline_walls_s": walls,
                             "checkpointed_wall_s": ckpt_wall,
                             "checked": pairs, "spans_per_replay": len(replay_spans)}
    if workload.name == "skewed":
        half_wall = fastest(sequences.subset(range(len(sequences) // 2)))
        m["core.scaling_exponent"] = metric(math.log2(min(walls) / half_wall), "ratio")
        notes["half_wall_s"] = half_wall

    # -- suffix: promising-pair generation, as RR does it.
    encoded = [record.encoded for record in sequences]
    with tracer.span("suffix.build") as build:
        finder = MaximalMatchFinder(encoded, min_length=config.psi)
    with tracer.span("suffix.enumerate") as enumerate_:
        rr_pairs = [match.pair for match in finder.unique_pairs()]
    enumerate_["counts"]["pairs"] = len(rr_pairs)
    m["suffix.build_s"] = metric(duration(build), "s")
    m["suffix.enumerate_s"] = metric(duration(enumerate_), "s")
    m["suffix.pairs"] = metric(len(rr_pairs), "count")
    m["suffix.pairs_per_s"] = metric(
        len(rr_pairs) / (duration(build) + duration(enumerate_)), "pairs/s")

    # -- align: the reject path on the run's RR pairs, the DP kernels on
    # pairs inside one CCD component (what CCD and BGG align).
    pair_arrays = [(encoded[i], encoded[j]) for i, j in rr_pairs]
    shorter = [a if len(a) <= len(b) else b for a, b in pair_arrays]
    longer = [b if len(a) <= len(b) else a for a, b in pair_arrays]
    with tracer.span("align.myers", pairs=len(rr_pairs)) as span:
        batch_myers_infix(shorter, longer)
    m["align.myers_pairs_per_s"] = metric(len(rr_pairs) / duration(span), "pairs/s")
    with tracer.span("align.containment", pairs=len(rr_pairs)) as span:
        contained = batch_containment(
            pair_arrays, scheme=config.scheme,
            similarity=config.containment_similarity,
            coverage=config.containment_coverage,
        )
    span["counts"].update(rejected=contained.n_rejected, dp=contained.n_dp)
    m["align.containment_pairs_per_s"] = metric(
        len(rr_pairs) / duration(span), "pairs/s")
    m["align.myers_reject_ratio"] = metric(
        _ratio(contained.n_rejected, len(rr_pairs)), "ratio")
    m["align.containment_dp_pairs"] = metric(contained.n_dp, "count")

    component_of = {g: c for c, members in enumerate(ccd.components)
                    for g in members}
    dp_arrays = [
        (encoded[i], encoded[j]) for i, j in rr_pairs
        if i in component_of and component_of[i] == component_of.get(j)
    ][: DP_PROBE_PAIRS_QUICK if quick else DP_PROBE_PAIRS]
    cells = sum(len(a) * len(b) for a, b in dp_arrays)  # computed, not counted
    with tracer.span("align.local", pairs=len(dp_arrays), cells=cells) as span:
        batch_align(dp_arrays, config.scheme, "local")
    m["align.local_pairs_per_s"] = metric(len(dp_arrays) / duration(span), "pairs/s")
    m["align.local_cells_per_s"] = metric(cells / duration(span), "cells/s")
    with tracer.span("align.semiglobal", pairs=len(dp_arrays), cells=cells) as span:
        batch_align(dp_arrays, config.scheme, "semiglobal")
    m["align.semiglobal_cells_per_s"] = metric(cells / duration(span), "cells/s")

    # -- shingle: the two-pass algorithm per component graph.
    shingle_spans = []
    tuples = subgraphs = 0
    for graph in graphs.graphs:
        with tracer.span("shingle.graph", left=graph.n_left,
                         edges=graph.n_edges) as span:
            found = shingle_dense_subgraphs(graph, config.shingle, min_size=1)
        shingle_spans.append(span)
        tuples += found.n_tuples_pass1
        subgraphs += len(found.subgraphs)
    total_s = sum(duration(s) for s in shingle_spans)
    largest = max(shingle_spans, key=lambda s: s["counts"]["left"])
    m["shingle.total_s"] = metric(total_s, "s")
    m["shingle.largest_component_s"] = metric(duration(largest), "s")
    m["shingle.edges_per_s"] = metric(
        sum(s["counts"]["edges"] for s in shingle_spans) / total_s, "1/s")
    m["shingle.tuples_pass1"] = metric(tuples, "count")
    m["shingle.subgraphs"] = metric(subgraphs, "count")

    # -- eval: the correctness check's own numbers.
    m["eval.precision"] = metric(check.scores.precision, "ratio")
    m["eval.sensitivity"] = metric(check.scores.sensitivity, "ratio")
    m["eval.families"] = metric(len(result.families), "count")
    m["failed_fraction"] = metric(failed / notes["checked"], "ratio")

    notes["failed"] = failed
    return m, notes
