"""Table I summary rows and the run report.

Besides the paper's qualitative-assessment row (Table I), this module
renders the one text report of a finished run (:func:`report_lines`):
a phase timeline with share bars and per-phase work, worker-lane
utilisation, the masters' pair generation and the scientific counters
of the run contract — identical in vocabulary on every backend, printed
by ``repro run`` and ``repro profile`` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.graph.density import subgraph_density
from repro.obs import Recorder, scientific_view

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.pipeline import PipelineResult
    from repro.pace.bipartite_gen import ComponentGraphs


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I.

    Columns: #Input seq., #NR seq., #CC, #DS, #Seq in DS, Mean degree,
    Mean density, Size of largest DS.
    """

    n_input: int
    n_nonredundant: int
    n_components: int
    n_dense_subgraphs: int
    n_sequences_in_ds: int
    mean_degree: float
    mean_density: float
    largest_ds: int

    def formatted(self) -> str:
        return (
            f"{self.n_input:>10,d} {self.n_nonredundant:>8,d} {self.n_components:>6,d} "
            f"{self.n_dense_subgraphs:>5,d} {self.n_sequences_in_ds:>10,d} "
            f"{self.mean_degree:>11.1f} {self.mean_density:>11.0%} {self.largest_ds:>8,d}"
        )

    @staticmethod
    def header() -> str:
        return (
            f"{'#Input':>10s} {'#NR':>8s} {'#CC':>6s} {'#DS':>5s} "
            f"{'#SeqInDS':>10s} {'MeanDegree':>11s} {'MeanDensity':>11s} {'MaxDS':>8s}"
        )


def report_lines(result: "PipelineResult", *, bar_width: int = 28) -> list[str]:
    """The text report of one finished run — the only one.

    Sections (each omitted when empty): run metadata; the per-phase
    wall-clock timeline with share bars and, per phase, the work
    dispatched (``tasks``: pairs or component graphs) and worker
    utilisation; the worker-lane busy rollup (backend runs); the
    masters' pair-generation rollup per phase (from the
    ``pairs.generate`` block spans); the scientific counters; CCD's
    batches; shingle draws shared by equal sets; string index builds.
    Phase rows come from ``result.runtime``, everything else from the
    run's recorder ``result.obs`` (a run made with ``observe=False``
    reports its phase rows only).
    """
    recorder = result.obs if result.obs is not None else Recorder()
    runtime = result.runtime
    counters = recorder.counters()
    lines: list[str] = []
    if recorder.meta:
        lines.append(
            "run: " + " ".join(f"{k}={v}" for k, v in recorder.meta.items())
        )
    if runtime is not None and runtime.phases:
        total = runtime.total_wall
        lines.append(
            f"phase timeline ({total:.3f}s wall, utilization "
            f"{runtime.utilization():.0%}; tasks = pairs/components "
            f"dispatched):"
        )
        peak = max(p.wall_seconds for p in runtime.phases.values())
        for phase in runtime.phases.values():
            secs = phase.wall_seconds
            filled = round(bar_width * secs / peak) if peak > 0 else 0
            if secs > 0:
                filled = max(filled, 1)
            share = secs / total if total > 0 else 0.0
            lines.append(
                f"  {phase.name:<16s} {secs:>9.3f}s {share:>6.1%}  "
                f"|{'#' * filled:<{bar_width}s}|  tasks={phase.tasks:<8,d} "
                f"util={phase.utilization(runtime.workers):.0%}"
            )
    worker_lanes = {
        lane: busy
        for lane, busy in recorder.lane_busy_seconds().items()
        if lane > 0
    }
    if worker_lanes:
        busiest = max(worker_lanes, key=worker_lanes.__getitem__)
        lines.append(
            f"worker lanes: {len(worker_lanes)} active, "
            f"{sum(worker_lanes.values()):.3f}s busy "
            f"(peak worker {busiest - 1}: {worker_lanes[busiest]:.3f}s)"
        )
    generation: dict[str, list[dict[str, object]]] = {}
    for span in recorder.spans:
        if span.name == "pairs.generate":
            args = dict(span.args, seconds=span.duration)
            generation.setdefault(str(args["phase"]), []).append(args)
    if generation:
        lines.append("pair generation on the master (the rest of a phase's "
                     "master time is filtering):")
        for name, blocks in generation.items():
            seconds, candidates, matches, admitted = (
                sum(block[key] for block in blocks)
                for key in ("seconds", "candidates", "matches", "admitted")
            )
            lines.append(
                f"  {name:<16s} {seconds:>9.3f}s  {len(blocks):,d} blocks  "
                f"{candidates:,d} candidates -> {matches:,d} matches -> "
                f"{admitted:,d} admitted"
            )
    scientific = {
        name: value
        for name, value in scientific_view(counters).items()
        if value
    }
    if scientific:
        lines.append("scientific counters (mode-invariant):")
        for name, value in scientific.items():
            lines.append(f"  {name:<26s} {int(value):>12,d}")
    if batches := int(counters.get("ccd.batches", 0)):
        lines.append(f"CCD: {int(counters['ccd.alignments']):,d} alignments in {batches:,d} "
                     f"batch{'es' * (batches != 1)}, {int(counters.get('ccd.held', 0)):,d} pairs held "
                     f"under speculation, {int(counters['ccd.redecided']):,d} re-decided")
    if sets := counters.get("dsd.sets", 0):
        drawn = int(counters.get("dsd.sets_drawn", 0))
        lines.append(f"shingle draws: {drawn:,d} distinct of {int(sets):,d} sets presented "
                     f"({1 - drawn / sets:.1%} read another set's draw), "
                     f"{int(counters.get('dsd.hashes', 0)):,d} element images hashed")
    if builds := int(counters.get("suffix.index_builds", 0)):
        symbols = sum(dict(s.args)["symbols"] for s in recorder.spans if s.name == "index.build")
        lines.append(f"string index: {builds:,d} build{'s' * (builds != 1)} ({symbols:,d} symbols), "
                     "read whole by every phase")
    return lines


def table1_row(
    *,
    n_input: int,
    n_nonredundant: int,
    components: Sequence[Sequence[int]],
    subgraphs: Sequence[Sequence[int]],
    graphs: "ComponentGraphs",
    min_component_size: int = 5,
) -> Table1Row:
    """Aggregate pipeline outputs into the paper's Table I statistics.

    The per-subgraph degree/density figures (paper: density = mean
    degree / (m - 1)) read the similarity edges from the B_d graph of
    the component that holds the subgraph, one of ``graphs``; the
    domain reduction has no similarity graph, so its degrees read 0.
    Components below ``min_component_size`` are excluded, matching the
    table's "components containing 5 sequences or more" caption.
    """
    big_components = [c for c in components if len(c) >= min_component_size]
    covered = {s for sg in subgraphs for s in sg}
    # Each sequence's B_d graph and vertex id there.
    home = {}
    if graphs.reduction == "global":
        home = {label: (graph, v) for graph in graphs.graphs
                for v, label in enumerate(graph.left_labels)}
    stats = [
        subgraph_density([home[g][1] for g in sg], home[sg[0]][0]) if sg[0] in home
        else subgraph_density(sg, None)
        for sg in subgraphs if len(sg) > 0
    ]
    if stats:
        mean_degree = sum(s.mean_degree for s in stats) / len(stats)
        mean_density = sum(s.density for s in stats) / len(stats)
        largest = max(s.size for s in stats)
    else:
        mean_degree = 0.0
        mean_density = 0.0
        largest = 0
    return Table1Row(
        n_input=n_input,
        n_nonredundant=n_nonredundant,
        n_components=len(big_components),
        n_dense_subgraphs=len(subgraphs),
        n_sequences_in_ds=len(covered),
        mean_degree=mean_degree,
        mean_density=mean_density,
        largest_ds=largest,
    )
