"""Table I summary rows and run reports.

Besides the paper's qualitative-assessment row (Table I), this module
formats operational statistics a run produces: alignment-cache
effectiveness (:func:`cache_stats_lines`), reported by the CLI next to
the backend wall-clock summary so backend runs can show how much
recomputation the master-side cache absorbed, and the unified
observability summary (:func:`observation_lines`) rendered from a
:class:`repro.obs.Recorder` — a phase timeline with share bars, the
scientific counters of the run contract, worker-lane utilisation, and
the cache rollup, identical in vocabulary across serial, simulated,
and backend runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.graph.density import subgraph_density
from repro.obs import Recorder, scientific_view


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


def cache_stats_lines(stats: Mapping[str, float]) -> list[str]:
    """Render an ``AlignmentCache.stats()`` snapshot for run reports.

    >>> print("\\n".join(cache_stats_lines(cache.stats())))
    """
    hits = int(stats.get("hits", 0))
    misses = int(stats.get("misses", 0))
    total = hits + misses
    lines = [
        f"alignment cache: {int(stats.get('entries', 0)):,d} entries, "
        f"{hits:,d}/{total:,d} lookups served ({stats.get('hit_rate', 0.0):.1%} hit rate)"
    ]
    for kind in ("local", "semiglobal"):
        kind_hits = int(stats.get(f"{kind}_hits", 0))
        kind_misses = int(stats.get(f"{kind}_misses", 0))
        kind_total = kind_hits + kind_misses
        if kind_total:
            lines.append(
                f"  {kind:<10s} hits={kind_hits:<8,d} misses={kind_misses:<8,d} "
                f"({kind_hits / kind_total:.1%})"
            )
    by_phase = stats.get("by_phase") or {}
    for phase, split in by_phase.items():
        phase_hits = int(split.get("hits", 0))
        phase_misses = int(split.get("misses", 0))
        phase_total = phase_hits + phase_misses
        if phase_total:
            lines.append(
                f"  phase {phase:<14s} hits={phase_hits:<8,d} "
                f"misses={phase_misses:<8,d} "
                f"({phase_hits / phase_total:.1%})"
            )
    return lines


def observation_lines(recorder: Recorder, *, bar_width: int = 28) -> list[str]:
    """Timeline-style text report of one run's observability recorder.

    Sections (each omitted when empty): run metadata, the per-phase
    wall-clock timeline with share bars, the worker-lane busy rollup
    (backend runs), the masters' pair-generation rollup per phase (from
    the ``pairs.generate`` block spans), the scientific counters, the
    cache summary, CCD's batches, shingle draws shared by equal sets,
    string index builds.
    """
    counters = recorder.counters()
    phases = recorder.phase_seconds()
    total = sum(phases.values())
    lines: list[str] = []
    if recorder.meta:
        lines.append(
            "run: " + " ".join(f"{k}={v}" for k, v in recorder.meta.items())
        )
    if phases:
        lines.append(f"phase timeline ({total:.3f}s wall):")
        peak = max(phases.values())
        for name, secs in phases.items():
            filled = round(bar_width * secs / peak) if peak > 0 else 0
            if secs > 0:
                filled = max(filled, 1)
            share = secs / total if total > 0 else 0.0
            lines.append(
                f"  {name:<16s} {secs:>9.3f}s {share:>6.1%}  "
                f"|{'#' * filled:<{bar_width}s}|"
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
    cache_lookups = sum(
        counters.get(f"cache.{kind}_{outcome}", 0)
        for kind in ("local", "semiglobal")
        for outcome in ("hits", "misses")
    )
    if cache_lookups:
        cache_hits = (
            counters.get("cache.local_hits", 0)
            + counters.get("cache.semiglobal_hits", 0)
        )
        lines.append(
            f"cache: {int(counters.get('cache.entries', 0)):,d} entries, "
            f"{int(cache_hits):,d}/{int(cache_lookups):,d} lookups served "
            f"({cache_hits / cache_lookups:.1%} hit rate)"
        )
    if batches := int(counters.get("ccd.batches", 0)):
        lines.append(f"CCD: {int(counters['ccd.alignments']):,d} alignments in {batches:,d} "
                     f"batch{'es' * (batches != 1)}, {int(counters.get('ccd.held', 0)):,d} pairs held "
                     f"under speculation, {int(counters['ccd.redecided']):,d} re-decided")
    if sets := counters.get("dsd.sets", 0):
        drawn = int(counters.get("dsd.sets_drawn", 0))
        lines.append(f"shingle draws: {drawn:,d} distinct of {int(sets):,d} sets presented "
                     f"({1 - drawn / sets:.1%} read another set's draw)")
    if builds := int(counters.get("suffix.index_builds", 0)):
        symbols = sum(dict(s.args)["symbols"] for s in recorder.spans if s.name == "index.build")
        lines.append(f"string index: {builds:,d} build{'s' * (builds != 1)} ({symbols:,d} symbols), "
                     f"{int(counters.get('suffix.index_restrictions', 0)):,d} restrictions")
    return lines


def table1_row(
    *,
    n_input: int,
    n_nonredundant: int,
    components: Sequence[Sequence[int]],
    subgraphs: Sequence[Sequence[int]],
    neighbors: Mapping[int, set[int]],
    min_component_size: int = 5,
) -> Table1Row:
    """Aggregate pipeline outputs into the paper's Table I statistics.

    ``neighbors`` is the similarity adjacency used for the per-subgraph
    degree/density figures (paper: density = mean degree / (m - 1)).
    Components below ``min_component_size`` are excluded, matching the
    table's "components containing 5 sequences or more" caption.
    """
    big_components = [c for c in components if len(c) >= min_component_size]
    covered = {s for sg in subgraphs for s in sg}
    stats = [subgraph_density(sg, neighbors) for sg in subgraphs if len(sg) > 0]
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
