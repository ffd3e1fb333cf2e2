"""The GOS protein-family baseline (Section II) — the comparator the
paper improves on.

Steps, as the paper outlines them:

1. **Redundancy removal** — all-versus-all comparison; sequences >= 95%
   contained in another are eliminated.
2. **Graph generation** — an edge for every pair above a similarity
   cutoff (GOS used 70%); the full graph is built and stored, the
   Theta(n^2) bottleneck.
3. **Dense subgraph detection** — heuristic core sets of bounded size:
   repeatedly seed a core with the unclustered vertex of highest degree
   plus the neighbours sharing >= k of its neighbours (k capped at 10 —
   the fixed-k weakness the paper notes), expand each core with a
   relaxed criterion, merge expanded sets that intersect.

The all-versus-all stages use a k-mer prefilter standing in for BLASTP
seeding (see DESIGN.md).  Instrumented so the benchmarks can contrast
its alignment count and Theta(n^2)-graph memory against the pipeline's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import containment_stats, containment_verdict, overlaps
from repro.align.prefilter import KmerPrefilter
from repro.pace.cache import AlignmentCache
from repro.sequence.record import SequenceSet


@dataclass(frozen=True)
class GosConfig:
    """Baseline parameters (paper defaults where stated)."""

    containment_similarity: float = 0.95
    containment_coverage: float = 0.95
    edge_similarity: float = 0.70
    edge_coverage: float = 0.80
    shared_neighbors_k: int = 10
    core_size_bound: int = 60
    expand_similarity: float = 0.40
    min_cluster_size: int = 5
    blast_word_size: int = 3
    blast_min_words: int = 1


@dataclass
class GosResult:
    """Baseline outcome plus cost instrumentation."""

    redundant: set[int]
    kept: list[int]
    clusters: list[list[int]]
    n_candidate_pairs: int = 0
    n_alignments: int = 0
    graph_edges: int = 0
    graph_bytes: int = 0
    neighbors: dict[int, set[int]] = field(default_factory=dict)


def _blast_pairs(sequences: SequenceSet, config: GosConfig) -> list[tuple[int, int]]:
    """BLAST-style seeded candidate pairs over the whole input."""
    prefilter = KmerPrefilter(k=config.blast_word_size, min_shared=config.blast_min_words)
    for record in sequences:
        prefilter.add(record.encoded)
    return sorted(prefilter.candidate_pairs())


def gos_cluster(
    sequences: SequenceSet,
    config: GosConfig | None = None,
    *,
    scheme: ScoringScheme | None = None,
    cache: AlignmentCache | None = None,
) -> GosResult:
    """Run the three GOS stages and return clusters of global indices."""
    if config is None:
        config = GosConfig()
    if scheme is None:
        scheme = blosum62_scheme()
    encoded = [record.encoded for record in sequences]
    if cache is None:  # explicit None test: an empty cache is falsy
        cache = AlignmentCache(lambda k: encoded[k], scheme)
    n = len(sequences)

    result = GosResult(redundant=set(), kept=[], clusters=[])
    pairs = _blast_pairs(sequences, config)
    result.n_candidate_pairs = len(pairs)

    # ---- Stage 1: redundancy removal (all-vs-all containment) ----------
    for i, j in pairs:
        len_i, len_j = len(encoded[i]), len(encoded[j])
        stats = containment_stats(cache.semiglobal(i, j), len_i, len_j)
        result.n_alignments += 1
        verdict = containment_verdict(
            stats, i, j, len_i, len_j,
            config.containment_similarity, config.containment_coverage,
        )
        if verdict is not None:
            result.redundant.add(verdict[0])
    result.kept = [i for i in range(n) if i not in result.redundant]
    kept_set = set(result.kept)

    # ---- Stage 2: full similarity graph --------------------------------
    neighbors: dict[int, set[int]] = {i: set() for i in result.kept}
    for i, j in pairs:
        if i not in kept_set or j not in kept_set:
            continue
        result.n_alignments += 1
        if overlaps(cache.local(i, j), len(encoded[i]), len(encoded[j]),
                    config.edge_similarity, config.edge_coverage):
            neighbors[i].add(j)
            neighbors[j].add(i)
    result.neighbors = neighbors
    result.graph_edges = sum(len(v) for v in neighbors.values()) // 2
    # Full adjacency storage: 8 bytes per directed edge + per-vertex list.
    result.graph_bytes = 16 * n + 16 * result.graph_edges

    # ---- Stage 3: bounded core sets, expansion, merging ----------------
    unassigned = set(result.kept)
    cores: list[set[int]] = []
    # Seed order: highest degree first (deterministic tie-break on index).
    order = sorted(result.kept, key=lambda v: (-len(neighbors[v]), v))
    for seed in order:
        if seed not in unassigned:
            continue
        core = {seed}
        seed_nbrs = neighbors[seed]
        k = min(config.shared_neighbors_k, max(len(seed_nbrs) - 1, 1))
        candidates = sorted(seed_nbrs & unassigned)
        for v in candidates:
            if len(core) >= config.core_size_bound:
                break
            shared = len(neighbors[v] & seed_nbrs)
            if shared >= k:
                core.add(v)
        if len(core) > 1:
            unassigned -= core
            cores.append(core)

    # Expansion: attach remaining vertices adjacent (relaxed criterion:
    # any edge) to exactly the core with most connections.
    expanded = [set(core) for core in cores]
    for v in sorted(unassigned):
        best, best_links = -1, 0
        for idx, core in enumerate(expanded):
            links = len(neighbors[v] & core)
            if links > best_links or (links == best_links and links > 0 and idx < best):
                best, best_links = idx, links
        if best_links > 0:
            expanded[best].add(v)

    # Merge expanded sets that intersect (cannot happen with exclusive
    # expansion above, but mirrors the published protocol and guards
    # against overlapping cores).
    merged: list[set[int]] = []
    for group in expanded:
        hit = None
        for existing in merged:
            if existing & group:
                hit = existing
                break
        if hit is None:
            merged.append(set(group))
        else:
            hit |= group
    result.clusters = sorted(
        (sorted(c) for c in merged if len(c) >= config.min_cluster_size),
        key=lambda c: (-len(c), c[0]),
    )
    return result
