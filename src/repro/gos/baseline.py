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

from repro.align.batch import align_columns, containment_columns
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import containment_verdicts, overlaps
from repro.align.prefilter import KmerPrefilter
from repro.runtime.sharedseq import EncodedStore
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


def _blast_pairs(sequences: SequenceSet, config: GosConfig) -> np.ndarray:
    """BLAST-style seeded candidate pairs ``i < j`` over the whole
    input, sorted, as the rows of a ``(k, 2)`` int64 array."""
    prefilter = KmerPrefilter(k=config.blast_word_size, min_shared=config.blast_min_words)
    for record in sequences:
        prefilter.add(record.encoded)
    return np.array(sorted(prefilter.candidate_pairs()), dtype=np.int64).reshape(-1, 2)


def gos_cluster(
    sequences: SequenceSet,
    config: GosConfig | None = None,
    *,
    scheme: ScoringScheme | None = None,
) -> GosResult:
    """Run the three GOS stages and return clusters of global indices.
    Stages 1 and 2 are one engine call each over their pair columns;
    ``n_alignments`` counts one alignment per pair a stage compares."""
    if config is None:
        config = GosConfig()
    if scheme is None:
        scheme = blosum62_scheme()
    store = EncodedStore.from_sequences([record.encoded for record in sequences])
    lengths = store.lengths
    n = len(sequences)

    result = GosResult(redundant=set(), kept=[], clusters=[])
    ia, ib = _blast_pairs(sequences, config).T
    result.n_candidate_pairs = len(ia)

    # ---- Stage 1: redundancy removal (all-vs-all containment) ----------
    stats = containment_columns(
        store, ia, ib, scheme=scheme,
        similarity=config.containment_similarity,
        coverage=config.containment_coverage,
    )
    victims, _ = containment_verdicts(
        stats, ia, ib, lengths[ia], lengths[ib],
        config.containment_similarity, config.containment_coverage,
    )
    result.redundant = set(victims.tolist())
    result.n_alignments += len(ia)
    result.kept = [i for i in range(n) if i not in result.redundant]

    # ---- Stage 2: full similarity graph --------------------------------
    kept = ~(np.isin(ia, victims) | np.isin(ib, victims))
    ia, ib = ia[kept], ib[kept]
    result.n_alignments += len(ia)
    neighbors: dict[int, set[int]] = {i: set() for i in result.kept}
    table = align_columns(store, ia, ib, scheme=scheme, mode="local")
    edge = overlaps(table, lengths[ia], lengths[ib],
                    config.edge_similarity, config.edge_coverage)
    for i, j in zip(ia[edge].tolist(), ib[edge].tolist()):
        neighbors[i].add(j)
        neighbors[j].add(i)
    result.neighbors = neighbors
    result.graph_edges = sum(len(v) for v in neighbors.values()) // 2
    # Full adjacency storage: 8 bytes per directed edge + per-vertex list.
    result.graph_bytes = 16 * n + 16 * result.graph_edges

    # ---- Stage 3: bounded core sets, expansion, merging ----------------
    result.clusters = _core_set_clusters(result.kept, neighbors, config)
    return result


def _core_set_clusters(
    kept: list[int], neighbors: dict[int, set[int]], config: GosConfig
) -> list[list[int]]:
    """Stage 3 of the baseline over the similarity graph of the ``kept``
    vertices: bounded core sets, their expansion and merging."""
    unassigned = set(kept)
    cores: list[set[int]] = []
    # Seed order: highest degree first (deterministic tie-break on index).
    order = sorted(kept, key=lambda v: (-len(neighbors[v]), v))
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
    return sorted(
        (sorted(c) for c in merged if len(c) >= config.min_cluster_size),
        key=lambda c: (-len(c), c[0]),
    )
