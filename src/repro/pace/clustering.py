"""Phase 2 — Connected Component Detection (Section IV-B).

PaCE-style clustering of the non-redundant sequences: promising pairs
(maximal match >= psi) stream in decreasing match-length order; the
master keeps a union-find over sequences and *filters out* every pair
whose endpoints are already co-clustered (the transitive-closure
heuristic that eliminates >99.9% of pairs); surviving pairs are aligned
by workers against Definition 2 (>=30% similarity over >=80% of the
longer sequence) and successes merge clusters.

Result invariance: the final clustering equals the connected components
of the graph {promising pairs that pass the overlap test}.  A filtered
pair is by construction already intra-component, so *which* pairs get
filtered (a function of message timing) never changes the output — every
backend and every processor count produce identical clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import OVERLAP_COVERAGE, OVERLAP_SIMILARITY
from repro.graph.unionfind import UnionFind
from repro.pace.cache import AlignmentCache
from repro.pace.costs import CostModel, bucket_generation
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.sequence.record import SequenceSet
from repro.suffix import GeneralizedSuffixArray, MaximalMatchFinder


@dataclass
class ClusteringResult:
    """Outcome of the CCD phase."""

    components: list[list[int]]
    """Connected components over *global* sequence indices, sorted by
    descending size; singletons included."""
    n_promising_pairs: int = 0
    n_filtered: int = 0
    n_alignments: int = 0
    n_merges: int = 0
    sim: SimulationResult | None = None

    def components_of_size(self, min_size: int) -> list[list[int]]:
        return [c for c in self.components if len(c) >= min_size]

    @property
    def work_reduction(self) -> float:
        """Fraction of promising pairs never aligned (the >99.9% figure)."""
        if self.n_promising_pairs == 0:
            return 0.0
        return 1.0 - self.n_alignments / self.n_promising_pairs


def _overlap_passes(
    aln, len_i: int, len_j: int, similarity: float, coverage: float
) -> bool:
    if aln.length == 0 or aln.identity < similarity:
        return False
    longer = max(len_i, len_j)
    span = max(aln.a_end - aln.a_start, aln.b_end - aln.b_start)
    return span / longer >= coverage


class ClusteringMaster:
    """Master-side state of the CCD phase, stated once for every executor.

    Owns the pair source (``finder``, over the string index of
    ``sequences`` restricted to the *kept* ones, ascending, so its
    pairs are local indices into ``kept``), the transitive-closure
    admission filter with its counters, the union–find the verdicts
    merge into, and the result construction.
    :func:`repro.runtime.phases.backend_component_detection` streams the
    admitted pairs through an execution backend;
    :func:`parallel_component_detection` plugs the same methods into the
    simulated master rank as its callbacks.
    """

    def __init__(
        self,
        sequences: SequenceSet,
        kept: Sequence[int],
        index: GeneralizedSuffixArray,
        *,
        psi: int,
        similarity: float,
        coverage: float,
        max_pairs_per_node: int | None = None,
    ):
        self.encoded = [record.encoded for record in sequences]
        self.kept = kept
        self.finder = MaximalMatchFinder(
            index.restrict(kept),
            min_length=psi,
            max_pairs_per_node=max_pairs_per_node,
        )
        self.similarity = similarity
        self.coverage = coverage
        self.uf = UnionFind(len(kept))
        self.n_pairs = 0
        self._tested: set[tuple[int, int]] = set()

    def admit(self, pair: tuple[int, int]) -> bool:
        """The transitive-closure filter: drop a streamed pair whose
        endpoints are already co-clustered (or that was aligned before).
        Every admitted pair is aligned, so ``ccd.alignments`` is bumped
        here too."""
        self.n_pairs += 1
        obs.count("ccd.pairs")
        if pair in self._tested or self.uf.same(pair[0], pair[1]):
            obs.count("ccd.filtered")
            return False
        self._tested.add(pair)
        obs.count("ccd.alignments")
        return True

    def overlaps(self, gi: int, gj: int, aln) -> bool:
        """Definition 2 on the local alignment of global pair (gi, gj)."""
        return _overlap_passes(
            aln,
            len(self.encoded[gi]),
            len(self.encoded[gj]),
            self.similarity,
            self.coverage,
        )

    def union(self, pair: tuple[int, int]) -> bool:
        """Merge the clusters of a pair that passed; True when they were
        distinct until now."""
        merged = self.uf.union(pair[0], pair[1])
        obs.gauge("ccd.components_now", len(self.kept) - self.uf.merge_count)
        return merged

    def result(self, sim: SimulationResult | None = None) -> ClusteringResult:
        # Translate local union-find groups back to global indices.
        groups: dict[int, list[int]] = {}
        for local, global_idx in enumerate(self.kept):
            groups.setdefault(self.uf.find(local), []).append(global_idx)
        components = [sorted(members) for members in groups.values()]
        components.sort(key=lambda c: (-len(c), c[0]))
        obs.count("ccd.merges", self.uf.merge_count)
        obs.count("ccd.components", len(components))
        obs.gauge("ccd.components_now", len(components))
        return ClusteringResult(
            components=components,
            n_promising_pairs=self.n_pairs,
            n_filtered=self.n_pairs - len(self._tested),
            n_alignments=len(self._tested),
            n_merges=self.uf.merge_count,
            sim=sim,
        )


def parallel_component_detection(
    sequences: SequenceSet,
    kept: Sequence[int],
    cluster: VirtualCluster,
    *,
    psi: int = 10,
    similarity: float = OVERLAP_SIMILARITY,
    coverage: float = OVERLAP_COVERAGE,
    scheme: ScoringScheme | None = None,
    cache: AlignmentCache | None = None,
    cost_model: CostModel | None = None,
    max_pairs_per_node: int | None = None,
    record_timeline: bool = False,
) -> ClusteringResult:
    """Simulated-parallel CCD phase.

    Workers stream bucket-local promising pairs longest-first; the
    master union-find filters and dynamically redistributes surviving
    alignments.  The aggressive filter starves workers at high p — the
    paper's Table II scaling collapse — while leaving the components
    identical at every processor count.
    """
    costs = CostModel() if cost_model is None else cost_model
    master = ClusteringMaster(
        sequences,
        kept,
        GeneralizedSuffixArray([record.encoded for record in sequences]),
        psi=psi,
        similarity=similarity,
        coverage=coverage,
        max_pairs_per_node=max_pairs_per_node,
    )
    encoded = master.encoded
    if cache is None:  # explicit None test: an empty cache is falsy
        cache = AlignmentCache(
            lambda k: encoded[k], blosum62_scheme() if scheme is None else scheme
        )

    def execute_task(pair: tuple[int, int]):
        gi, gj = kept[pair[0]], kept[pair[1]]
        passes = master.overlaps(gi, gj, cache.local(gi, gj))
        return (pair, passes), costs.alignment(len(encoded[gi]), len(encoded[gj]))

    def absorb_result(result) -> float:
        pair, passes = result
        if passes:
            master.union(pair)
            return costs.merge
        return 0.0

    config = MasterWorkerConfig(
        **bucket_generation(master.finder, cluster, costs, unique=False),
        filter_item=lambda pair: pair if master.admit(pair) else None,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.filter_pair,
    )
    _, sim = run_master_worker(cluster, config, record_timeline=record_timeline)
    return master.result(sim)
