"""Phase 1 — Redundancy Removal (Section IV-A).

Shortlist sequence pairs sharing a maximal exact match of length >= psi,
align only those (overlap alignment), and remove every sequence that
Definition 1 declares contained in another.  When two sequences mutually
contain each other (near-identical), the shorter one is removed (ties:
the higher index), keeping results deterministic and order-independent.

The parallel driver distributes suffix buckets across workers (the
distributed-GST construction), streams unique promising pairs through
the master (which only deduplicates — there is no clustering filter in
this phase, which is why RR dominates the pipeline's run-time), and
dynamically balances the alignment work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.align.batch import containment_columns
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    containment_verdicts,
)
from repro.pace.costs import CostModel, bucket_generation
from repro.pace.seen import SeenPairs
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.record import SequenceSet
from repro.suffix import GeneralizedSuffixArray, MaximalMatchFinder


@dataclass
class RedundancyResult:
    """Outcome of the RR phase."""

    redundant: set[int]
    kept: list[int]
    n_promising_pairs: int = 0
    n_alignments: int = 0
    sim: SimulationResult | None = None
    containments: list[tuple[int, int]] = field(default_factory=list)
    """(contained, container) relations discovered."""

    @property
    def n_nonredundant(self) -> int:
        return len(self.kept)


class RedundancyMaster:
    """Master-side state of the RR phase, stated once for every executor.

    Owns the pair source (``finder``, over ``index``, the string index
    of ``sequences``), the admission filter (the master only
    deduplicates — RR has no clustering filter), the Definition 1
    verdict sink and the result construction.  Both ends take columns:
    :meth:`admit` a match block's ``(seq_a, seq_b)``, :meth:`absorb` a
    task's statistic rows.
    :func:`repro.runtime.phases.backend_redundancy_removal` streams the
    admitted columns through an execution backend;
    :func:`parallel_redundancy_removal` plugs the same methods into the
    simulated master rank as its callbacks, one-row columns at a time.

    The seen set is a :class:`~repro.pace.seen.SeenPairs` bit map over
    the ``n`` sequences.
    """

    def __init__(
        self,
        sequences: SequenceSet,
        index: GeneralizedSuffixArray,
        *,
        psi: int,
        similarity: float,
        coverage: float,
        max_pairs_per_node: int | None = None,
    ):
        self.encoded = [record.encoded for record in sequences]
        self.lengths = np.array([len(seq) for seq in self.encoded], dtype=np.int64)
        self.finder = MaximalMatchFinder(
            index, min_length=psi, max_pairs_per_node=max_pairs_per_node
        )
        self.similarity = similarity
        self.coverage = coverage
        self._admitted = SeenPairs([len(self.encoded)])
        self._victims: list[int] = []
        self._survivors: list[int] = []

    def admit(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs ``(a[r], b[r])``, ``a < b``, sighted for the first
        time, as columns in stream order — what a set of seen pairs lets
        through row by row.  Every admitted pair is aligned, so
        ``rr.pairs`` and ``rr.alignments`` move together, by the
        block's count — they count Definition 1 verdicts evaluated,
        whatever route (DP, exact certificate, Myers reject) computes
        the statistics."""
        rows = self._admitted.add(a, b)
        a, b = a[rows], b[rows]
        if len(a):
            obs.count("rr.pairs", len(a))
            obs.count("rr.alignments", len(a))
        return a, b

    def absorb(self, i: np.ndarray, j: np.ndarray, stats: np.ndarray) -> None:
        """Apply Definition 1 to the ``(identity, coverage_i,
        coverage_j)`` rows of aligned pairs ``(i[r], j[r])``.  Verdicts
        are per pair, so the order results arrive in is irrelevant."""
        victims, survivors = containment_verdicts(
            stats, i, j, self.lengths[i], self.lengths[j],
            self.similarity, self.coverage,
        )
        self._victims += victims.tolist()
        self._survivors += survivors.tolist()

    def result(self, sim: SimulationResult | None = None) -> RedundancyResult:
        redundant = set(self._victims)
        obs.count("rr.redundant", len(redundant))
        return RedundancyResult(
            redundant=redundant,
            kept=[i for i in range(len(self.encoded)) if i not in redundant],
            n_promising_pairs=self._admitted.size,
            n_alignments=self._admitted.size,
            sim=sim,
            containments=sorted(zip(self._victims, self._survivors)),
        )


def parallel_redundancy_removal(
    sequences: SequenceSet,
    cluster: VirtualCluster,
    *,
    psi: int = 10,
    similarity: float = CONTAINMENT_SIMILARITY,
    coverage: float = CONTAINMENT_COVERAGE,
    scheme: ScoringScheme | None = None,
    cost_model: CostModel | None = None,
    max_pairs_per_node: int | None = None,
) -> RedundancyResult:
    """Simulated-parallel RR phase; same answer at every processor count.

    Workers own first-symbol suffix buckets (LPT-balanced by bucket
    size), generate promising pairs locally and align the deduplicated
    survivors; the master only merges verdicts.
    Every distinct promising pair's Definition 1 statistics are one
    :func:`~repro.align.batch.containment_columns` call up front; a
    task reads its pair's row and is charged ``costs.alignment``.
    """
    costs = CostModel() if cost_model is None else cost_model
    master = RedundancyMaster(
        sequences,
        GeneralizedSuffixArray([record.encoded for record in sequences]),
        psi=psi,
        similarity=similarity,
        coverage=coverage,
        max_pairs_per_node=max_pairs_per_node,
    )
    encoded = master.encoded
    # Every distinct pair the workers can generate, canonical (a < b).
    pairs = [match.pair for match in master.finder.unique_pairs()]
    ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    stats_of = dict(zip(pairs, containment_columns(
        EncodedStore.from_sequences(encoded), ia, ib,
        scheme=blosum62_scheme() if scheme is None else scheme,
        similarity=similarity, coverage=coverage,
    ).tolist()))

    def filter_item(pair: tuple[int, int]) -> tuple[int, int] | None:
        i, j = min(pair), max(pair)
        admitted, _ = master.admit(np.array([i]), np.array([j]))
        return pair if len(admitted) else None

    def execute_task(pair: tuple[int, int]):
        i, j = pair
        if i < j:
            identity, cov_i, cov_j = stats_of[i, j]
        else:
            identity, cov_j, cov_i = stats_of[j, i]
        # A flat 5-tuple: the message's size is part of the virtual time.
        return ((i, j, identity, cov_i, cov_j),
                costs.alignment(len(encoded[i]), len(encoded[j])))

    def absorb_result(result) -> float:
        i, j, *stats = result
        master.absorb(np.array([i]), np.array([j]), np.array([stats]))
        return costs.merge

    config = MasterWorkerConfig(
        **bucket_generation(master.finder, cluster, costs, unique=True),
        filter_item=filter_item,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.dedup_pair,
    )
    return master.result(run_master_worker(cluster, config))
