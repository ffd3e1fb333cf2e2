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

Speculation
-----------
The pair-by-pair loop — :meth:`ClusteringMaster.admit`, align, union on a
passing verdict, next pair — wants every verdict before the next
decision, i.e. one alignment call per pair.  A batch needs no verdicts,
only a bound on them.  Beside ``uf`` the master keeps ``spec``: ``uf``
plus every pair of the *open batch* (admitted, not yet aligned) assumed
to merge.  Whatever the batch returns, the loop's union–find at any later
point of the stream lies between ``uf`` and ``spec``, so:

* a streamed pair ``spec`` separates is one the loop aligns — it joins
  the batch at once (and ``spec``);
* a pair ``spec`` joins is filtered by the loop *unless* a batch pair
  before it fails Definition 2 — it is held, not decided;
* when a batch settles, verdicts are absorbed in stream order.  While
  they pass, ``spec`` was exact: held pairs streamed before the first
  failure are filtered.  After it, the remaining verdicts are still
  wanted (a held pair's edge lies inside a ``spec`` component, so it can
  never join what ``spec`` separated) and are walked, merged by stream
  row with the later held pairs, each of which goes through ``admit``
  against the live ``uf`` and, if admitted, is aligned alone; then
  ``spec`` is copied from ``uf`` again.

:meth:`ClusteringMaster.speculate` and :meth:`~ClusteringMaster.settle`
are those two halves; components, scientific counters, journaled unions
and the set of aligned pairs are the loop's, and a failed verdict costs only
batching (its held successors are re-decided one by one).  The simulated
master below does not speculate, and its filter mostly lags: a worker
streams its whole generation before it pulls a task
(:mod:`repro.parallel.masterworker`), so most pairs are admitted before
a verdict comes back.  On the Figure 6 grid (p = 16 to 256) it aligns
every distinct promising pair; what it filters are repeat sightings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.align.batch import align_columns
from repro.align.matrices import ScoringScheme, blosum62_scheme
from repro.align.predicates import OVERLAP_COVERAGE, OVERLAP_SIMILARITY, overlaps
from repro.graph.unionfind import UnionFind
from repro.pace.costs import CostModel, bucket_generation
from repro.parallel.masterworker import MasterWorkerConfig, run_master_worker
from repro.parallel.simulator import SimulationResult, VirtualCluster
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.record import SequenceSet
from repro.suffix import GeneralizedSuffixArray, MatchBlock, MaximalMatchFinder

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


def _rows(
    rows: np.ndarray, a: np.ndarray, b: np.ndarray
) -> Iterator[tuple[int, int, int]]:
    """``(k, a[k], b[k])`` for ``k`` in ``rows`` as Python ints, converted
    a window at a time: the consumer stops where its batch fills."""
    for lo in range(0, len(rows), 256):
        window = rows[lo:lo + 256]
        yield from zip(window.tolist(), a[window].tolist(), b[window].tolist())


class ClusteringMaster:
    """Master-side state of the CCD phase, stated once for every executor.

    Owns the transitive-closure admission filter over the *kept*
    sequences (ascending; pairs are local indices into ``kept``) with
    its counters, the union–find the verdicts merge into, and the
    result construction.  The pair source is the driver's: the
    session index's stream masked to the kept sequences at run time,
    an index over them alone in the simulator (whose buckets are sized
    on it) — the same stream (:mod:`repro.suffix.matches`).
    :func:`parallel_component_detection` plugs :meth:`admit` and
    :meth:`union` into the simulated master rank as its callbacks, after
    one :meth:`overlaps` call has taken every pair's verdict;
    :func:`repro.runtime.phases.backend_component_detection` drives the
    same ``admit`` through :meth:`speculate` and :meth:`settle`, which
    need the verdicts only a batch at a time (module docstring).
    """

    def __init__(
        self,
        sequences: SequenceSet,
        kept: Sequence[int],
        *,
        similarity: float,
        coverage: float,
    ):
        self.encoded = [record.encoded for record in sequences]
        self.lengths = np.array([len(e) for e in self.encoded], dtype=np.int64)
        self.kept = kept
        self.similarity = similarity
        self.coverage = coverage
        self.uf = UnionFind(len(kept))
        self.n_pairs = 0
        self._tested: set[tuple[int, int]] = set()
        #: ``uf`` plus every pair of the open batch assumed to merge.
        self.spec = UnionFind(len(kept))
        #: The open batch: admitted pairs whose verdicts are not in yet,
        #: as ``(stream row, a, b)`` in stream order.
        self.batch: list[tuple[int, int, int]] = []
        #: Pairs ``spec`` joined while a batch was open, undecided until
        #: it settles: ``(stream row, a, b)`` rows, in stream order.
        self._held: list[np.ndarray] = []
        self.n_held = 0
        self._streamed = 0
        #: ``spec.labels()`` and the ``spec.merge_count`` it was taken at.
        self._snapshot: tuple[np.ndarray, int] | None = None

    def replay(self, pair: tuple[int, int]) -> None:
        """Seed the closure with a merge journaled by an earlier run."""
        self.uf.union(pair[0], pair[1])
        self.spec.union(pair[0], pair[1])

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

    def _filtered(self, n: int) -> None:
        """``n`` streamed pairs that ``admit`` would provably filter."""
        if n:
            self.n_pairs += n
            obs.count("ccd.pairs", n)
            obs.count("ccd.filtered", n)

    def speculate(
        self, block: MatchBlock, batch_pairs: int, settle: Callable[[], None]
    ) -> None:
        """Place every pair of ``block``: filtered (``uf`` joins it),
        into the open batch (``spec`` separates it) or held (``spec``
        joins it while a batch is open).  ``settle()`` — the caller's
        :meth:`settle` — is called whenever the batch has grown to
        ``batch_pairs`` pairs, every earlier row of the stream placed.

        One label snapshot of ``spec``, taken as the block starts and
        again after each settle, places the rows it joins in bulk; the
        rows it separates are decided one by one against the live
        ``spec``.  Merges since the snapshot only make it separate rows
        ``spec`` joins, and those the walk holds.
        """
        row, done = self._streamed, 0
        self._streamed += len(block)
        while done < len(block):
            if self._snapshot is None or self._snapshot[1] != self.spec.merge_count:
                self._snapshot = (self.spec.labels(), self.spec.merge_count)
            spec, labels, open_batch = self.spec, self._snapshot[0], bool(self.batch)
            a, b = block.seq_a[done:], block.seq_b[done:]
            joined = labels[a] == labels[b]
            # With no batch open the labels are those of spec == uf and
            # the rows they join are filtered; with one open, held.
            hold = joined & open_batch
            # Rows of this piece placed when the walk below stops: all of
            # it, unless the batch fills.
            placed = len(a)
            for k, x, y in _rows(np.flatnonzero(~joined), a, b):
                if self.batch and spec.same(x, y):
                    hold[k] = True
                elif self.admit((x, y)):
                    spec.union(x, y)
                    self.batch.append((row + done + k, x, y))
                    if len(self.batch) >= batch_pairs:
                        placed = k + 1
                        break
            if not open_batch:
                self._filtered(int(np.count_nonzero(joined[:placed])))
            held = np.flatnonzero(hold[:placed])
            if len(held):
                self._held.append(
                    np.stack([row + done + held, a[held], b[held]], axis=1)
                )
                self.n_held += len(held)
                obs.count("ccd.held", len(held))
            done += placed
            if len(self.batch) >= batch_pairs:
                settle()

    def settle(
        self,
        passes: Callable[[list[tuple[int, int]]], list[bool]],
        merged: Callable[[tuple[int, int]], None],
    ) -> None:
        """Close the open batch: have it aligned in one call, absorb the
        verdicts in stream order and decide every held pair (module
        docstring: filtered up to the first failed verdict, re-decided
        through :meth:`admit` after it).

        ``passes(pairs)`` is Definition 2 on the alignments of local
        ``pairs``, in the order given; ``merged(pair)`` hears of every
        union that joined two clusters.
        """
        if not self.batch:
            return
        recorder = obs.active()
        start = recorder.now() if recorder is not None else 0.0
        batch, self.batch = self.batch, []
        pieces, n_held = self._held, self.n_held
        self._held, self.n_held = [], 0
        verdicts = passes([(x, y) for _, x, y in batch])

        def absorb(pair: tuple[int, int]) -> None:
            if self.union(pair):
                merged(pair)

        failed = (verdicts + [False]).index(False)
        for _, x, y in batch[:failed]:
            absorb((x, y))
        if failed == len(batch):
            self._filtered(n_held)
            redecided = 0
        else:
            # Pieces were held in stream order, each in row order.
            held = np.concatenate([np.empty((0, 3), dtype=np.int64), *pieces])
            certain = int(np.searchsorted(held[:, 0], batch[failed][0]))
            self._filtered(certain)
            redecided = n_held - certain
            walk: list[tuple[int, int, int, bool | None]] = [
                (r, x, y, ok) for (r, x, y), ok
                in zip(batch[failed + 1:], verdicts[failed + 1:])
            ]
            walk += [(r, x, y, None) for r, x, y in held[certain:].tolist()]
            walk.sort(key=lambda item: item[0])
            for _, x, y, ok in walk:
                if ok is None:
                    ok = self.admit((x, y)) and passes([(x, y)])[0]
                if ok:
                    absorb((x, y))
            self.spec, self._snapshot = self.uf.copy(), None
        obs.count("ccd.batches")
        obs.count("ccd.redecided", redecided)
        if recorder is not None:
            recorder.add_span(
                "ccd.batch", "master", start, recorder.now(),
                pairs=len(batch), held=n_held, redecided=redecided,
            )

    def overlaps(self, ia: np.ndarray, ib: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Definition 2 on the local alignment table of the global pairs
        ``(ia[r], ib[r])``: one boolean per row."""
        return overlaps(table, self.lengths[ia], self.lengths[ib],
                        self.similarity, self.coverage)

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
    cost_model: CostModel | None = None,
    max_pairs_per_node: int | None = None,
) -> ClusteringResult:
    """Simulated-parallel CCD phase.

    Workers stream bucket-local promising pairs longest-first; the
    master union-find filters and dynamically redistributes surviving
    alignments.  The aggressive filter starves workers at high p — the
    paper's Table II scaling collapse — while leaving the components
    identical at every processor count.
    Every distinct promising pair's local alignment is one
    :func:`~repro.align.batch.align_columns` call up front and its
    Definition 2 verdict one column call; a task reads its pair's
    verdict and is charged ``costs.alignment``.
    """
    costs = CostModel() if cost_model is None else cost_model
    master = ClusteringMaster(sequences, kept, similarity=similarity, coverage=coverage)
    encoded = master.encoded
    finder = MaximalMatchFinder(
        GeneralizedSuffixArray([encoded[k] for k in kept]),
        min_length=psi,
        max_pairs_per_node=max_pairs_per_node,
    )
    # Every distinct pair the workers can stream, canonical (a < b) in
    # local indices and, ``kept`` being ascending, in global ones.
    pairs = [match.pair for match in finder.unique_pairs()]
    ga, gb = np.asarray(kept, dtype=np.int64)[
        np.array(pairs, dtype=np.int64).reshape(-1, 2).T]
    table = align_columns(
        EncodedStore.from_sequences(encoded), ga, gb,
        scheme=blosum62_scheme() if scheme is None else scheme, mode="local",
    )
    passes_of = dict(zip(pairs, master.overlaps(ga, gb, table).tolist()))

    def execute_task(
        pair: tuple[int, int]
    ) -> tuple[tuple[tuple[int, int], bool], float]:
        gi, gj = kept[pair[0]], kept[pair[1]]
        return (pair, passes_of[pair]), costs.alignment(len(encoded[gi]), len(encoded[gj]))

    def absorb_result(result: tuple[tuple[int, int], bool]) -> float:
        pair, passes = result
        if passes:
            master.union(pair)
            return costs.merge
        return 0.0

    config = MasterWorkerConfig(
        **bucket_generation(finder, cluster, costs, unique=False),
        filter_item=lambda pair: pair if master.admit(pair) else None,
        execute_task=execute_task,
        absorb_result=absorb_result,
        filter_cost=costs.filter_pair,
    )
    return master.result(run_master_worker(cluster, config))
