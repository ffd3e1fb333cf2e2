"""Work-unit cost model for the simulated phases.

One *work unit* corresponds to one alignment DP cell on the reference
node (see :class:`repro.parallel.MachineModel.compute_rate`).  Other
operations are expressed in the same currency so one knob scales the
whole simulation.  Constants are rough per-operation instruction-count
ratios; only their *relative* magnitudes shape the scaling curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.parallel.partition import balance_items

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.parallel.simulator import VirtualCluster
    from repro.suffix.matches import MaximalMatchFinder


@dataclass(frozen=True)
class CostModel:
    """Per-operation work-unit charges."""

    #: Units per suffix symbol indexed during (distributed) GST/SA build.
    index_symbol: float = 40.0
    #: Units to generate one promising pair at a tree node.
    generate_pair: float = 12.0
    #: Units per master-side handling of one streamed pair in the
    #: *clustering* phase: message unpacking, two union-find finds,
    #: cluster bookkeeping and redistribution decisions — microseconds of
    #: real time, i.e. hundreds of DP-cell units.  This serial per-pair
    #: cost is what starves the CCD phase at high processor counts
    #: (Table II's 128 -> 512 degradation).
    filter_pair: float = 150.0
    #: Units per master-side handling of one pair in the *redundancy*
    #: phase, where the master only deduplicates (a single hash-set
    #: lookup) — much lighter than the CCD master's work, which is why
    #: RR keeps scaling where CCD saturates.
    dedup_pair: float = 25.0
    #: Units per alignment DP cell (definitionally 1).
    align_cell: float = 1.0
    #: Units per union-find merge after a successful alignment.
    merge: float = 5.0
    #: Units per (vertex out-link x permutation) in the Shingle passes.
    shingle_link: float = 2.0
    #: Units per tuple sort/group operation in the Shingle passes.
    shingle_tuple: float = 4.0

    def alignment(self, len_a: int, len_b: int) -> float:
        """Cost of one full DP alignment."""
        return self.align_cell * (len_a + 1) * (len_b + 1)


def bucket_generation(
    finder: "MaximalMatchFinder",
    cluster: "VirtualCluster",
    costs: CostModel,
    *,
    unique: bool,
) -> dict[str, Any]:
    """Worker-side pair generation of the RR and CCD rank programs.

    Workers own first-symbol suffix buckets of ``finder``, LPT-balanced
    by bucket size, and stream their buckets' maximal matches
    longest-first at ``generate_pair`` units apiece; ``unique`` makes
    each worker drop pairs it has already emitted itself (RR — in CCD
    the repeats are what the master's filter is charged for).  Returns
    the ``make_generator``/``setup_cost`` fields of a
    :class:`~repro.parallel.masterworker.MasterWorkerConfig`.
    """
    symbols = finder.bucket_symbols()
    sizes = finder.bucket_sizes()
    assignment = balance_items(
        [sizes[s] for s in symbols], max(cluster.n_ranks - 1, 1)
    )
    worker_symbols = [{symbols[i] for i in bucket} for bucket in assignment]
    total_symbols = int(finder.gsa.text.size)

    def setup_cost(worker_index: int, n_workers: int) -> float:
        # Each worker builds an O(n*l/p) share of the distributed GST
        # (construction is split by suffix count, not by bucket yield).
        return costs.index_symbol * total_symbols / n_workers

    def make_generator(
        worker_index: int, n_workers: int
    ) -> Iterator[tuple[tuple[int, int], float]]:
        seen: set[tuple[int, int]] = set()
        for match in finder.matches_for_symbols(worker_symbols[worker_index]):
            if unique:
                if match.pair in seen:
                    continue
                seen.add(match.pair)
            yield (match.pair, costs.generate_pair)

    return {"make_generator": make_generator, "setup_cost": setup_cost}
