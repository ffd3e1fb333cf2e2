"""Distributed-memory Shingle algorithm — the paper's Section VI proposal.

The serial Shingle pass holds every <shingle, vertex> tuple at once; the
paper notes a peak space of O(m * c^2) when shingles are unique and lists
"Parallelization of the Shingle algorithm ... to address the need for
memory" as future work.  This module is that parallelisation on the
simulated cluster.  The passes are the serial ones
(:mod:`repro.shingle.algorithm`) run on a rank's share of the tuple
rows; only what is distributed lives here:

1. **Partition** the left vertices across ranks (LPT by out-degree);
   each rank runs pass I on its block — peak tuple memory per node
   drops to ~1/p (16 bytes per tuple, tracked through the simulator's
   memory accounting; see the companion test and ablation bench).
2. **Shuffle** tuple rows to their *owner* rank (``shingle % p``) in one
   personalised all-to-all, so every first-level shingle's full vertex
   run assembles on one rank, which runs pass II on it.
3. **Shuffle** the second-level tuples to their owners the same way; an
   owner is charged for linking each shingle's first-level run.
4. **Gather** every owned row at rank 0, which reports from the complete
   tuple files — byte-identical to the serial algorithm.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.parallel.partition import balance_items
from repro.parallel.simulator import SimComm, SimulationResult, VirtualCluster
from repro.pace.costs import CostModel
from repro.shingle.algorithm import ShingleParams, ShingleResult, pass_one, pass_two, report

Columns = tuple[np.ndarray, ...]


def _shuffle(comm: SimComm, columns: Columns) -> Generator[Any, Any, Columns]:
    """Send every row to rank ``key % p`` (the key is the first column)
    and return the rows this rank received, concatenated by source."""
    owner = columns[0] % np.uint64(comm.size)
    mine = (owner == dest for dest in range(comm.size))
    incoming = yield from comm.alltoall([tuple(col[rows] for col in columns) for rows in mine])
    return _concat(incoming)


def _concat(parts: Sequence[Columns]) -> Columns:
    return tuple(np.concatenate(cols) for cols in zip(*parts))


def _program(
    comm: SimComm,
    graph: BipartiteGraph,
    params: ShingleParams,
    assignment: Sequence[Sequence[int]],
    costs: CostModel,
) -> Generator[Any, Any, Columns | None]:
    my_vertices = assignment[comm.rank]

    # ---- Pass I on the local vertex block, shuffled to shingle owners ----
    local_links = sum(graph.out_degree(v) for v in my_vertices)
    yield from comm.compute(units=costs.shingle_link * params.c1 * local_links)
    local = pass_one(graph, my_vertices, params)
    comm.alloc(16 * len(local[0]))
    shingle, vertex, elements = yield from _shuffle(comm, local)
    comm.free(16 * len(local[0]))
    comm.alloc(16 * len(shingle))
    yield from comm.compute(units=costs.shingle_tuple * len(shingle))

    # ---- Pass II on owned shingles, shuffled to second-level owners ------
    local2 = pass_two(shingle, vertex, params)
    yield from comm.compute(units=costs.shingle_link * params.c2 * max(len(shingle), 1))
    comm.alloc(16 * len(local2[0]))
    shingle2, shingle1 = yield from _shuffle(comm, local2)
    comm.free(16 * len(local2[0]))
    # An owner links each second-level shingle's run to its first member.
    links = len(shingle2) - len(np.unique(shingle2))
    yield from comm.compute(units=costs.shingle_tuple * links)

    # ---- Gather every owned row at rank 0 --------------------------------
    gathered = yield from comm.gather((shingle, vertex, elements, shingle2, shingle1), root=0)
    comm.free(16 * len(shingle))
    return None if gathered is None else _concat(gathered)


def parallel_shingle_dense_subgraphs(
    graph: BipartiteGraph,
    cluster: VirtualCluster,
    params: ShingleParams | None = None,
    *,
    min_size: int = 1,
    expand_b: bool = True,
    cost_model: CostModel | None = None,
) -> tuple[ShingleResult, SimulationResult]:
    """Distributed Shingle run; output equals the serial algorithm's.

    Returns ``(result, sim)`` where ``sim`` carries per-rank timing and
    ``result.peak_tuple_bytes`` is the peak tuple memory of the fullest
    node (the quantity the parallelisation is designed to divide by p).
    """
    if params is None:
        params = ShingleParams()
    costs = CostModel() if cost_model is None else cost_model
    degrees = [graph.out_degree(v) for v in range(graph.n_left)]
    assignment = balance_items(degrees, cluster.n_ranks)

    sim = cluster.run(_program, args=(graph, params, assignment, costs))
    result = report(graph, params, *sim.rank_results[0], min_size=min_size, expand_b=expand_b)
    result.peak_tuple_bytes = max(s.mem_peak_bytes for s in sim.rank_stats)
    return result, sim
