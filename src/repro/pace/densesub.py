"""Phase 4 — Dense Subgraph Detection (Section IV-D).

Runs the Shingle algorithm serially on each component's bipartite graph
(:func:`shingle_component`, the unit of work every executor maps over
the components).  Components are grouped into roughly equal-size batches
and distributed across processors (the paper's strategy for the short
per-component run-times); the parallel driver simulates that placement
on the Linux cluster model while executing the real algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro import obs
from repro.pace.bipartite_gen import ComponentGraphs
from repro.pace.costs import CostModel
from repro.parallel.partition import balance_items
from repro.parallel.simulator import SimComm, SimulationResult, VirtualCluster
from repro.shingle.algorithm import DenseSubgraph, ShingleParams, ShingleResult, shingle_dense_subgraphs
from repro.shingle.postprocess import domain_output, global_similarity_output


@dataclass
class DsdResult:
    """Outcome of the DSD phase."""

    subgraphs: list[tuple[int, ...]]
    """Final dense subgraphs as sorted tuples of global sequence indices
    (A u B after the tau test for the global reduction; B for domain)."""
    raw: list[DenseSubgraph] = field(default_factory=list)
    shingle_stats: list[ShingleResult] = field(default_factory=list)
    sim: SimulationResult | None = None

    def sizes(self) -> list[int]:
        return sorted((len(sg) for sg in self.subgraphs), reverse=True)


def shingle_component(
    graph,
    reduction: str,
    params: ShingleParams,
    min_size: int,
    tau: float,
) -> tuple[list[tuple[int, ...]], list[DenseSubgraph], ShingleResult]:
    """Run the Shingle algorithm + reporting filter on one component graph.

    The unit of work of the DSD phase — independent per component, so the
    simulated driver batches it across ranks and the execution backends
    (:mod:`repro.runtime`) farm it to worker processes.  Observability:
    counts here (and inside :func:`shingle_dense_subgraphs`) land on the
    ambient recorder — the master's directly in serial/simulated modes,
    a worker-local recorder shipped back with the result batch under
    :class:`~repro.runtime.process.ProcessBackend`.
    """
    with obs.span("shingle.component", cat="task", left=graph.n_left):
        result = shingle_dense_subgraphs(graph, params, min_size=1, expand_b=True)
        if reduction == "domain":
            finals = domain_output(result.subgraphs, min_size=min_size)
        else:
            finals = global_similarity_output(result.subgraphs, tau=tau, min_size=min_size)
    obs.count("dsd.components")
    obs.count("dsd.subgraphs", len(finals))
    return finals, result.subgraphs, result


def gather_subgraphs(
    per_component: Iterable[tuple[list[tuple[int, ...]], list[DenseSubgraph], ShingleResult]],
    sim: SimulationResult | None = None,
) -> DsdResult:
    """Fold :func:`shingle_component` triples, given in component order,
    into the phase result; subgraphs are sorted canonically so the
    executor that produced them cannot show in the output."""
    out = DsdResult(subgraphs=[], sim=sim)
    for finals, raw, stats in per_component:
        out.subgraphs.extend(finals)
        out.raw.extend(raw)
        out.shingle_stats.append(stats)
    out.subgraphs.sort(key=lambda sg: (-len(sg), sg))
    return out


def parallel_dense_subgraph_detection(
    component_graphs: ComponentGraphs,
    cluster: VirtualCluster,
    *,
    params: ShingleParams | None = None,
    min_size: int = 5,
    tau: float = 0.5,
    cost_model: CostModel | None = None,
) -> DsdResult:
    """Simulated-parallel DSD: batch components across ranks.

    Every rank serially runs the Shingle algorithm on its batch,
    charging the c-linear cost of Section IV-D; rank 0 gathers the
    subgraphs.  Output is the same at every rank count (components are
    independent).
    """
    if params is None:
        params = ShingleParams()
    costs = CostModel() if cost_model is None else cost_model
    graphs = component_graphs.graphs
    reduction = component_graphs.reduction

    weights = [g.n_edges + g.n_left + 1 for g in graphs]
    assignment = balance_items(weights, cluster.n_ranks)

    def program(comm: SimComm, batch_ids: Sequence[int] = ()):  # noqa: D401
        local_finals: list[tuple[int, list, list, ShingleResult]] = []
        for graph_id in batch_ids:
            graph = graphs[graph_id]
            comm.alloc(graph.memory_bytes())
            finals, raw, stats = shingle_component(graph, reduction, params, min_size, tau)
            yield from comm.compute(
                units=costs.shingle_run(
                    graph.n_left,
                    graph.n_edges,
                    params.c1,
                    params.c2,
                    stats.n_tuples_pass1,
                )
            )
            comm.free(graph.memory_bytes())
            local_finals.append((graph_id, finals, raw, stats))
        gathered = yield from comm.gather(local_finals, root=0)
        if comm.rank != 0:
            return None
        return gathered

    per_rank_kwargs = [{"batch_ids": assignment[r]} for r in range(cluster.n_ranks)]
    sim = cluster.run(program, per_rank_kwargs=per_rank_kwargs)

    merged: list[tuple[int, list, list, ShingleResult]] = []
    for rank_payload in sim.rank_results[0]:
        merged.extend(rank_payload)
    merged.sort(key=lambda item: item[0])  # deterministic component order
    return gather_subgraphs((item[1:] for item in merged), sim)
