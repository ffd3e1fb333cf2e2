"""Phase 4 — Dense Subgraph Detection (Section IV-D).

Runs the Shingle algorithm serially on each component's bipartite graph
(:func:`shingle_component`, the unit of work the execution backends map
over the components, largest first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.shingle.algorithm import ShingleParams, shingle_dense_subgraphs
from repro.shingle.postprocess import domain_output, global_similarity_output


@dataclass
class DsdResult:
    """Outcome of the DSD phase: the families, nothing more."""

    subgraphs: list[tuple[int, ...]]
    """Final dense subgraphs as sorted tuples of global sequence indices
    (A u B after the tau test for the global reduction; B for domain)."""

    def sizes(self) -> list[int]:
        return sorted((len(sg) for sg in self.subgraphs), reverse=True)


def shingle_component(
    graph,
    reduction: str,
    params: ShingleParams,
    min_size: int,
    tau: float,
) -> list[tuple[int, ...]]:
    """Run the Shingle algorithm + reporting filter on one component
    graph and answer its families (``finals``).

    The unit of work of the DSD phase — independent per component, so the
    execution backends (:mod:`repro.runtime`) farm it to worker
    processes, each under its ``shingle.component`` task span
    (:func:`repro.runtime.base.execute`).
    """
    result = shingle_dense_subgraphs(graph, params, min_size=1, expand_b=True)
    if reduction == "domain":
        finals = domain_output(result.subgraphs, min_size=min_size)
    else:
        finals = global_similarity_output(result.subgraphs, tau=tau, min_size=min_size)
    obs.count("dsd.components")
    obs.count("dsd.subgraphs", len(finals))
    return finals


def gather_subgraphs(per_component: Iterable[list[tuple[int, ...]]]) -> DsdResult:
    """Fold :func:`shingle_component` answers, given in component order,
    into the phase result; subgraphs are sorted canonically so the
    executor that produced them cannot show in the output."""
    out = DsdResult(subgraphs=[sg for finals in per_component for sg in finals])
    out.subgraphs.sort(key=lambda sg: (-len(sg), sg))
    return out
