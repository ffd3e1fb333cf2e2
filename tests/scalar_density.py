"""Table I's degree and density over a dict-of-sets adjacency, kept as
the reference for the B_d reader.

This is how ``repro.graph.density.subgraph_density`` and
``repro.eval.report.table1_row`` measured a subgraph before the B_d
graphs held the only copy of the similarity edges: an undirected
adjacency of global sequence indices, no self loops, and a member's
degree inside S the size of its neighbour set within S.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.eval.report import Table1Row


def adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, set[int]]:
    """The symmetric neighbour sets of undirected ``edges``."""
    neighbors: dict[int, set[int]] = {}
    for a, b in edges:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    return neighbors


def table1_oracle(
    *,
    n_input: int,
    n_nonredundant: int,
    components: Sequence[Sequence[int]],
    subgraphs: Sequence[Sequence[int]],
    neighbors: dict[int, set[int]],
    min_component_size: int = 5,
) -> Table1Row:
    """The Table I row, each subgraph's degrees counted set by set."""
    degrees, densities, sizes = [], [], []
    for sg in subgraphs:
        members = set(sg)
        m = len(members)
        if m == 0:
            continue
        if m == 1:
            degree, density = 0.0, 1.0
        else:
            degree = sum(len(neighbors.get(v, set()) & members) for v in members) / m
            density = degree / (m - 1)
        degrees.append(degree)
        densities.append(density)
        sizes.append(m)
    return Table1Row(
        n_input=n_input,
        n_nonredundant=n_nonredundant,
        n_components=sum(len(c) >= min_component_size for c in components),
        n_dense_subgraphs=len(subgraphs),
        n_sequences_in_ds=len({s for sg in subgraphs for s in sg}),
        mean_degree=sum(degrees) / len(degrees) if degrees else 0.0,
        mean_density=sum(densities) / len(densities) if densities else 0.0,
        largest_ds=max(sizes, default=0),
    )
