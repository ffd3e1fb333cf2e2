"""The column passes of ``repro.shingle.algorithm`` against the loop they
replaced (``tests/scalar_shingle.py``): every ``DenseSubgraph`` and every
``ShingleResult`` field must be equal, on any bipartite graph."""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.shingle.algorithm import ShingleParams, shingle_dense_subgraphs
from tests.scalar_shingle import scalar_shingle_dense_subgraphs

# Small s/c so that, over the graphs below, some vertices fall under s1,
# some first-level shingles keep fewer than s2 vertices, and permutations
# repeat samples.
params = st.builds(
    ShingleParams,
    s1=st.integers(1, 4), c1=st.integers(1, 12),
    s2=st.integers(1, 4), c2=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)


@st.composite
def similarity_graphs(draw) -> BipartiteGraph:
    """B_d-shaped: a few planted cliques plus random edges, duplicated."""
    n = draw(st.integers(0, 18))
    if n == 0:
        return duplicate_bipartite(0, [])
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=25))
    for clique in draw(st.lists(st.sets(vertex, max_size=7), max_size=3)):
        edges += [(i, j) for i in clique for j in clique if i < j]
    labels = draw(st.permutations(range(100, 100 + n)))
    return duplicate_bipartite(
        n, edges, labels=labels, include_self_loop=draw(st.booleans())
    )


@st.composite
def word_graphs(draw) -> BipartiteGraph:
    """B_m-shaped: more left vertices (words) than right (sequences),
    separate label spaces, edge-free vertices on both sides."""
    n_left, n_right = draw(st.integers(0, 20)), draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, max(n_left - 1, 0)), st.integers(0, n_right - 1)),
        max_size=60 if n_left else 0,
    ))
    return BipartiteGraph(
        n_left, n_right, edges,
        left_labels=draw(st.permutations(range(5000, 5000 + n_left))),
        right_labels=draw(st.permutations(range(n_right))),
    )


@given(
    graph=st.one_of(similarity_graphs(), word_graphs()),
    params=params,
    min_size=st.integers(0, 4),
    expand_b=st.booleans(),
)
@example(  # no edges at all: both tuple files are empty
    graph=BipartiteGraph(4, 3, []),
    params=ShingleParams(s1=1, c1=3, s2=1, c2=3),
    min_size=1,
    expand_b=True,
)
@settings(max_examples=300, deadline=None)
def test_columns_equal_scalar_loop(graph, params, min_size, expand_b):
    got = shingle_dense_subgraphs(graph, params, min_size=min_size, expand_b=expand_b)
    want = scalar_shingle_dense_subgraphs(
        graph, params, min_size=min_size, expand_b=expand_b
    )
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert all(
        type(x) is int
        for sg in got.subgraphs
        for x in sg.left + sg.right + sg.right_sampled
    )

