"""The column passes of ``repro.shingle.algorithm`` against the loop they
replaced (``tests/scalar_shingle.py``): every ``DenseSubgraph`` and every
``ShingleResult`` field must be equal, on any bipartite graph — and the
draw kernel under them (``UniversalHashFamily.draw``) against the
definition, one set and one permutation at a time."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.shingle.algorithm import ShingleParams, pass_one, shingle_dense_subgraphs
from repro.util import hashing
from repro.util.hashing import UniversalHashFamily, hash_rows
from tests.scalar_shingle import (
    min_sample,
    scalar_samples,
    scalar_shingle_dense_subgraphs,
)

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
    return duplicate_bipartite(n, edges, labels=labels)


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


# --------------------------------------------------------------------------
# Shapes the hypothesis graphs (n <= 20, c <= 12: always one slab) cannot
# reach.  PAPER is the fine-tuned setting; at c1 = 300 a slab holds
# 32 Ki / 300 = 109 set elements.
PAPER = ShingleParams(s1=5, c1=300, s2=5, c2=100, seed=2008)


def clique(n: int, *, without=()) -> BipartiteGraph:
    missing = set(without)
    return duplicate_bipartite(
        n, [(i, j) for i in range(n) for j in range(i) if (j, i) not in missing]
    )


def random_sets(n_left: int, n_right: int, degree, seed: int) -> BipartiteGraph:
    """Left vertex ``v`` links to a random ``degree(v)``-subset of the right."""
    rng = np.random.default_rng(seed)
    return BipartiteGraph(n_left, n_right, [
        (v, int(u))
        for v in range(n_left)
        for u in rng.choice(n_right, size=degree(v), replace=False)
    ])


SHAPES = {
    # Every Gamma is the same set, and so is every shingle's vertex run.
    "clique": (clique(12), ShingleParams(s1=5, c1=40, s2=5, c2=13)),
    # ... all but the few around the missing edges.
    "near-clique": (
        clique(14, without=[(0, 1), (2, 3), (2, 4)]),
        ShingleParams(s1=5, c1=40, s2=5, c2=13),
    ),
    # Sets of exactly s: each Gamma is its own single shingle, and the
    # 5 vertices of a clique are the whole run of that shingle.
    "exactly-s": (
        duplicate_bipartite(11, [(i, j) for i in range(5) for j in range(i)]
                            + [(i, j) for i in range(5, 11) for j in range(5, i)]),
        PAPER,
    ),
    # 40 distinct sets of one size: four slabs of ten sets, no padding.
    "size-class-wider-than-a-slab": (
        random_sets(40, 30, lambda v: 10, seed=1), dataclasses.replace(PAPER, s2=2),
    ),
    # Ascending sizes 6..45 share slabs, padded to the widest member.
    "padded-slabs": (
        random_sets(40, 60, lambda v: 6 + v, seed=2), dataclasses.replace(PAPER, s2=2),
    ),
    # 130 * 300 hash elements: one set alone overflows the budget and
    # gets a slab to itself, after the narrow ones.
    "set-wider-than-a-slab": (
        random_sets(6, 140, lambda v: (7, 130, 9, 125, 130, 8)[v], seed=3),
        dataclasses.replace(PAPER, s2=1),
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_columns_equal_scalar_loop_beyond_one_slab(shape):
    graph, params = SHAPES[shape]
    got = shingle_dense_subgraphs(graph, params)
    assert dataclasses.asdict(got) == dataclasses.asdict(
        scalar_shingle_dense_subgraphs(graph, params)
    )
    assert got.n_tuples_pass1 and got.n_tuples_pass2


def draw_by_definition(family, sets, s):
    """``family.draw`` of the ragged family ``sets`` the way the loop the
    kernel replaced did it: set by set, ``min_sample`` by ``min_sample``,
    ``np.unique`` for the distinct shingles and their first samples."""
    owner, shingle = [np.empty(0, np.int64)], [np.empty(0, np.uint64)]
    elements = [np.empty((0, s), np.uint64)]
    for i, values in enumerate(sets):
        if len(values) >= s:
            rows = scalar_samples(family, np.array(values, dtype=np.uint64), s)
            uniq, first = np.unique(hash_rows(rows, seed=family.seed), return_index=True)
            owner.append(np.full(len(uniq), i, dtype=np.int64))
            shingle.append(uniq)
            elements.append(rows[first])
    return np.concatenate(owner), np.concatenate(shingle), np.concatenate(elements)


def assert_draw_is_definition(family, sets, s) -> int:
    """Hold ``family.draw`` to the definition, column for column, and
    return how many distinct sets it says it drew.  The images it says it
    computed are one per member and distinct element of the sets of more
    than ``s``: a set of exactly ``s`` is its own sample."""
    offsets = np.cumsum([0] + [len(values) for values in sets])
    values = np.array([x for values in sets for x in values], dtype=np.uint64)
    *columns, drawn, hashes = family.draw(offsets, values, s)
    for column, want in zip(columns, draw_by_definition(family, sets, s), strict=True):
        assert column.dtype == want.dtype
        assert np.array_equal(column, want)
    assert hashes == family.count * len({x for values in sets if len(values) > s for x in values})
    return drawn


element = st.integers(0, 2**64 - 1)
#: A small pool, so that whole sets repeat within a family.
pools = st.lists(st.lists(element, max_size=9, unique=True), min_size=1, max_size=6)


@given(
    pool=pools,
    picks=st.lists(st.integers(0, 5), max_size=14),
    s=st.integers(1, 4),
    c=st.integers(1, 12),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
def test_draw_equals_definition(pool, picks, s, c, seed):
    sets = [pool[i % len(pool)] for i in picks]
    drawn = assert_draw_is_definition(UniversalHashFamily(c, seed=seed), sets, s)
    assert drawn == len({tuple(values) for values in sets if len(values) >= s})


def test_fingerprint_collision_costs_draws_not_answers(monkeypatch):
    """With every fingerprint equal, each set is compared with the one
    before it among those of its size: a run of copies still shares a
    draw, a set that differs starts a draw of its own, no row changes."""
    monkeypatch.setattr(
        hashing, "_fingerprints",
        lambda offsets, x: np.zeros(len(offsets) - 1, dtype=np.uint64),
    )
    a, b, c = [1, 2, 3, 4], [1, 2, 3, 5], [9, 8, 7, 6]
    sets = [a, b, a, c, b, [5, 6], b, a, [1, 2, 3, 4, 5]]
    # Of the 4-sets, in order: a | b | a | c | b b | a, then the 5-set —
    # seven draws where true fingerprints need four.
    assert assert_draw_is_definition(UniversalHashFamily(9, seed=4), sets, 3) == 7
    graph, params = SHAPES["near-clique"]
    assert dataclasses.asdict(shingle_dense_subgraphs(graph, params)) == dataclasses.asdict(
        scalar_shingle_dense_subgraphs(graph, params)
    )


def unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finaliser: three xorshifts and two odd
    multiplications, each undone in turn."""
    mask = 2**64 - 1

    def unxorshift(z: int, shift: int) -> int:
        x = z
        for _ in range(64 // shift):
            x = z ^ (x >> shift)
        return x

    z = unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z = unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    return (unxorshift(z, 30) - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("member", [0, 3, 6])
def test_element_hashing_to_the_pad_value(member):
    """Padding reads 2^64 - 1 in the hash matrix.  An element whose image
    under some member *is* 2^64 - 1 must still be drawn when its set has
    exactly s elements, and must lose to every other element — never to
    a pad — when it has s + 1 and shares a slab with wider sets."""
    family = UniversalHashFamily(7, seed=11)
    key = unmix64(int(family.apply_all([0])[member][0]))
    worst = unmix64(2**64 - 1) ^ key
    assert int(family.apply_all([worst])[member][0]) == 2**64 - 1
    sets = [[worst, 1, 2], [worst, 1, 2, 3], [3, 1, 2, worst], list(range(10, 19))]
    assert assert_draw_is_definition(family, sets, 3) == 4
    assert min_sample(family, member, sets[1], 3) == (1, 2, 3)


@pytest.mark.parametrize("member", [0, 4])
def test_last_ranked_element_beside_padding(member):
    """The element last in a member's order ranks ``|U| - 1``, one below
    the pad.  In a set of ``s + 1`` padded to a wider one it loses to the
    ``s`` others; in a set of exactly ``s`` it is still drawn."""
    family = UniversalHashFamily(5, seed=13)
    pool = list(range(100, 112))
    last = pool[int(np.argmax(family.apply_all(pool)[member]))]
    others = [v for v in pool if v != last]
    sets = [[last] + others[:3], others, [last] + others[3:5], pool]
    assert assert_draw_is_definition(family, sets, 3) == 4
    assert last not in min_sample(family, member, sets[0], 3)


def test_values_at_the_top_of_uint64():
    """Ranks stand for positions in the sorted universe, never for values:
    sets at and next to 2^64 - 1, beside 0 and 2^63, draw as defined."""
    top = [2**64 - 1 - i for i in range(10)] + [0, 2**63]
    sets = [top[:7], top[3:], top[::2], top[:4], top[1:5], top[:7], top[-5:]]
    assert assert_draw_is_definition(UniversalHashFamily(9, seed=5), sets, 4) == 6


@pytest.mark.parametrize("sets", [[], [[]], [[1, 2], [3], [], [2**64 - 1, 1]]])
def test_nothing_to_draw(sets):
    """An empty family, or one whose every set is under ``s``: empty
    columns of the usual dtypes, no set drawn and no element hashed."""
    assert assert_draw_is_definition(UniversalHashFamily(4, seed=1), sets, 3) == 0


@pytest.mark.parametrize("n", [2**15 - 1, 2**15])
def test_rank_table_widens_past_int16(monkeypatch, n):
    """Ranks run to ``|U|`` (the pad), so the table is int16 up to
    ``|U| = 2^15 - 1`` and int32 from ``2^15``; either way the draw is
    the definition.  Two overlapping sets make the universe, each wider
    than a slab, beside one of ``s + 1`` that shares their elements."""
    tables = []
    ranks = hashing._ranks
    monkeypatch.setattr(hashing, "_ranks", lambda order: tables.append(ranks(order)) or tables[-1])
    rng = np.random.default_rng(n)
    pool = np.unique(rng.integers(0, 2**64 - 1, size=n + 64, dtype=np.uint64, endpoint=True))[:n]
    third = n // 3
    sets = [pool[: 2 * third + 1].tolist(), pool[third:].tolist(), pool[third : third + 4].tolist()]
    family = UniversalHashFamily(2, seed=9)
    assert assert_draw_is_definition(family, sets, 3) == 3
    assert [(table.dtype, table.shape) for table in tables] == [
        (np.dtype(np.int16 if n < 2**15 else np.int32), (family.count, n + 1))
    ]


def test_draw_memory_follows_the_universe_not_the_values():
    """B_m labels are arbitrary uint64.  A draw over a few hundred values
    spread over the top half of uint64 allocates in proportion to ``c *
    |U|`` and the slab budget, and exactly what the same draw allocates
    over the values ``0 .. |U| - 1``: nothing is indexed by value."""
    rng = np.random.default_rng(3)
    universe = np.unique(rng.integers(2**63, 2**64 - 1, size=400, dtype=np.uint64, endpoint=True))
    picks = [rng.choice(len(universe), size=int(k), replace=False) for k in rng.integers(4, 60, 50)]
    offsets = np.cumsum([0] + [len(p) for p in picks])
    family = UniversalHashFamily(50, seed=2)
    peaks = []
    for values in (universe, np.arange(len(universe), dtype=np.uint64)):
        x = values[np.concatenate(picks)]
        family.draw(offsets, x, 3)
        tracemalloc.start()
        family.draw(offsets, x, 3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < 64 * family.count * len(universe) + 64 * hashing.SLAB_BUDGET
    assert abs(peaks[0] - peaks[1]) < 0.05 * peaks[1]


def test_pass_one_keeps_the_callers_vertex_order():
    """``shingle/parallel.py`` hands a rank its LPT share, heaviest
    vertex first: rows come out in that order, then ascending shingle."""
    graph, params = SHAPES["padded-slabs"]
    order = [v for v in range(graph.n_left - 1, -1, -1) if v % 3]
    owner, shingle, elements = draw_by_definition(
        UniversalHashFamily(params.c1, seed=params.seed),
        [graph.gamma(v) for v in order], params.s1,
    )
    got = pass_one(graph, order, params)
    for column, want in zip(got, (shingle, np.array(order)[owner], elements), strict=True):
        assert column.dtype == want.dtype
        assert np.array_equal(column, want)


def test_equal_sets_share_one_draw():
    """The mechanism, counted: all 24 Gamma of a clique are one set, and
    every first-level shingle has the same run of 24 vertices."""
    recorder, graph = obs.Recorder(), clique(24)
    with obs.recording(recorder):
        result = shingle_dense_subgraphs(graph, PAPER)
    counters = recorder.counters()
    json.dumps(counters)  # telemetry serialises them: no NumPy scalars
    assert counters["dsd.sets"] == 24 + result.n_first_level_shingles
    assert counters["dsd.sets_drawn"] == 2
    # Each drawn set is its own universe: c images of each element.
    assert counters["dsd.hashes"] == PAPER.c1 * len(graph.gamma(0)) + PAPER.c2 * 24
    assert [sg.left for sg in result.subgraphs] == [tuple(range(24))]
