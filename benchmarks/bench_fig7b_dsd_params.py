"""Figure 7b — serial dense-subgraph-detection run-time versus input size
for (s, c) in {(5,100), (5,200), (5,300), (5,400)}.

Paper shape: run-time grows with input size and, at fixed size, grows
with c (more permutations => more shingles => more work).  This is the
one benchmark measured in *real* wall-clock (the paper also ran the DSD
phase serially per graph), via pytest-benchmark.  Every grid point is
the best of ``REPEATS`` runs — the shape assertions compare adjacent
points, and a single shot on a shared box drifts by 20-40% — and the
JSON records the host (usable cores, Python, NumPy) it was taken on.
"""

from __future__ import annotations

import platform

import numpy as np
import pytest

from repro.graph.bipartite import duplicate_bipartite
from repro.runtime import usable_cpu_count
from repro.shingle.algorithm import ShingleParams, shingle_dense_subgraphs
from repro.util.rng import make_rng
from repro.util.timing import monotonic_now

from workloads import print_banner, write_bench

C_SWEEP = (100, 200, 300, 400)
SIZE_SWEEP = (200, 400, 800)
REPEATS = 3


def planted_graph(n: int):
    """A component-like bipartite graph: a few planted communities plus
    sparse background edges — the structure the DSD phase receives."""
    rng = make_rng(77, "fig7b", n)
    edges = []
    block = max(n // 8, 10)
    for start in range(0, n - block + 1, block):
        members = range(start, start + block)
        for i in members:
            for j in members:
                if i < j and rng.random() < 0.6:
                    edges.append((i, j))
    for _ in range(n):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.append((min(i, j), max(i, j)))
    return duplicate_bipartite(n, edges)


@pytest.mark.parametrize("c", C_SWEEP)
def test_fig7b_runtime_vs_c(benchmark, c):
    graph = planted_graph(400)
    params = ShingleParams(s1=5, c1=c, s2=5, c2=max(c // 3, 1), seed=7)
    result = benchmark(shingle_dense_subgraphs, graph, params, min_size=5)
    assert result.subgraphs  # communities found


def test_fig7b_series(benchmark):
    """Print the full (size, c) grid and assert the paper's shape."""
    grid = {}
    def sweep():
        for n in SIZE_SWEEP:
            graph = planted_graph(n)
            for c in C_SWEEP:
                params = ShingleParams(s1=5, c1=c, s2=5, c2=max(c // 3, 1), seed=7)
                runs = []
                for _ in range(REPEATS):
                    t0 = monotonic_now()
                    shingle_dense_subgraphs(graph, params, min_size=5)
                    runs.append(monotonic_now() - t0)
                grid[(n, c)] = min(runs)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_banner(
        f"Figure 7b analogue — serial DSD wall seconds (best of {REPEATS}) "
        "vs size and (s, c)"
    )
    print(f"{'n':>6s}" + "".join(f"{('c=' + str(c)):>10s}" for c in C_SWEEP))
    for n in SIZE_SWEEP:
        print(f"{n:>6d}" + "".join(f"{grid[(n, c)]:>10.3f}" for c in C_SWEEP))

    write_bench(
        "fig7b_dsd_params",
        params={
            "sizes": list(SIZE_SWEEP), "c_sweep": list(C_SWEEP), "s": 5,
            "best_of": REPEATS,
            "cpu_count": usable_cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        metrics={
            f"n{n}/c{c}": round(seconds, 4)
            for (n, c), seconds in grid.items()
        },
    )

    # Run-time grows with c at every size (paper's main Fig 7b claim) —
    # allow small timer noise with a 10% tolerance on adjacent points.
    for n in SIZE_SWEEP:
        series = [grid[(n, c)] for c in C_SWEEP]
        assert series[-1] > series[0], f"c=400 not slower than c=100 at n={n}"
        for a, b in zip(series, series[1:]):
            assert b > 0.9 * a

    # Run-time grows with input size at fixed c.
    for c in C_SWEEP:
        assert grid[(SIZE_SWEEP[-1], c)] > grid[(SIZE_SWEEP[0], c)]
