"""Ablations of the design choices DESIGN.md calls out.

1. psi (maximal-match cutoff): work versus recall of the exact-match
   filter — larger psi generates fewer promising pairs but can miss
   related sequences.
2. Transitive-closure filtering on/off: the >99.9%-elimination heuristic
   versus aligning every promising pair (same clusters, more work).
3. Decreasing-match-length pair order versus arbitrary order: longest
   matches first causes merges earlier, so more later pairs are filtered.
4. tau (the A ~= B cutoff) and expand_b on the reported subgraphs.
"""

from __future__ import annotations

from repro.align.matrices import blosum62_scheme
from repro.graph.unionfind import UnionFind
from repro.pace.clustering import _overlap_passes
from repro.runtime import SerialBackend
from repro.runtime.phases import (
    backend_component_detection,
    backend_redundancy_removal,
)
from repro.suffix.matches import MaximalMatchFinder

from workloads import print_banner, scaling_cache, scaling_subset, write_bench


def test_ablation_psi(benchmark):
    sequences = scaling_subset("20k")
    cache = scaling_cache()

    def sweep():
        rows = []
        backend = SerialBackend()
        with backend.session(sequences, blosum62_scheme()):
            for psi in (8, 10, 14, 20):
                rr = backend_redundancy_removal(sequences, backend, cache, psi=psi)
                rows.append((psi, rr.n_promising_pairs, len(rr.redundant)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_banner("Ablation: psi (RR phase, '20k' input)")
    print(f"{'psi':>5s} {'promising pairs':>16s} {'redundant found':>16s}")
    for psi, pairs, redundant in rows:
        print(f"{psi:>5d} {pairs:>16,d} {redundant:>16,d}")

    pairs = [r[1] for r in rows]
    # Larger psi => strictly less filter work.
    assert pairs == sorted(pairs, reverse=True)
    # Recall cost: psi=20 finds no more redundancy than psi=8.
    assert rows[-1][2] <= rows[0][2]


def _clusters_with_order(sequences, cache, order: str, use_filter: bool):
    """CCD core loop with configurable pair order and filter toggle."""
    encoded = [r.encoded for r in sequences]
    finder = MaximalMatchFinder(encoded, min_length=10)
    matches = list(finder.matches())
    if order == "arbitrary":
        # Positional order (by pair id) instead of decreasing length.
        matches.sort(key=lambda m: (m.seq_a, m.seq_b, m.pos_a, m.pos_b))
    uf = UnionFind(len(sequences))
    tested = set()
    aligned = 0
    for m in matches:
        pair = m.pair
        if pair in tested:
            continue
        if use_filter and uf.same(*pair):
            continue
        tested.add(pair)
        aln = cache.local(pair[0], pair[1])
        aligned += 1
        if _overlap_passes(aln, len(encoded[pair[0]]), len(encoded[pair[1]]), 0.30, 0.80):
            uf.union(*pair)
    groups = sorted(
        (sorted(g) for g in uf.groups().values()), key=lambda g: (-len(g), g[0])
    )
    return groups, aligned


def test_ablation_transitive_closure_and_order(benchmark):
    sequences = scaling_subset("40k")
    cache = scaling_cache()

    def run_all():
        with_filter, aligned_filtered = _clusters_with_order(
            sequences, cache, "decreasing", use_filter=True
        )
        without_filter, aligned_all = _clusters_with_order(
            sequences, cache, "decreasing", use_filter=False
        )
        arbitrary, aligned_arbitrary = _clusters_with_order(
            sequences, cache, "arbitrary", use_filter=True
        )
        return (
            (with_filter, aligned_filtered),
            (without_filter, aligned_all),
            (arbitrary, aligned_arbitrary),
        )

    (filt, filt_n), (nofilt, nofilt_n), (arb, arb_n) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    print_banner("Ablation: transitive-closure filter and pair order ('40k')")
    print(f"decreasing + filter:   {filt_n:>8,d} alignments")
    print(f"decreasing, no filter: {nofilt_n:>8,d} alignments")
    print(f"arbitrary + filter:    {arb_n:>8,d} alignments")
    write_bench(
        "ablations",
        params={"input": "40k", "psi": 10},
        metrics={
            "alignments_filtered": filt_n,
            "alignments_unfiltered": nofilt_n,
            "alignments_arbitrary_order": arb_n,
            "identical_clusters": filt == nofilt == arb,
        },
    )

    # The filter never changes the clustering (the invariance the
    # parallel phases rely on)...
    assert filt == nofilt == arb
    # ...but removes a large share of alignment work (the saving grows
    # with cluster density: >99.9% at paper scale)...
    assert filt_n < 0.7 * nofilt_n
    # ...and the longest-first order filters at least as well as an
    # arbitrary order (merges happen earlier).
    assert filt_n <= arb_n


def test_ablation_ccd_reference_consistency(benchmark):
    """The ablation harness core must agree with the production phase."""
    sequences = scaling_subset("10k")
    cache = scaling_cache()

    def run():
        groups, _ = _clusters_with_order(sequences, cache, "decreasing", use_filter=True)
        backend = SerialBackend()
        with backend.session(sequences, blosum62_scheme()):
            ccd = backend_component_detection(
                sequences, list(range(len(sequences))), backend, cache, psi=10
            )
        return groups, ccd

    groups, ccd = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [sorted(c) for c in ccd.components] == groups


def test_ablation_tau_and_expand_b(benchmark):
    """The A ~= B post-test (tau) and the B-expansion choice.

    Raising tau filters out lopsided subgraphs (web-community shapes that
    are not protein families); sampled-B (expand_b=False) underestimates
    the right side of big subgraphs, so expanded B is what makes the tau
    test usable — the repository's documented deviation from sampling.
    """
    from repro.shingle.algorithm import shingle_dense_subgraphs
    from repro.shingle.postprocess import global_similarity_output, jaccard_ab
    from workloads import BENCH_SHINGLE, pipeline_result_22k

    def run():
        graphs = pipeline_result_22k().graphs.graphs
        graph = max(graphs, key=lambda g: g.n_edges)
        expanded = shingle_dense_subgraphs(graph, BENCH_SHINGLE, min_size=1, expand_b=True)
        sampled = shingle_dense_subgraphs(graph, BENCH_SHINGLE, min_size=1, expand_b=False)
        return expanded, sampled

    expanded, sampled = benchmark.pedantic(run, rounds=1, iterations=1)

    counts = {
        tau: len(global_similarity_output(expanded.subgraphs, tau=tau, min_size=5))
        for tau in (0.2, 0.5, 0.8)
    }
    print_banner("Ablation: tau (A ~= B cutoff) and B expansion (22k component)")
    for tau, count in counts.items():
        print(f"tau={tau:.1f}: {count} dense subgraphs survive")
    jac_expanded = [jaccard_ab(sg) for sg in expanded.subgraphs if sg.size >= 5]
    jac_sampled = [jaccard_ab(sg) for sg in sampled.subgraphs if sg.size >= 5]
    mean_e = sum(jac_expanded) / len(jac_expanded)
    mean_s = sum(jac_sampled) / len(jac_sampled)
    print(f"mean |AnB|/|AuB|: expanded B = {mean_e:.2f}, sampled B = {mean_s:.2f}")

    # tau is monotone: stricter cutoffs keep fewer subgraphs.
    assert counts[0.2] >= counts[0.5] >= counts[0.8]
    # For B_d (A ~ B by construction) the expanded-B Jaccard is high...
    assert mean_e > 0.6
    # ...and never below the sampled variant, which undersamples B.
    assert mean_e >= mean_s - 1e-9

    # Adversarial case: a lopsided web-community shape (a vertex set A
    # pointing at a disjoint set B) is exactly what the paper's added
    # A ~= B test exists to reject.
    from repro.graph.bipartite import BipartiteGraph
    from repro.shingle.algorithm import ShingleParams

    hub_edges = [(a, b) for a in range(8) for b in range(8, 16)]
    lopsided = BipartiteGraph(16, 16, hub_edges)
    res = shingle_dense_subgraphs(
        lopsided, ShingleParams(s1=3, c1=40, s2=2, c2=15, seed=2), min_size=1
    )
    kept = global_similarity_output(res.subgraphs, tau=0.5, min_size=5)
    print(f"lopsided web-community subgraph survives tau=0.5: {bool(kept)}")
    assert kept == []  # rejected, as designed
