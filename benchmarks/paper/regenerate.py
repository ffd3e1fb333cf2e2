#!/usr/bin/env python3
"""Regenerate the paper-versus-measured tables of EXPERIMENTS.md.

One function per section of the paper's evaluation (Section V: Table I,
Table II, Figures 5-7, the work-reduction and quality paragraphs) plus
the Section II baseline, the ablations and the Section VI distributed
Shingle.  Each computes its numbers on the 1:100 analogues of
:mod:`inputs`, asserts the *shape* the paper reports (who wins, scaling
trends, crossovers, distribution skew — absolute numbers are not
comparable at this scale) and returns the Markdown lines of its block;
the blocks live in EXPERIMENTS.md between ``<!-- paper:NAME -->`` and
``<!-- /paper:NAME -->`` and the prose around them is hand-written.

    python3 benchmarks/paper/regenerate.py            # rewrite the blocks
    python3 benchmarks/paper/regenerate.py --check    # exit 1 + diff on drift
    python3 benchmarks/paper/regenerate.py --timed    # the two wall-clock blocks

Every section but the two ``--timed`` ones is seed-pinned and runs on
virtual time or counts, so ``--check`` (CI's ``paper-identity`` job,
41–49 s on 2 vCPUs) fails on any change to a committed number.
Section names after the flags restrict a run to those blocks.  Each
block's seconds go to stderr as it finishes (a block's first use of an
analogue pays for the work later blocks reuse).
"""

from __future__ import annotations

import argparse
import difflib
import re
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.align.batch import align_columns
from repro.align.matrices import blosum62_scheme
from repro.align.predicates import overlaps
from repro.core.pipeline import ProteinFamilyPipeline
from repro.eval.metrics import compare_clusterings, pair_confusion, quality_scores
from repro.gos.baseline import GosConfig, gos_cluster
from repro.graph.bipartite import BipartiteGraph, duplicate_bipartite
from repro.graph.density import size_histogram
from repro.graph.unionfind import UnionFind
from repro.obs import read_telemetry
from repro.parallel.machine import XEON_CLUSTER
from repro.parallel.simulator import VirtualCluster
from repro.runtime import SerialBackend, runtime_info
from repro.runtime.phases import (
    backend_component_detection,
    backend_redundancy_removal,
)
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.shingle.algorithm import ShingleParams, shingle_dense_subgraphs
from repro.shingle.parallel import parallel_shingle_dense_subgraphs
from repro.shingle.postprocess import global_similarity_output, jaccard_ab
from repro.suffix.matches import MaximalMatchFinder
from repro.util.rng import make_rng
from repro.util.timing import monotonic_now

from inputs import (
    BENCH_SHINGLE,
    PAPER_PROCESSORS,
    PROCESSOR_SWEEP,
    SIZE_SWEEP,
    Analogue,
    paper_analogue,
)

EXPERIMENTS = ROOT / "EXPERIMENTS.md"


def table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return lines + ["| " + " | ".join(row) + " |" for row in rows]


# -- Section V ---------------------------------------------------------------


def table1(inputs: Analogue) -> list[str]:
    """Table I — qualitative assessment on the 22K and 160K analogues."""
    row160, row22 = inputs.result_160k.table1(), inputs.result_22k.table1()

    # Most sequences survive redundancy removal (paper: 87% / 96%).
    assert 0.7 <= row160.n_nonredundant / row160.n_input <= 1.0
    # Dense subgraphs are found and are high-density (paper: 76-78%).
    assert row160.n_dense_subgraphs >= 5
    assert row160.mean_density >= 0.6
    assert row22.mean_density >= 0.6
    # The 22K analogue is dominated by one large cluster whose biggest
    # subfamily is the largest DS.
    assert row22.largest_ds >= 0.15 * row22.n_nonredundant
    # DS count >= component count: the shingle pass fragments components.
    assert row160.n_dense_subgraphs >= row160.n_components

    def ours(label, r):
        return [f'ours "{label}"', f"{r.n_input:,d}", f"{r.n_nonredundant:,d}",
                f"{r.n_components:,d}", f"{r.n_dense_subgraphs:,d}",
                f"{r.n_sequences_in_ds:,d}", f"{r.mean_degree:.1f}",
                f"{r.mean_density:.0%}", f"{r.largest_ds:,d}"]

    return table(
        ["", "#Input", "#NR", "#CC", "#DS", "#Seq in DS", "Mean degree",
         "Mean density", "Largest DS"],
        [["paper 160K", "160,000", "138,633", "1,861", "850", "66,083", "26", "76%", "13,263"],
         ours("160k", row160),
         ["paper 22K", "22,186", "21,348", "1", "134", "11,524", "20", "78%", "6,828"],
         ours("22k", row22)],
    )


def table2(inputs: Analogue) -> list[str]:
    """Table II — RR and CCD run-times for the 80K input at p = 32..512.

    Shape: RR scales near-linearly throughout; CCD scales only to ~128
    and then *degrades* (the master's serial pair filtering starves the
    workers).
    """
    cells = [inputs.rr_ccd("80k", p) for p in PROCESSOR_SWEEP]
    for cell in cells:
        assert cell[3] == cells[0][3]  # p-invariance of what RR keeps
    rr_times = [c[0] for c in cells]
    ccd_times = [c[1] for c in cells]

    # RR keeps improving with more processors (paper: monotone decrease).
    assert rr_times == sorted(rr_times, reverse=True)
    # RR speedup 32 -> 512 is substantial (paper: ~7.9x).
    rr_gain = rr_times[0] / rr_times[-1]
    assert rr_gain > 3.0
    # CCD scales far worse than RR: its 32->512 improvement is a small
    # fraction of RR's (paper: 1.6x vs 7.9x, with outright degradation
    # from 128 to 512).
    ccd_gain = ccd_times[0] / ccd_times[-1]
    assert ccd_gain < 0.6 * rr_gain
    # The filter column is the share of streamed promising pairs CCD
    # never aligned.  The simulated master admits nearly every pair
    # before a verdict comes back, so at every p it aligns every distinct
    # pair and filters repeat sightings only: the share is how often a
    # pair is sighted again, not transitive-closure filtering.
    assert all(c[2] > 0.5 for c in cells)

    paper = {16: ("17,476", "1,068"), 32: ("10,296", "777"),
             64: ("4,560", "528"), 256: ("2,207", "670")}
    return table(
        ["p (paper)", "RR paper (s)", "RR ours (sim s)", "CCD paper (s)",
         "CCD ours (sim s)", "CCD filter"],
        [[f"{p} ({PAPER_PROCESSORS[p]})", paper[p][0], f"{rr:.4f}", paper[p][1],
          f"{ccd:.4f}", f"{filtered:.2%}"]
         for p, (rr, ccd, filtered, _) in zip(PROCESSOR_SWEEP, cells)],
    ) + ["", f"Over the 16× processor range RR gains {rr_gain:.1f}× (paper 7.9×) "
             f"and CCD {ccd_gain:.1f}× (paper 1.6×)."]


def fig5(inputs: Analogue) -> list[str]:
    """Figure 5 — distribution of dense-subgraph sizes (22K data set):
    most fall in the smallest buckets, the largest is off-chart."""
    result = inputs.result_22k
    sizes = result.dense.sizes()

    assert len(sizes) >= 1
    # Skew: the largest subgraph dwarfs the median, as in the paper where
    # the 6,828-sequence cluster coexists with mostly-small subgraphs.
    if len(sizes) >= 3:
        assert sizes[0] >= 3 * sizes[len(sizes) // 2]
    # The largest DS holds a sizeable fraction of the single-cluster input
    # (paper: 6,828 of 21,348 ~ 32%; our subfamily analogue: >= 15%).
    n_nr = result.redundancy.n_nonredundant
    assert max(sizes) >= 0.15 * n_nr

    hist = size_histogram([s for s in sizes if s < max(sizes)], bucket=5)
    width = max(hist.values(), default=1)
    return ["```"] + [
        f"{bucket:>6s} {count:>4d} {'#' * int(40 * count / width)}"
        for bucket, count in hist.items()
    ] + [
        f"largest DS: {max(sizes)} of {n_nr} non-redundant sequences "
        f"({max(sizes) / n_nr:.0%}; paper 6,828 of 21,348 = 32%), off the chart",
        "```",
    ]


def _rr_ccd_seconds(inputs: Analogue, label: str, p: int) -> float:
    rr_seconds, ccd_seconds, _, _ = inputs.rr_ccd(label, p)
    return rr_seconds + ccd_seconds


def fig6(inputs: Analogue) -> list[str]:
    """Figure 6 — RR+CCD run-time versus (a) processors and (b) input size."""
    grid = {(label, p): _rr_ccd_seconds(inputs, label, p)
            for label in SIZE_SWEEP for p in PROCESSOR_SWEEP}

    # (a) big inputs gain a lot from more processors; tiny inputs may
    # flatten (or mildly degrade from log-p overheads), as in the paper's
    # flattening small-n curves.
    for label in SIZE_SWEEP:
        times = [grid[label, p] for p in PROCESSOR_SWEEP]
        assert times[-1] <= 1.3 * times[0]
    for label in ("80k", "160k"):
        series = [grid[label, p] for p in PROCESSOR_SWEEP]
        assert series[0] / series[-1] > 2.0
    # (b) run-time grows with input size at every processor count, and
    # superlinearly from the 10k to the 160k analogue at fixed p=32
    # (the paper's asymptotic-worst-case-quadratic remark).
    for p in PROCESSOR_SWEEP:
        times = [grid[label, p] for label in SIZE_SWEEP]
        assert times == sorted(times)
    p0 = PROCESSOR_SWEEP[0]
    growth = grid["160k", p0] / grid["10k", p0]
    assert growth > 16, f"expected superlinear growth over a 16x input, got {growth:.1f}x"

    return table(
        ["n \\ p"] + [str(p) for p in PROCESSOR_SWEEP],
        [[label] + [f"{grid[label, p]:.2f}" for p in PROCESSOR_SWEEP] for label in SIZE_SWEEP],
    ) + ["", f"Growth over the 16× input range at p = {p0}: {growth:.0f}×."]


def fig7a(inputs: Analogue) -> list[str]:
    """Figure 7a — speedup of RR+CCD relative to 32 processors: closer to
    linear for larger inputs, flattening early for small ones."""
    labels = list(SIZE_SWEEP)[:-1]  # the paper plots 10k..80k
    base, top = PROCESSOR_SWEEP[0], PROCESSOR_SWEEP[-1]
    speedups = {
        (label, p): _rr_ccd_seconds(inputs, label, base) / _rr_ccd_seconds(inputs, label, p)
        for label in labels for p in PROCESSOR_SWEEP
    }

    # Speedups are monotone in p for the larger inputs; tiny inputs may
    # flatten early (the paper's flattening small-n curves).
    for label in ("40k", "80k"):
        series = [speedups[label, p] for p in PROCESSOR_SWEEP]
        assert series[0] == 1.0
        assert all(b >= 0.95 * a for a, b in zip(series, series[1:]))
    for label in labels:
        assert min(speedups[label, p] for p in PROCESSOR_SWEEP) > 0.3  # never catastrophic
    # Larger inputs scale better (paper: curves closer to linear for larger n).
    assert speedups["80k", top] > speedups["10k", top]
    # Sublinear at the top end, as observed on BG/L (6.7 vs ideal 16).
    ideal = top // base
    assert speedups["80k", top] < ideal

    return table(
        ["n \\ p"] + [str(p) for p in PROCESSOR_SWEEP[:-1]] + [f"{top} (ideal {ideal})"],
        [[label] + [f"{speedups[label, p]:.2f}" for p in PROCESSOR_SWEEP] for label in labels],
    )


def work_reduction(inputs: Analogue) -> list[str]:
    """Section V work reduction: promising pairs versus pairs aligned
    versus all-versus-all, on the 40K analogue (paper: 168M / 7M / 800M)."""
    sequences = inputs.scaling_subset("40k")
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        rr = backend_redundancy_removal(sequences, backend, None, psi=10)
        ccd = backend_component_detection(
            sequences, rr.kept, backend, None, psi=10
        )
    n = len(rr.kept)
    all_pairs = n * (n - 1) // 2
    vs_all = 1.0 - ccd.n_alignments / all_pairs

    # The exact-match filter prunes most of the quadratic pair space...
    assert ccd.n_promising_pairs < 0.5 * all_pairs
    # ...and the clustering filter prunes most of what remains.
    assert ccd.work_reduction > 0.8
    # End-to-end: versus all-versus-all the reduction is ~99%.
    assert vs_all > 0.95

    return table(
        ["quantity", "paper (40K)", 'ours ("40k")'],
        [["non-redundant sequences", "", f"{n:,d}"],
         ["all-versus-all alignments", "~800M", f"{all_pairs:,d}"],
         ["promising pairs generated", "168M", f"{ccd.n_promising_pairs:,d}"],
         ["pairs actually aligned", "7M", f"{ccd.n_alignments:,d}"],
         ["reduction vs all-versus-all", "~99%", f"{vs_all:.2%}"],
         ["filtered by transitive closure", ">99.9%", f"{ccd.work_reduction:.2%}"]],
    )


def quality(inputs: Analogue) -> list[str]:
    """Section V quality comparison — PR / SE / OQ / CC against the
    benchmark clustering (the planted families play the GOS clusters'
    role).  Shape: PR >> SE, the dense subgraphs fragment the benchmark."""
    data = inputs.metagenome_160k
    families = inputs.result_160k.family_ids(data.sequences)
    truth = list(data.truth_clusters().values())
    scores = quality_scores(pair_confusion(families, truth))

    # The paper's signature: precision is high...
    assert scores.precision > 0.9
    # ...sensitivity lags because our sequence-similarity-only DS
    # fragments benchmark clusters...
    assert scores.sensitivity <= scores.precision
    # ...and OQ is bounded by both.
    assert scores.overlap_quality <= min(scores.precision, scores.sensitivity)
    assert len(families) >= 1

    paper = {"PR": "95.75%", "SE": "56.89%", "OQ": "55.49%", "CC": "73.04%"}
    return table(
        ["metric", "paper (vs GOS)", "ours (vs truth)"],
        [[name, paper[name], f"{value:.2%}"] for name, value in scores.as_dict().items()]
        + [["Test clusters vs benchmark", "850 vs 221", f"{len(families)} vs {len(truth)}"]],
    )


# -- Beside the paper's evaluation -------------------------------------------


def gos_baseline(inputs: Analogue) -> list[str]:
    """Section II — the pipeline versus the GOS approach (all-versus-all
    alignment, the whole graph on one node) on one data set."""
    # Tight families: the GOS 70% edge cutoff needs high identity.
    data = generate_metagenome(MetagenomeSpec(
        n_families=12, mean_family_size=14, mean_length=120, identity_low=0.82,
        identity_high=0.95, redundant_fraction=0.08, noise_fraction=0.05, seed=777,
    ))
    gos = gos_cluster(data.sequences, GosConfig())
    ours = ProteinFamilyPipeline(inputs.config).run(data.sequences)
    truth = list(data.truth_clusters().values())
    ids = data.sequences.ids()
    our_alignments = (ours.redundancy.n_alignments + ours.clustering.n_alignments
                      + ours.graphs.n_alignments)
    our_peak_graph = max((g.memory_bytes() for g in ours.graphs.graphs), default=0)
    gos_scores = compare_clusterings([[ids[i] for i in c] for c in gos.clusters], truth)
    our_scores = compare_clusterings(ours.family_ids(data.sequences), truth)

    # Who wins, as the paper claims: the filtered pipeline does far fewer
    # alignments than the all-versus-all baseline...
    assert our_alignments < 0.7 * gos.n_alignments
    # ...while holding only per-component graphs instead of the full
    # Theta(n^2)-flavoured structure on a single node.
    assert our_peak_graph <= 4 * gos.graph_bytes  # same order at this tiny scale
    # ...at comparable (high) precision.
    assert our_scores.precision > 0.9
    assert gos_scores.precision > 0.9

    return table(
        [f"quantity (n = {len(data.sequences)})", "GOS baseline", "our pipeline"],
        [["alignments computed", f"{gos.n_alignments:,d}", f"{our_alignments:,d}"],
         ["graph bytes on one node", f"{gos.graph_bytes:,d}", f"{our_peak_graph:,d}"],
         ["clusters reported", str(len(gos.clusters)), str(len(ours.families))],
         ["PR", f"{gos_scores.precision:.2%}", f"{our_scores.precision:.2%}"],
         ["SE", f"{gos_scores.sensitivity:.2%}", f"{our_scores.sensitivity:.2%}"]],
    )


def _ccd_reference(sequences, variants):
    """CCD's core loop once per ``(order, use_filter)`` of ``variants``:
    ``(groups, pairs aligned)`` each.  Every distinct promising pair's
    Definition 2 verdict comes from one local ``align_columns`` call and
    one column ``overlaps``."""
    encoded = [r.encoded for r in sequences]
    matches = list(MaximalMatchFinder(encoded, min_length=10).matches())
    pairs = list(dict.fromkeys(m.pair for m in matches))
    ia, ib = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    store = EncodedStore.from_sequences(encoded)
    table = align_columns(store, ia, ib, scheme=blosum62_scheme(), mode="local")
    ok = overlaps(table, store.lengths[ia], store.lengths[ib], 0.30, 0.80)
    passes = dict(zip(pairs, ok.tolist()))
    out = []
    for order, use_filter in variants:
        stream = matches
        if order == "arbitrary":
            # Positional order (by pair id) instead of decreasing length.
            stream = sorted(matches, key=lambda m: (m.seq_a, m.seq_b, m.pos_a, m.pos_b))
        uf = UnionFind(len(sequences))
        tested = set()
        for m in stream:
            pair = m.pair
            if pair in tested or (use_filter and uf.same(*pair)):
                continue
            tested.add(pair)
            if passes[pair]:
                uf.union(*pair)
        groups = sorted((sorted(g) for g in uf.groups().values()), key=lambda g: (-len(g), g[0]))
        out.append((groups, len(tested)))
    return out


def _largest_22k_graph(inputs: Analogue):
    return max(inputs.result_22k.graphs.graphs, key=lambda g: g.n_edges)


def ablations(inputs: Analogue) -> list[str]:
    """The design choices DESIGN.md calls out: psi, the transitive-closure
    filter, longest-match-first pair order, tau and the expanded B."""

    # 1. psi: work versus recall of the exact-match filter.
    sequences = inputs.scaling_subset("20k")
    psi_rows = []
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        for psi in (8, 10, 14, 20):
            rr = backend_redundancy_removal(sequences, backend, None, psi=psi)
            psi_rows.append((psi, rr.n_promising_pairs, len(rr.redundant)))
    pairs = [r[1] for r in psi_rows]
    # Larger psi => strictly less filter work.
    assert pairs == sorted(pairs, reverse=True)
    # Recall cost: psi=20 finds no more redundancy than psi=8.
    assert psi_rows[-1][2] <= psi_rows[0][2]

    # 2./3. Transitive-closure filter on/off, longest-first versus arbitrary order.
    sequences = inputs.scaling_subset("40k")
    (filt, filt_n), (nofilt, nofilt_n), (arb, arb_n) = _ccd_reference(
        sequences, [("decreasing", True), ("decreasing", False), ("arbitrary", True)]
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

    # The reference loop above must agree with the production phase.
    sequences = inputs.scaling_subset("10k")
    ((groups, _),) = _ccd_reference(sequences, [("decreasing", True)])
    backend = SerialBackend()
    with backend.session(sequences, blosum62_scheme()):
        ccd = backend_component_detection(
            sequences, list(range(len(sequences))), backend, None, psi=10
        )
    assert [sorted(c) for c in ccd.components] == groups

    # 4. tau (the A ~= B post-test) and the B-expansion choice: sampled B
    # (expand_b=False) underestimates the right side of big subgraphs, so
    # expanded B is what makes the tau test usable.
    graph = _largest_22k_graph(inputs)
    expanded = shingle_dense_subgraphs(graph, BENCH_SHINGLE, min_size=1, expand_b=True)
    sampled = shingle_dense_subgraphs(graph, BENCH_SHINGLE, min_size=1, expand_b=False)
    kept_at = {tau: len(global_similarity_output(expanded.subgraphs, tau=tau, min_size=5))
               for tau in (0.2, 0.5, 0.8)}
    mean_e = statistics.fmean(jaccard_ab(sg) for sg in expanded.subgraphs if sg.size >= 5)
    mean_s = statistics.fmean(jaccard_ab(sg) for sg in sampled.subgraphs if sg.size >= 5)
    # tau is monotone: stricter cutoffs keep fewer subgraphs.
    assert kept_at[0.2] >= kept_at[0.5] >= kept_at[0.8]
    # For B_d (A ~ B by construction) the expanded-B Jaccard is high...
    assert mean_e > 0.6
    # ...and never below the sampled variant, which undersamples B.
    assert mean_e >= mean_s - 1e-9
    # Adversarial case: a lopsided web-community shape (a vertex set A
    # pointing at a disjoint set B) is exactly what the paper's added
    # A ~= B test exists to reject.
    lopsided = BipartiteGraph(16, 16, [(a, b) for a in range(8) for b in range(8, 16)])
    res = shingle_dense_subgraphs(
        lopsided, ShingleParams(s1=3, c1=40, s2=2, c2=15, seed=2), min_size=1
    )
    lopsided_kept = global_similarity_output(res.subgraphs, tau=0.5, min_size=5)
    assert lopsided_kept == []  # rejected, as designed

    return (
        table(['ψ (RR, "20k")', "promising pairs", "redundant found"],
              [[str(psi), f"{n:,d}", str(red)] for psi, n, red in psi_rows])
        + [""]
        + table(['CCD on "40k"', "alignments"],
                [["longest match first + transitive-closure filter", f"{filt_n:,d}"],
                 ["longest match first, no filter", f"{nofilt_n:,d}"],
                 ["arbitrary order + filter", f"{arb_n:,d}"]])
        + ["", f"The three clusterings are identical; the filter saves "
               f"{1 - filt_n / nofilt_n:.0%} of the alignments.", ""]
        + table(['τ (largest "22k" component)', "dense subgraphs kept"],
                [[f"{tau:.1f}", str(n)] for tau, n in kept_at.items()])
        + ["", f"Mean |A∩B|/|A∪B|: expanded B {mean_e:.2f}, sampled B {mean_s:.2f}; "
               f"a lopsided web-community subgraph survives τ = 0.5: {bool(lopsided_kept)}."]
    )


def parallel_shingle(inputs: Analogue) -> list[str]:
    """Section VI, measured: the distributed Shingle on the largest
    component of the 22k analogue — per-node tuple memory and simulated
    run-time fall with p, output bit-identical to the serial algorithm."""
    graph = _largest_22k_graph(inputs)
    serial = shingle_dense_subgraphs(graph, BENCH_SHINGLE, min_size=1)
    rows = []
    for p in (1, 2, 4, 8, 16):
        par, sim = parallel_shingle_dense_subgraphs(
            graph, VirtualCluster(p, XEON_CLUSTER), BENCH_SHINGLE, min_size=1
        )
        assert par.subgraphs == serial.subgraphs, f"output diverged at p={p}"
        rows.append((p, par.peak_tuple_bytes, sim.elapsed))
    peaks = [r[1] for r in rows]
    times = [r[2] for r in rows]

    # Memory per node falls monotonically with p...
    assert all(b <= a for a, b in zip(peaks, peaks[1:]))
    # ...substantially so across the sweep (the point of Section VI)...
    assert peaks[-1] < 0.5 * peaks[0]
    # ...and time falls as well until the shuffle overhead bites.
    assert min(times) < times[0]

    return [f"Largest 22k-analogue component: |Vl| = {graph.n_left}, "
            f"|E| = {graph.n_edges:,d}; {serial.n_tuples_pass1:,d} pass-I tuples.", ""
            ] + table(
        ["ranks", "peak tuple bytes / node", "simulated seconds"],
        [[str(p), f"{peak:,d}", f"{elapsed:.4f}"] for p, peak, elapsed in rows],
    )


# -- Wall-clock sections (--timed) -------------------------------------------


def _host() -> str:
    info = runtime_info()
    return (f"Host: {info['usable_cpus']} usable cores, Python {info['python']}, "
            f"NumPy {np.__version__} ({info['platform']}).")


def _planted_graph(n: int):
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


def fig7b(inputs: Analogue) -> list[str]:
    """Figure 7b — serial DSD run-time versus input size for (s, c) in
    {(5,100) .. (5,400)}: grows with size and, at fixed size, with c.
    Real wall-clock (the paper also ran DSD serially per graph); every
    point is the best of three, since adjacent points are compared and a
    single shot on a shared box drifts by 20-40%."""
    c_sweep, size_sweep, repeats = (100, 200, 300, 400), (200, 400, 800), 3
    grid = {}
    for n in size_sweep:
        graph = _planted_graph(n)
        for c in c_sweep:
            params = ShingleParams(s1=5, c1=c, s2=5, c2=max(c // 3, 1), seed=7)
            runs = []
            for _ in range(repeats):
                t0 = monotonic_now()
                result = shingle_dense_subgraphs(graph, params, min_size=5)
                runs.append(monotonic_now() - t0)
            if n == 400:
                assert result.subgraphs  # communities found
            grid[n, c] = min(runs)

    # Run-time grows with c at every size (paper's main Fig 7b claim) —
    # allow small timer noise with a 10% tolerance on adjacent points.
    for n in size_sweep:
        series = [grid[n, c] for c in c_sweep]
        assert series[-1] > series[0], f"c=400 not slower than c=100 at n={n}"
        for a, b in zip(series, series[1:]):
            assert b > 0.9 * a
    # Run-time grows with input size at fixed c.
    for c in c_sweep:
        assert grid[size_sweep[-1], c] > grid[size_sweep[0], c]

    return table(
        ["n \\ c"] + [str(c) for c in c_sweep],
        [[str(n)] + [f"{grid[n, c]:.3f}" for c in c_sweep] for n in size_sweep],
    ) + ["", f"Wall seconds, best of {repeats}. " + _host()]


def obs_overhead(inputs: Analogue) -> list[str]:
    """The instruments must not distort the runs: the four-phase pipeline
    on the "20k" input with instrumentation off (``observe=False``) and
    with the full stack on (recorder + telemetry sampler at 250 ms), five
    rounds each, interleaved so drift hits both arms equally.  The gated
    statistic is min-of-N — interference only ever adds time, so
    min-vs-min isolates the instruments' cost — and the gate is
    two-sided: a large negative "overhead" is the same measurement-noise
    failure as a large positive one."""
    max_overhead, rounds = 0.05, 5
    sequences = inputs.scaling_subset("20k")

    def run_once(**run_args) -> float:
        # A fresh pipeline per run: both arms do identical work.
        pipeline = ProteinFamilyPipeline(inputs.config)
        start = monotonic_now()
        pipeline.run(sequences, **run_args)
        return monotonic_now() - start

    bare, instrumented = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(rounds):
            bare.append(run_once(observe=False))
            instrumented.append(run_once(observe=True, telemetry_dir=f"{tmp}/run{i}"))
        # The sampler must actually have been on during the timed runs.
        _, samples, end = read_telemetry(f"{tmp}/run0")
        assert samples, "telemetry produced no samples"
        assert end is not None and end["status"] == "finished"
    overhead = min(instrumented) / min(bare) - 1.0
    assert abs(overhead) < max_overhead, (
        f"observability overhead {overhead:.1%} outside the "
        f"±{max_overhead:.0%} gate (negative = measurement noise)"
    )

    return table(
        [f"{len(sequences)} sequences, {rounds} rounds", "min (s)", "median (s)"],
        [["bare (`observe=False`)", f"{min(bare):.3f}", f"{statistics.median(bare):.3f}"],
         ["recorder + 250 ms sampler", f"{min(instrumented):.3f}",
          f"{statistics.median(instrumented):.3f}"]],
    ) + ["", f"Overhead (min vs min): {overhead:+.1%}, gate ±{max_overhead:.0%}. " + _host()]


SECTIONS = {
    fn.__name__: fn
    for fn in (table1, table2, fig5, fig6, fig7a, work_reduction, quality,
               gos_baseline, ablations, parallel_shingle)
}
TIMED = {fn.__name__: fn for fn in (fig7b, obs_overhead)}


def block_pattern(name: str) -> re.Pattern[str]:
    return re.compile(rf"(<!-- paper:{name} -->\n).*?(<!-- /paper:{name} -->)", re.S)


def main(argv: list[str] | None = None, path: Path = EXPERIMENTS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="render to memory; exit 1 with a diff if the file differs")
    mode.add_argument("--timed", action="store_true",
                      help="refresh the wall-clock blocks instead of the deterministic ones")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="restrict the run to these blocks")
    args = parser.parse_args(argv)
    pool = TIMED if args.timed else SECTIONS
    unknown = sorted(set(args.names) - set(pool))
    if unknown:
        parser.error(f"no such block: {', '.join(unknown)} (have: {', '.join(pool)})")

    committed = text = path.read_text(encoding="utf-8")
    for name in args.names or pool:
        start = monotonic_now()
        body = "\n".join(pool[name](paper_analogue()))
        # To stderr: a CI log records where the harness spends its time.
        print(f"{name}: {monotonic_now() - start:.1f} s", file=sys.stderr)
        text, found = block_pattern(name).subn(lambda m: f"{m[1]}{body}\n{m[2]}", text)
        if found != 1:
            parser.error(f"{path.name} has {found} `<!-- paper:{name} -->` blocks, expected 1")
    if not args.check:
        path.write_text(text, encoding="utf-8")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        committed.splitlines(keepends=True), text.splitlines(keepends=True),
        f"{path.name} (committed)", f"{path.name} (regenerated)",
    ))
    return int(text != committed)


if __name__ == "__main__":
    sys.exit(main())
