"""Backend-driven pipeline phases: real execution, identical results.

Each function runs one phase of the pipeline by streaming the pairs its
:mod:`repro.pace` master admits through a
:class:`~repro.runtime.base.Backend` and sinking the verdicts back into
that master — the same master-side state the simulator's
``parallel_*`` drivers plug into their rank programs, so the filter, the
counters and the result are stated once.  On
:class:`~repro.runtime.serial.SerialBackend` this is the reference every
other mode is compared against.  Equal output under concurrency rests
on three invariants (see the module docstrings in
:mod:`repro.pace.redundancy`, :mod:`repro.pace.clustering`,
:mod:`repro.pace.bipartite_gen`):

* RR aligns a deterministic pair set and Definition 1 verdicts are
  per-pair, so absorption order is irrelevant;
* CCD's transitive-closure filter only drops already-intra-component
  pairs, so a *lagging* union–find (results absorbed asynchronously)
  can only align more pairs, never change the components;
* bipartite edges and dense subgraphs are canonically sorted before
  they feed the next stage.

Counters that describe *work done* (``n_filtered``, ``n_alignments``)
legitimately vary with backend concurrency, exactly as they vary with
processor count in the paper's Table II.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro import obs
from repro.align.predicates import (
    CONTAINMENT_COVERAGE,
    CONTAINMENT_SIMILARITY,
    OVERLAP_COVERAGE,
    OVERLAP_SIMILARITY,
)
from repro.graph.bipartite import wmer_bipartite
from repro.pace.bipartite_gen import BipartiteMaster, ComponentGraphs
from repro.pace.cache import AlignmentCache
from repro.pace.clustering import ClusteringMaster, ClusteringResult
from repro.pace.densesub import DsdResult, gather_subgraphs
from repro.pace.redundancy import RedundancyMaster, RedundancyResult
from repro.runtime.base import Backend, PairStream
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams


#: Pairs per RR submit_many chunk.  Sized for the batched containment
#: engine's sweet spot (the Myers sweep amortises across the pair axis);
#: RR has no master-side filter, so chunking costs no decision freshness.
RR_CHUNK = 512

#: Pairs per bipartite submit_many chunk (pure batched-DP path).
BIPARTITE_CHUNK = 128


def _stream_chunked(
    stream: PairStream,
    pairs: Iterable[tuple[int, int]],
    chunk_size: int,
    absorb: Callable[[int, int, object], None],
) -> None:
    """Submit ``pairs`` (global indices) in chunks of ``chunk_size``,
    absorbing results as they complete and draining at the end."""
    chunk: list[tuple[int, int]] = []
    for pair in pairs:
        chunk.append(pair)
        if len(chunk) >= chunk_size:
            stream.submit_many(chunk)
            chunk = []
            for i, j, result in stream.ready():
                absorb(i, j, result)
    if chunk:
        stream.submit_many(chunk)
    for i, j, result in stream.drain():
        absorb(i, j, result)


def backend_redundancy_removal(
    sequences: SequenceSet,
    backend: Backend,
    cache: AlignmentCache,
    *,
    psi: int = 10,
    similarity: float = CONTAINMENT_SIMILARITY,
    coverage: float = CONTAINMENT_COVERAGE,
    max_pairs_per_node: int | None = None,
) -> RedundancyResult:
    """RR phase on a backend: all unique promising pairs are submitted in
    chunks to the containment stream and Definition 1 verdicts absorbed
    in completion order.

    The stream yields ``(identity, coverage_i, coverage_j)`` statistics
    rather than Alignments, so backends may answer pairs through the
    batched engine's alignment-free fast paths; the scientific counters
    (``rr.pairs``/``rr.alignments``) still count every pair whose
    Definition 1 verdict was evaluated, regardless of compute route.
    """
    master = RedundancyMaster(
        sequences,
        psi=psi,
        similarity=similarity,
        coverage=coverage,
        max_pairs_per_node=max_pairs_per_node,
    )
    with backend.phase("redundancy"):
        _stream_chunked(
            backend.containment_stream(
                cache, similarity=similarity, coverage=coverage
            ),
            (m.pair for m in master.finder.matches() if master.admit(m.pair)),
            RR_CHUNK,
            master.absorb,
        )
    return master.result()


def backend_component_detection(
    sequences: SequenceSet,
    kept: Sequence[int],
    backend: Backend,
    cache: AlignmentCache,
    *,
    psi: int = 10,
    similarity: float = OVERLAP_SIMILARITY,
    coverage: float = OVERLAP_COVERAGE,
    max_pairs_per_node: int | None = None,
    journal=None,
    replay_unions: Sequence[tuple[int, int]] | None = None,
) -> ClusteringResult:
    """CCD phase on a backend.

    The master filters each promising pair against the union–find
    *before* dispatch — pair by pair, so the filter sees every verdict
    that is already back — and unions passing alignments as results
    stream in.  Under a concurrent backend the filter lags by the batch
    in flight, so slightly more pairs get aligned than on the serial
    backend — the components are provably identical (see module
    docstring), only the work counters move, as in the paper.

    Checkpointing: when a :class:`~repro.core.checkpoint.CheckpointJournal`
    is passed, every union that actually merges two clusters is
    journaled (global indices).  On resume, ``replay_unions`` pre-seeds
    the union–find with those journaled merges before the pair stream
    re-runs — a head start for the transitive-closure filter, which can
    only skip *more* intra-component pairs, never change the final
    components.  The replayed merges themselves are not re-journaled
    (``uf.union`` returns False for them), so the journal never holds
    duplicates.
    """
    master = ClusteringMaster(
        sequences,
        kept,
        psi=psi,
        similarity=similarity,
        coverage=coverage,
        max_pairs_per_node=max_pairs_per_node,
    )
    local_of = {g: l for l, g in enumerate(kept)}
    for gi, gj in replay_unions or ():
        if gi in local_of and gj in local_of:
            master.uf.union(local_of[gi], local_of[gj])

    def absorb(gi: int, gj: int, aln) -> None:
        if (
            master.overlaps(gi, gj, aln)
            and master.union((local_of[gi], local_of[gj]))
            and journal is not None
        ):
            journal.ccd_union(gi, gj)

    with backend.phase("clustering"):
        stream = backend.alignment_stream("local", cache)
        for match in master.finder.matches():
            pair = match.pair
            if not master.admit(pair):
                continue
            stream.submit(kept[pair[0]], kept[pair[1]])
            for gi, gj, aln in stream.ready():
                absorb(gi, gj, aln)
        for gi, gj, aln in stream.drain():
            absorb(gi, gj, aln)
    return master.result()


def backend_generate_component_graphs(
    sequences: SequenceSet,
    components: Sequence[Sequence[int]],
    backend: Backend,
    cache: AlignmentCache,
    *,
    reduction: str = "global",
    psi: int = 10,
    edge_similarity: float = 0.40,
    edge_coverage: float = 0.80,
    w: int = 10,
    min_size: int = 5,
    max_pairs_per_node: int | None = None,
) -> ComponentGraphs:
    """Bipartite generation on a backend, one graph per qualifying
    component.

    ``reduction`` selects B_d ("global") or B_m ("domain").  Left/right
    labels of each graph carry global sequence indices (B_d both sides;
    B_m right side), so dense subgraphs can be reported in input terms.
    Components are independent; the global reduction aligns every unique
    intra-component promising pair (no clustering filter), the domain
    reduction is alignment-free and built on the master.
    """
    if reduction not in ("global", "domain"):
        raise ValueError(f"unknown reduction {reduction!r}")
    master = BipartiteMaster(
        sequences,
        components,
        psi=psi,
        edge_similarity=edge_similarity,
        edge_coverage=edge_coverage,
        min_size=min_size,
        max_pairs_per_node=max_pairs_per_node,
    )
    with backend.phase("bipartite"):
        if reduction == "domain":
            out = ComponentGraphs(components=[], graphs=[], reduction=reduction)
            for members in master.members:
                out.components.append(members)
                out.graphs.append(
                    wmer_bipartite(
                        [master.encoded[g] for g in members],
                        w=w,
                        min_sequences=2,
                        sequence_labels=members,
                    )
                )
                obs.count("bipartite.graphs")
            return out

        # Global index -> (component index, local index); components are
        # disjoint so the mapping is single-valued.
        position = {
            g: (ci, li)
            for ci, members in enumerate(master.members)
            for li, g in enumerate(members)
        }

        def admitted() -> Iterable[tuple[int, int]]:
            for ci, members in enumerate(master.members):
                finder = master.finder(ci)
                if finder is None:
                    continue
                for match in finder.matches():
                    if master.admit((ci, match.seq_a, match.seq_b)):
                        yield (members[match.seq_a], members[match.seq_b])

        def absorb(gi: int, gj: int, aln) -> None:
            if master.is_edge(gi, gj, aln):
                ci, li = position[gi]
                master.add_edge(ci, li, position[gj][1])

        _stream_chunked(
            backend.alignment_stream("local", cache),
            admitted(),
            BIPARTITE_CHUNK,
            absorb,
        )
        return master.result()


def backend_dense_subgraph_detection(
    component_graphs: ComponentGraphs,
    backend: Backend,
    *,
    params: ShingleParams | None = None,
    min_size: int = 5,
    tau: float = 0.5,
) -> DsdResult:
    """DSD phase on a backend: parallel map over component graphs."""
    if params is None:
        params = ShingleParams()
    with backend.phase("dense_subgraphs"):
        return gather_subgraphs(
            backend.map_components(
                component_graphs.graphs,
                component_graphs.reduction,
                params,
                min_size,
                tau,
            )
        )
