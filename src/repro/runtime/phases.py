"""Backend-driven pipeline phases: real execution, identical results.

Each function runs one phase of the pipeline by streaming the pairs its
:mod:`repro.pace` master admits through a
:class:`~repro.runtime.base.Backend` and sinking the verdicts back into
that master — the same master-side state the simulator's
``parallel_*`` drivers plug into their rank programs, so the filter, the
counters and the result are stated once.  On
:class:`~repro.runtime.serial.SerialBackend` this is the reference every
other mode is compared against.

Each master is built inside its phase span over the session's one
string index, :attr:`~repro.runtime.base.Backend.index` (RR whole, CCD
and B_d restricted), so index time is phase time.  The pair source is
the finder's *block* stream
(:meth:`~repro.suffix.matches.MaximalMatchFinder.match_blocks`), and
each master's one deciding filter, ``admit``, has a *sound block
prefilter* in front of it — the same shape as the Myers reject in front
of the DP: an array test over a whole block that drops only pairs
``admit`` would provably reject, so every counter and every submitted
pair is what the pair-by-pair loop over ``admit`` gives.  RR and
bipartite generation only deduplicate, so they keep each block's first
row per pair (a later row of the same pair is in ``_seen`` by then);
CCD keeps a label snapshot of the union–find and counts as filtered,
in bulk, every pair whose endpoints share a snapshot label — the
union–find only ever merges, so such a pair is co-clustered *now*
whatever has happened since the snapshot.  Whatever the prefilter lets
through is decided by ``admit``, pair by pair, against the live state.

Equal output under concurrency rests on three invariants (see the
module docstrings in :mod:`repro.pace.redundancy`,
:mod:`repro.pace.clustering`, :mod:`repro.pace.bipartite_gen`):

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

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

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
from repro.suffix.matches import MatchBlock


#: Pairs per RR submit_many chunk.  Sized for the batched containment
#: engine's sweet spot (the Myers sweep amortises across the pair axis);
#: RR has no master-side filter, so chunking costs no decision freshness.
RR_CHUNK = 512

#: Pairs per bipartite submit_many chunk (pure batched-DP path).
BIPARTITE_CHUNK = 128


#: CCD re-takes its label snapshot inside a block only while the rows
#: still to decide number at least 1/16 of the sequences: relabelling is
#: O(n) array work, and what it buys is one Python-level ``admit`` less
#: per row that a merge has closed since.  At scale (n far above a
#: block's rows) that is one snapshot per block.
RESNAPSHOT_ROWS_PER_LABEL = 16


def _traced_blocks(
    blocks: Iterator[MatchBlock], admitted: str
) -> Iterator[MatchBlock]:
    """``blocks``, with the master's share of a phase made visible: the
    work counters ``suffix.candidates`` / ``suffix.matches`` and one
    ``pairs.generate`` span per block over the time its generation took.
    The span is recorded when the consumer comes back for the next
    block, so it can also say how many of the block's pairs the master
    admitted — the growth of the counter named ``admitted``.  Phase time
    outside these spans and the alignment tasks is filtering."""
    recorder = obs.active()
    if recorder is None:
        yield from blocks
        return
    while True:
        start = recorder.now()
        block = next(blocks, None)
        if block is None:
            return
        end, before = recorder.now(), recorder.value(admitted)
        recorder.count("suffix.candidates", block.candidates)
        recorder.count("suffix.matches", len(block))
        yield block
        recorder.add_span(
            "pairs.generate", "master", start, end,
            phase=recorder.gauge_value("phase"),
            candidates=block.candidates,
            matches=len(block),
            admitted=int(recorder.value(admitted) - before),
        )


class _ClosureSnapshot:
    """CCD's block prefilter: a label snapshot of the master's
    union–find (:meth:`~repro.graph.unionfind.UnionFind.labels`), re-taken
    when ``merge_count`` has moved."""

    def __init__(self, master: ClusteringMaster):
        self.master = master
        self.labels = master.uf.labels()
        self.taken_at = master.uf.merge_count

    def undecided(self, block: MatchBlock) -> Iterator[tuple[int, int]]:
        """The pairs of ``block`` that ``admit`` has to decide, in
        stream order.  Every other pair has both endpoints under one
        snapshot label, i.e. ``admit`` would count it as streamed and
        filtered; that is done here for all of them at once.  The
        consumer decides (and may merge on) each yielded pair before
        asking for the next."""
        master, uf = self.master, self.master.uf
        seq_a, seq_b = block.seq_a, block.seq_b
        while len(seq_a):
            if uf.merge_count != self.taken_at:
                self.labels, self.taken_at = uf.labels(), uf.merge_count
            differ = self.labels[seq_a] != self.labels[seq_b]
            closed = len(seq_a) - int(np.count_nonzero(differ))
            if closed:
                master.n_pairs += closed
                obs.count("ccd.pairs", closed)
                obs.count("ccd.filtered", closed)
            seq_a, seq_b = seq_a[differ], seq_b[differ]
            done = 0
            for pair in zip(seq_a.tolist(), seq_b.tolist()):
                yield pair
                done += 1
                if (
                    uf.merge_count != self.taken_at
                    and (len(seq_a) - done) * RESNAPSHOT_ROWS_PER_LABEL >= len(uf)
                ):
                    break
            seq_a, seq_b = seq_a[done:], seq_b[done:]


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
    with backend.phase("redundancy"):
        master = RedundancyMaster(
            sequences,
            backend.index,
            psi=psi,
            similarity=similarity,
            coverage=coverage,
            max_pairs_per_node=max_pairs_per_node,
        )

        def admitted() -> Iterator[tuple[int, int]]:
            for block in _traced_blocks(master.finder.match_blocks(), "rr.pairs"):
                for pair in block.first_pairs():
                    if master.admit(pair):
                        yield pair

        _stream_chunked(
            backend.containment_stream(
                cache, similarity=similarity, coverage=coverage
            ),
            admitted(),
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
    *before* dispatch — a snapshot prefilter over each block of the
    stream (:class:`_ClosureSnapshot`), then pair by pair through
    ``admit``, so the filter sees every verdict that is already back —
    and unions passing alignments as results stream in.  Under a
    concurrent backend the filter lags by the batch in flight, so
    slightly more pairs get aligned than on the serial backend — the
    components are provably identical (see module docstring), only the
    work counters move, as in the paper.

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
    with backend.phase("clustering"):
        master = ClusteringMaster(
            sequences,
            kept,
            backend.index,
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

        stream = backend.alignment_stream("local", cache)
        snapshot = _ClosureSnapshot(master)
        for block in _traced_blocks(master.finder.match_blocks(), "ccd.alignments"):
            for pair in snapshot.undecided(block):
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
    with backend.phase("bipartite"):
        if reduction == "domain":
            # Alignment-free and pair-free: no master, no string index.
            out = ComponentGraphs(components=[], graphs=[], reduction=reduction)
            for members in (sorted(c) for c in components if len(c) >= min_size):
                out.components.append(members)
                out.graphs.append(
                    wmer_bipartite(
                        [sequences[g].encoded for g in members],
                        w=w,
                        min_sequences=2,
                        sequence_labels=members,
                    )
                )
                obs.count("bipartite.graphs")
            return out

        master = BipartiteMaster(
            sequences,
            components,
            backend.index,
            psi=psi,
            edge_similarity=edge_similarity,
            edge_coverage=edge_coverage,
            min_size=min_size,
            max_pairs_per_node=max_pairs_per_node,
        )
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
                for block in _traced_blocks(finder.match_blocks(), "bipartite.pairs"):
                    for a, b in block.first_pairs():
                        if master.admit((ci, a, b)):
                            yield (members[a], members[b])

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
