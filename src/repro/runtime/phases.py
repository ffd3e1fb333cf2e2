"""Backend-driven pipeline phases: real execution, identical results.

Each function runs one phase of the pipeline by streaming the pairs its
:mod:`repro.pace` master admits through a
:class:`~repro.runtime.base.Backend` and sinking the verdicts back into
that master — the same master-side state the simulator's
``parallel_*`` drivers plug into their rank programs, so the filter, the
counters and the result are stated once.  On
:class:`~repro.runtime.serial.SerialBackend` this is the reference every
other mode is compared against.

Each phase reads the session's one string index,
:attr:`~repro.runtime.base.Backend.index`, whole and inside its phase
span, so index time is phase time: RR's stream unmasked, CCD's with the
redundant sequences labelled -1 and B_d's labelled by component
(:class:`~repro.suffix.matches.MaximalMatchFinder`'s ``labels``).  The
pair source is the finder's *block* stream
(:meth:`~repro.suffix.matches.MaximalMatchFinder.match_blocks`), and
every pair travels as int64 index columns from there to the stream
(:meth:`~repro.runtime.base.PairStream.submit_columns`) and back.  The
RR and bipartite masters only deduplicate, and each admits a whole
block in one call against a bit map of the pairs seen
(:class:`~repro.pace.seen.SeenPairs`; one over the ``n`` sequences for
RR, a triangle per component over its local indices for bipartite), so
their admitted columns are what a set of seen pairs lets through row by
row.
CCD's one deciding filter, ``admit``, has a *sound block prefilter* in
front of it — the same shape as the Myers reject in front of the DP: it
sorts each block by a label snapshot of a union–find, in bulk, and
decides only the pairs whose endpoints the snapshot separates one by
one, against the live state — under speculation, so that the pairs it
admits are aligned a batch at a time
(:func:`backend_component_detection`).  Every counter and every
submitted pair is what the pair-by-pair loop over ``admit`` gives.

Equal output on every backend rests on three invariants (see the
module docstrings in :mod:`repro.pace.redundancy`,
:mod:`repro.pace.clustering`, :mod:`repro.pace.bipartite_gen`):

* RR aligns a deterministic pair set and Definition 1 verdicts are
  per-pair, so absorption order is irrelevant;
* CCD places every streamed pair where the pair-by-pair loop over
  ``admit`` would — it never needs a verdict before it is back, only a
  bound on the batch in flight — and absorbs each batch's verdicts in
  stream order, so components, ``ccd.*`` counters and journaled unions
  are that loop's whatever order a backend completes tasks in;
* bipartite edges and dense subgraphs are canonically sorted before
  they feed the next stage.

So the counters that describe *work done* (``n_filtered``,
``n_alignments``) are the same on every runtime backend too.  They vary
with processor count in the paper's Table II, and in the simulator that
reproduces it (:func:`repro.pace.clustering.parallel_component_detection`),
where the master filters against a union–find that lags its workers.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

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
from repro.pace.clustering import ClusteringMaster, ClusteringResult
from repro.pace.densesub import DsdResult, gather_subgraphs
from repro.pace.redundancy import RedundancyMaster, RedundancyResult
from repro.runtime.base import Backend
from repro.sequence.record import SequenceSet
from repro.shingle.algorithm import ShingleParams
from repro.suffix.matches import CANDIDATE_BUDGET, MatchBlock, MaximalMatchFinder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.checkpoint import CheckpointJournal


#: Pairs per RR submit_columns chunk.  Sized for the batched containment
#: engine's sweet spot (the Myers sweep amortises across the pair axis);
#: RR has no master-side filter, so chunking costs no decision freshness.
RR_CHUNK = 512

#: Pairs per batched local-DP submit: a bipartite ``submit_columns``
#: chunk and a CCD speculative batch alike.
LOCAL_CHUNK = 128


def _traced_blocks(
    blocks: Iterator[MatchBlock], admitted: str
) -> Iterator[MatchBlock]:
    """``blocks``, with the master's share of a phase made visible: the
    work counters ``suffix.candidates`` / ``suffix.matches`` and one
    ``pairs.generate`` span per block over the time its generation took.
    The span is recorded when the consumer has come back and the stream
    has answered for the next block, so it can also say how many pairs
    the master admitted over the block — the growth of the counter named
    ``admitted``, what a stream does as it ends included.  Phase time
    outside these spans and the alignment tasks is filtering."""
    recorder = obs.active()
    if recorder is None:
        yield from blocks
        return
    pending: tuple[float, float, int, int, float] | None = None
    while True:
        start = recorder.now()
        block = next(blocks, None)
        end = recorder.now()
        if pending is not None:
            was_start, was_end, candidates, matches, before = pending
            recorder.add_span(
                "pairs.generate", "master", was_start, was_end,
                phase=recorder.gauge_value("phase"),
                candidates=candidates,
                matches=matches,
                admitted=int(recorder.value(admitted) - before),
            )
        if block is None:
            return
        recorder.count("suffix.candidates", block.candidates)
        recorder.count("suffix.matches", len(block))
        pending = (start, end, block.candidates, len(block), recorder.value(admitted))
        yield block


def _column_chunks(
    columns: Iterable[tuple[np.ndarray, np.ndarray]], size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pair columns re-cut into chunks of ``size`` rows, in order; only
    the last may be shorter."""
    held_a = held_b = np.empty(0, dtype=np.int64)
    for a, b in columns:
        held_a, held_b = np.concatenate((held_a, a)), np.concatenate((held_b, b))
        whole = len(held_a) - len(held_a) % size
        for lo in range(0, whole, size):
            yield held_a[lo : lo + size], held_b[lo : lo + size]
        held_a, held_b = held_a[whole:], held_b[whole:]
    if len(held_a):
        yield held_a, held_b


def backend_redundancy_removal(
    sequences: SequenceSet,
    backend: Backend,
    cache: object,
    *,
    psi: int = 10,
    similarity: float = CONTAINMENT_SIMILARITY,
    coverage: float = CONTAINMENT_COVERAGE,
    max_pairs_per_node: int | None = None,
) -> RedundancyResult:
    """RR phase on a backend: the master admits each block of the match
    stream whole, the unique promising pairs travel to the containment
    stream as int64 index columns, :data:`RR_CHUNK` rows a submit, and
    each task's statistic rows come back to the master's column
    Definition 1 verdict in completion order.

    The stream yields ``(identity, coverage_i, coverage_j)`` statistics
    rather than alignments, so backends may answer pairs through the
    batched engine's alignment-free fast paths; the scientific counters
    (``rr.pairs``/``rr.alignments``) still count every pair whose
    Definition 1 verdict was evaluated, regardless of compute route.
    ``cache`` is ignored, here and by the CCD and bipartite drivers: no
    phase answers a pair from memory, so each pair a phase admits is
    aligned once.  The parameter stays while the benchmark suite's
    replay still passes one.
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
        stream = backend.containment_stream(similarity=similarity, coverage=coverage)
        admitted = (
            master.admit(block.seq_a, block.seq_b)
            for block in _traced_blocks(master.finder.match_blocks(), "rr.pairs")
        )
        for ia, ib in _column_chunks(admitted, RR_CHUNK):
            stream.submit_columns(ia, ib)
            for done in stream.ready():
                master.absorb(*done)
        for done in stream.drain():
            master.absorb(*done)
    return master.result()


def backend_component_detection(
    sequences: SequenceSet,
    kept: Sequence[int],
    backend: Backend,
    cache: object,
    *,
    psi: int = 10,
    similarity: float = OVERLAP_SIMILARITY,
    coverage: float = OVERLAP_COVERAGE,
    max_pairs_per_node: int | None = None,
    journal: "CheckpointJournal | None" = None,
    replay_unions: Sequence[tuple[int, int]] | None = None,
) -> ClusteringResult:
    """CCD phase on a backend: the pair-by-pair loop over the master's
    ``admit`` — admit, align, union on a passing verdict, next pair —
    run a batch of alignments at a time.

    The master *speculates* (:mod:`repro.pace.clustering`): a pair it
    can prove the loop aligns joins the open batch at once, a pair the
    batch's verdicts may yet close is held, and a batch is settled — one
    ``submit_columns`` and ``drain``, verdicts absorbed in stream order —
    at :data:`LOCAL_CHUNK` pairs, when more than
    :data:`~repro.suffix.matches.CANDIDATE_BUDGET` rows are held at a
    block boundary, and as the stream ends.  Components, every ``ccd.*``
    counter, the journaled unions and the set of aligned pairs are the
    loop's on every backend; only the order pairs are submitted in can
    differ, after a failed verdict.

    Checkpointing: when a :class:`~repro.core.checkpoint.CheckpointJournal`
    is passed, every union that actually merges two clusters is
    journaled (global indices).  On resume, ``replay_unions`` pre-seeds
    both union–finds with those journaled merges before the pair stream
    re-runs — a head start for the transitive-closure filter, which can
    only skip *more* intra-component pairs, never change the final
    components.  The replayed merges themselves are not re-journaled
    (``uf.union`` returns False for them), so the journal never holds
    duplicates.
    """
    with backend.phase("clustering"):
        master = ClusteringMaster(
            sequences, kept, similarity=similarity, coverage=coverage
        )
        # The kept sequences labelled 0, the redundant ones -1: the
        # masked stream, ids mapped to ``local``, is the stream of an
        # index over ``kept`` alone.
        local = np.full(len(sequences), -1, dtype=np.int64)
        local[kept] = np.arange(len(kept))
        finder = MaximalMatchFinder(
            backend.index, min_length=psi, max_pairs_per_node=max_pairs_per_node,
            labels=np.minimum(local, 0),
        )
        for gi, gj in replay_unions or ():
            if local[gi] >= 0 and local[gj] >= 0:
                master.replay((int(local[gi]), int(local[gj])))
        stream = backend.alignment_stream()
        global_of = np.asarray(kept, dtype=np.int64)

        def passes(pairs: list[tuple[int, int]]) -> list[bool]:
            # ``kept`` ascends and a < b, so the stream's canonical
            # (i, j) is the submitted one; it answers in any order.
            a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
            stream.submit_columns(global_of[a], global_of[b])
            verdict: dict[tuple[int, int], bool] = {}
            for ia, ib, table in stream.drain():
                ok = master.overlaps(ia, ib, table)
                verdict.update(zip(zip(ia.tolist(), ib.tolist()), ok.tolist()))
            return [verdict[kept[x], kept[y]] for x, y in pairs]

        def merged(pair: tuple[int, int]) -> None:
            if journal is not None:
                journal.ccd_union(kept[pair[0]], kept[pair[1]])

        settle = functools.partial(master.settle, passes, merged)

        def blocks() -> Iterator[MatchBlock]:
            for block in finder.match_blocks():
                yield dataclasses.replace(
                    block, seq_a=local[block.seq_a], seq_b=local[block.seq_b]
                )
            # Inside the last block's ``pairs.generate`` window, so the
            # spans' ``admitted`` add up to ``ccd.alignments``.
            settle()

        for block in _traced_blocks(blocks(), "ccd.alignments"):
            master.speculate(block, LOCAL_CHUNK, settle)
            if master.n_held > CANDIDATE_BUDGET:
                settle()
    return master.result()


def backend_generate_component_graphs(
    sequences: SequenceSet,
    components: Sequence[Sequence[int]],
    backend: Backend,
    cache: object,
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
        admitted = np.concatenate([np.empty((2, 0), dtype=np.int64), *(
            master.admit(block.seq_a, block.seq_b)
            for block in _traced_blocks(master.finder.match_blocks(), "bipartite.pairs")
        )], axis=1)
        # Submitted a component at a time, each in its stream order — the
        # order of one stream per component: a chunk then holds one
        # family's lengths, which the engine packs into fewer padded
        # cells than the interleaved stream's.
        admitted = admitted[:, np.argsort(master.component[admitted[0]], kind="stable")]

        def absorb(ia: np.ndarray, ib: np.ndarray, table: np.ndarray) -> None:
            edge = master.is_edge(ia, ib, table)
            for gi, gj in zip(ia[edge].tolist(), ib[edge].tolist()):
                master.add_edge(gi, gj)

        stream = backend.alignment_stream()
        for ia, ib in _column_chunks([admitted], LOCAL_CHUNK):
            stream.submit_columns(ia, ib)
            for done in stream.ready():
                absorb(*done)
        for done in stream.drain():
            absorb(*done)
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
