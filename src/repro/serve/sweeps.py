"""The two sweeps of a serve request, each one call into the batch
alignment engine for the request's whole candidate list.

An insert plan (:func:`repro.serve.incremental.plan_insert`) makes two
decisions about one new sequence against candidate representatives —
Definition 1 containment, then Definition 2 overlap — and a
classification is that same plan, never committed.  The kernels are the
ones the batch phases run (:mod:`repro.align.batch`, pinned field for
field to the one-pair kernels by ``tests/test_batch_align.py``) and the
verdicts are the batch phases' (:mod:`repro.align.predicates`); every
pair is oriented ``(representative, new sequence)``, so coverage and
every tie-break read as they do in batch RR.

Each sweep reports the work of the pair-by-pair loop it replaced
(``tests/scalar_serve.py`` keeps those loops as the oracle): the
containment sweep reaches every candidate, a Myers reject or an
alignment each (a pair certified at distance 0 counts as the alignment
it replaces); the overlap sweep is only ever handed pairs the loop
aligns.

The containment sweep runs the batch phases' column engine over a
private store of the request, ``[new, *candidates]``: the Myers pass is
fewer lanes than the wavefront needs, so the request sweeps packed and
the store never builds a mask table.

Stage spans (``cat="stage"``): ``myers_reject`` around the prefilter,
``dp`` around each DP call, with the batch size as ``pairs`` and the
DP's ``cells`` as span args.  No lock is taken or needed: only the
append-only encoding store is read (lint rule R13 keeps alignment
kernels out from under ``ServeServer._lock``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.align.batch import batch_align, containment_dp, containment_prefilter
from repro.align.predicates import ContainmentStats, overlaps
from repro.runtime.sharedseq import EncodedStore
from repro.serve.state import ServeState

#: ``(identity, coverage of the representative, coverage of the new
#: sequence)`` of one candidate's semiglobal optimum, or None when the
#: Myers bound proved Definition 1 fails both ways (no alignment made).
Containment = ContainmentStats | None


def _cells(state: ServeState, reps: Sequence[int], length: int) -> int:
    return sum(state.length(rep) for rep in reps) * length


def containment_sweep(
    state: ServeState, candidates: Sequence[int], encoded: np.ndarray
) -> list[Containment]:
    """Definition 1 statistics of ``encoded`` against every candidate,
    in candidate order: one Myers sweep, then one semiglobal DP over
    the pairs it neither rejected nor certified exact."""
    if not candidates:
        return []
    config = state.config
    store = EncodedStore.from_sequences(
        [encoded, *(state.encoded(rep) for rep in candidates)])
    reps = np.arange(1, len(candidates) + 1)
    new = np.zeros(len(candidates), dtype=np.int64)
    with obs.span("myers_reject", cat="stage", pairs=len(candidates)):
        prefilter = containment_prefilter(
            store, reps, new,
            scheme=config.scheme,
            similarity=config.containment_similarity,
            coverage=config.containment_coverage,
        )
    stats = prefilter.stats
    if len(prefilter.undecided):
        aligned = [candidates[k] for k in prefilter.undecided.tolist()]
        with obs.span("dp", cat="stage", pairs=len(aligned),
                      cells=_cells(state, aligned, len(encoded))):
            stats = containment_dp(store, reps, new, prefilter, config.scheme)
    rejected = prefilter.rejected.tolist()
    aligned = [rep for rep, out in zip(candidates, rejected) if not out]
    obs.count("serve.myers_rejects", len(candidates) - len(aligned))
    obs.count("serve.alignments", len(aligned))
    obs.count("serve.dp_cells", _cells(state, aligned, len(encoded)))
    return [None if out else tuple(row)
            for out, row in zip(rejected, stats.tolist())]


def overlap_sweep(
    state: ServeState, reps: Sequence[int], encoded: np.ndarray
) -> list[bool]:
    """Definition 2 verdict of ``encoded`` against each of ``reps``: one
    local DP over all of them, every pair counted."""
    if not reps:
        return []
    config = state.config
    cells = _cells(state, reps, len(encoded))
    with obs.span("dp", cat="stage", pairs=len(reps), cells=cells):
        alignments = batch_align(
            [(state.encoded(rep), encoded) for rep in reps],
            config.scheme, "local",
        )
    obs.count("serve.alignments", len(reps))
    obs.count("serve.dp_cells", cells)
    return [
        overlaps(aln, state.length(rep), len(encoded),
                 config.overlap_similarity, config.overlap_coverage)
        for rep, aln in zip(reps, alignments)
    ]
