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

Both sweeps run the batch phases' column engine over one private store
per request, read by both sweeps (:func:`request_store`, ``[new,
*candidates]``): the Myers pass is fewer lanes than the wavefront needs,
so the request sweeps packed and the store never builds a mask table.

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
from repro.align.batch import align_columns, containment_dp, containment_prefilter
from repro.align.predicates import overlaps
from repro.runtime.sharedseq import EncodedStore
from repro.serve.state import ServeState


def request_store(state: ServeState, candidates: Sequence[int],
                  encoded: np.ndarray) -> EncodedStore:
    """``encoded`` at row 0, then candidate ``k`` at row ``k + 1``."""
    return EncodedStore.from_sequences([encoded, *map(state.encoded, candidates)])


def _cells(store: EncodedStore, rows: np.ndarray) -> int:
    return int(store.lengths[rows].sum()) * int(store.lengths[0])


def containment_sweep(
    state: ServeState, store: EncodedStore
) -> tuple[np.ndarray, np.ndarray]:
    """Definition 1 statistics of the request's new sequence against
    every candidate of its :func:`request_store`, in candidate order:
    one Myers sweep, then one semiglobal DP over the pairs it neither
    rejected nor certified exact.  Returns the ``(k, 3)`` float64 rows
    ``(identity, coverage of the representative, coverage of the new
    sequence)`` and the ``rejected`` mask of the candidates the Myers
    bound proved fail both ways (no alignment made; their rows are the
    ``(0.0, 0.0, 0.0)`` surrogate)."""
    reps = np.arange(1, len(store))
    if not len(reps):
        return np.zeros((0, 3)), np.zeros(0, dtype=bool)
    config = state.config
    new = np.zeros_like(reps)
    with obs.span("myers_reject", cat="stage", pairs=len(reps)):
        prefilter = containment_prefilter(
            store, reps, new,
            scheme=config.scheme,
            similarity=config.containment_similarity,
            coverage=config.containment_coverage,
        )
    stats = prefilter.stats
    if len(prefilter.undecided):
        with obs.span("dp", cat="stage", pairs=len(prefilter.undecided),
                      cells=_cells(store, reps[prefilter.undecided])):
            stats = containment_dp(store, reps, new, prefilter, config.scheme)
    aligned = reps[~prefilter.rejected]
    obs.count("serve.myers_rejects", len(reps) - len(aligned))
    obs.count("serve.alignments", len(aligned))
    obs.count("serve.dp_cells", _cells(store, aligned))
    return stats, prefilter.rejected


def overlap_sweep(
    state: ServeState, store: EncodedStore, picks: Sequence[int]
) -> list[bool]:
    """Definition 2 verdict of the request's new sequence against each
    candidate position ``picks[r]`` of its :func:`request_store`: one
    local DP over all of them, every pair counted."""
    if not len(picks):
        return []
    config = state.config
    reps = np.asarray(picks, dtype=np.int64) + 1
    new = np.zeros_like(reps)
    cells = _cells(store, reps)
    with obs.span("dp", cat="stage", pairs=len(reps), cells=cells):
        table = align_columns(store, reps, new, scheme=config.scheme, mode="local")
    obs.count("serve.alignments", len(reps))
    obs.count("serve.dp_cells", cells)
    return overlaps(table, store.lengths[reps], store.lengths[new],
                    config.overlap_similarity, config.overlap_coverage).tolist()
