"""The candidate-at-a-time insert plan, kept as the reference for the
staged one.

This is ``repro.serve.incremental.plan_insert`` as it ran before a
request became whole-list sweeps through the batch engine
(``repro/serve/sweeps.py``): a Python loop over the candidates calling
the one-pair kernels — the scalar ``semiglobal_align`` and
``local_align`` — that skips a candidate whose family an earlier one
already merged.  It *defines* every journaled decision and every
per-request ``serve.*`` counter of a plan — and so of a classification,
which is a plan never committed — so ``test_serve_sweeps.py`` holds the
staged planner to it.  The loop is verbatim but for five things: the
reject bound reads the O(mn) infix distance
(``scalar_align.infix_distance_oracle``) where the loop ran a Myers
sweep for a batch of one, so no Myers code decides an oracle verdict;
nothing is kept for a cache to be seeded with; the stage spans are gone
(the oracle defines counts, not timings); the applied decisions
(``serve.redundant`` / ``serve.merges``) are counted by the commit, not
here; and Definition 2 reads the alignment as the one-row table the
column ``overlaps`` takes.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.align.batch import containment_reject_threshold
from repro.align.predicates import overlaps
from repro.sequence.record import SequenceRecord
from repro.serve.incremental import InsertPlan
from repro.serve.state import ServeState
from tests.scalar_align import (
    alignment_table,
    infix_distance_oracle,
    local_align,
    semiglobal_align,
)


def myers_rejects_containment(
    state: ServeState, rep: int, other_encoded: np.ndarray,
    other_length: int,
    similarity: float, coverage: float,
) -> bool:
    """Sound prefilter for one Definition 1 candidate.

    Computes the infix edit distance between the shorter of the pair
    and the longer (by the O(mn) definition, not the Myers kernel the
    staged sweep runs), and compares it against
    :func:`repro.align.batch.containment_reject_threshold` — a bound
    with the property that exceeding it *proves* both containment
    directions fail for the scalar-optimal overlap alignment.  True
    means the semiglobal DP can be skipped without changing any
    decision; False means nothing (the DP must still judge the pair).

    Bumps ``serve.myers_rejects`` on a rejection.
    """
    rep_length = state.length(rep)
    threshold = containment_reject_threshold(
        rep_length, other_length, similarity, coverage
    )
    if threshold is None:
        return False
    rep_encoded = state.encoded(rep)
    if rep_length <= other_length:
        shorter, longer = rep_encoded, other_encoded
    else:
        shorter, longer = other_encoded, rep_encoded
    rejected = infix_distance_oracle(shorter, longer) > threshold
    if rejected:
        obs.count("serve.myers_rejects")
    return rejected


def plan_insert(state: ServeState, seq_id: str, residues: str) -> InsertPlan:
    """Run the RR + CCD sweeps for one new sequence, mutating nothing."""
    if seq_id in state.sequences:
        raise ValueError(f"sequence id {seq_id!r} already present")
    record = SequenceRecord(id=seq_id, residues=residues)
    new_encoded = record.encoded  # validate residues before planning
    config = state.config
    new_idx = len(state.sequences)
    len_new = len(new_encoded)
    candidates = state.rep_index.candidates(new_encoded)
    obs.count("serve.candidates", len(candidates))

    redundant_pairs: list[list[int]] = []
    unions: list[list[int]] = []
    n_alignments = 0

    # -- Definition 1 sweep (RR): is either side contained in the other?
    container: int | None = None
    for rep in candidates:
        # Sound prefilter before any DP: when the Myers infix bound
        # proves both containment directions fail, skip the semiglobal
        # alignment entirely — decision-identical, see
        # `myers_rejects_containment`.
        if myers_rejects_containment(
            state, rep, new_encoded, len_new,
            config.containment_similarity, config.containment_coverage,
        ):
            continue
        obs.count("serve.dp_cells", state.length(rep) * len_new)
        # rep < new_idx always, so coverage_a is the representative's.
        aln = semiglobal_align(
            state.encoded(rep), new_encoded, config.scheme
        )
        n_alignments += 1
        obs.count("serve.alignments")
        if aln.identity < config.containment_similarity:
            continue
        len_rep = state.length(rep)
        rep_in_new = aln.coverage_a(len_rep) >= config.containment_coverage
        new_in_rep = aln.coverage_b(len_new) >= config.containment_coverage
        if rep_in_new and new_in_rep:
            # Mutual containment: same tie-break as the batch RR phase —
            # drop the shorter, ties drop the higher index (the insert).
            victim = rep if (len_rep, -rep) < (len_new, -new_idx) else new_idx
        elif rep_in_new:
            victim = rep
        elif new_in_rep:
            victim = new_idx
        else:
            continue
        if victim == new_idx:
            redundant_pairs.append([new_idx, rep])
            if container is None:
                # Join the first container's family (membership only);
                # further containers just record the containment —
                # unioning them would merge unrelated families, which
                # batch RR never does.
                container = rep
                unions.append([new_idx, rep])
        else:
            # The representative is contained in the new sequence.  Batch
            # RR would drop it from CCD; here it simply loses live
            # membership (and usually its representative slot).
            redundant_pairs.append([rep, new_idx])

    # -- Definition 2 sweep (CCD): overlap-merge a non-redundant insert.
    # The live path unioned as it swept; the plan simulates that with
    # the set of roots already merged into the (still-singleton) insert.
    if container is None:
        merged_roots: set[int] = set()
        for rep in candidates:
            if state.uf.root(rep) in merged_roots:
                obs.count("serve.filtered")
                continue
            obs.count("serve.dp_cells", state.length(rep) * len_new)
            aln = local_align(
                state.encoded(rep), new_encoded, config.scheme
            )
            n_alignments += 1
            obs.count("serve.alignments")
            if overlaps(
                alignment_table([aln]),
                np.array([state.length(rep)]),
                np.array([len_new]),
                config.overlap_similarity,
                config.overlap_coverage,
            )[0]:
                merged_roots.add(state.uf.root(rep))
                unions.append([new_idx, rep])

    return InsertPlan(
        record=record,
        new_idx=new_idx,
        candidates=candidates,
        container=container,
        redundant_pairs=redundant_pairs,
        unions=unions,
        n_alignments=n_alignments,
    )
