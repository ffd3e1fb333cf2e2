"""Insert-time clustering: one sequence through RR + CCD, online.

The insert path is split into a read-only **plan** phase and a
mutating **commit** phase so the daemon's applier can run the expensive
dynamic programming outside the server lock (lint rule R13 forbids DP
under a named lock):

* :func:`plan_insert` runs the batch pipeline's two scientific
  decisions — Definition 1 containment (:func:`plan_containment`), then
  Definition 2 overlap (:func:`plan_overlaps`) — for a single new
  sequence against the per-family *representatives*, with **no state
  mutation**: the sequence has no index yet, so its pairs are aligned by
  the batch engine directly, a sweep at a time
  (:mod:`repro.serve.sweeps`), and unions are simulated against a
  snapshot of the candidates' roots.  This is safe lock-free because
  the applier thread is the state's only mutator; concurrent query
  threads are readers.
* :func:`commit_insert` (annotated ``requires=ServeServer._lock``)
  applies the plan: appends the sequence, replays the planned unions
  through the journaled union–find wrapper, absorbs the decision
  record and counts the decisions it applied (``serve.redundant``,
  ``serve.merges``).  It performs no DP and no IO, and keeps no
  alignment: a decision is all an insert leaves behind.

A classification (``repro query --residues``) is a plan that is never
committed: the daemon runs the same two halves on the query's residues,
shedding an expired deadline between them, and answers from the plan
(:func:`planned_families`), so a classification cannot contradict the
insert it predicts.

Candidate generation (:func:`plan_candidates`) uses the psi-window
index (exactly the promising-pair criterion at representative scale).
Definition 1 is one containment sweep over every candidate — the
engine's sound bit-parallel prefilter, its exact certificate, then one
semiglobal DP over the remainder — and Definition 2 runs in **rounds**
(:func:`overlap_rounds`), each one local DP over the candidates the
transitive-closure filter cannot yet have removed.  Decisions, journal
records and the reported work are those of the pair-by-pair loops the
sweeps replaced, which ``tests/scalar_serve.py`` keeps as the oracle;
the equivalence gate in ``tests/test_serve.py`` holds the insert path
to the batch output.

Observability: a plan decomposes into ``candidates`` /
``myers_reject`` / ``dp`` stage spans (one per engine call, carrying
its batch size) and ``journal_fsync``, recorded via the ambient obs
facade, so when the serving daemon installs a per-request child
recorder (:class:`repro.obs.request.RequestContext`) each insert's span
tree and counters (``serve.myers_rejects``, ``serve.dp_cells``, ...)
are attributed to the request that caused them.  The counters count
what the loop would have done — a candidate the closure filter removes
is ``serve.filtered``, never an alignment — whatever the engine was
handed.

Every insert produces a *decision record* — the sequence plus the
containments and unions it caused — appended to the run's checkpoint
journal as a ``serve_insert`` record.  :func:`replay_insert` applies a
decision record without recomputing anything, which is what makes
daemon restart (and SIGKILL recovery) bit-identical: both the live path
and the replay path funnel their state mutations through the shared
:func:`_absorb`.

Approximation contract (documented, deliberate): within one insert the
Definition 2 sweep still aligns against representatives that the same
insert just declared redundant — batch CCD would have excluded them.
Extra overlap edges can only merge families the new sequence already
connects through its container, so family membership is unaffected;
the equivalence-gate test in ``tests/test_serve.py`` holds this to the
batch output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.align.predicates import containment_verdicts
from repro.core.checkpoint import CheckpointJournal
from repro.runtime.sharedseq import EncodedStore
from repro.sequence.record import SequenceRecord
from repro.serve.state import ServeState
from repro.serve.sweeps import containment_sweep, overlap_sweep, request_store


def _absorb(state: ServeState, index: int, decision: dict[str, Any]) -> None:
    """Apply the non-union side effects of one insert decision.

    Shared by the live path and journal replay so both mutate redundancy,
    centrality, the insert log, and representative sets identically.
    The unions themselves are applied by each caller *before* this runs
    (live: as they are discovered; replay: in recorded order).
    """
    for victim, survivor in decision["redundant"]:
        state.redundant.setdefault(int(victim), int(survivor))
        state.centrality[int(survivor)] = (
            state.centrality.get(int(survivor), 0) + 1
        )
    state.inserted.append((decision["id"], decision["residues"]))
    roots = {state.uf.find(index)}
    for victim, _survivor in decision["redundant"]:
        roots.add(state.uf.find(int(victim)))
    for root in sorted(roots):
        state.update_representatives(root)


@dataclass
class InsertPlan:
    """Read-only insert decision, ready for :func:`commit_insert`.

    ``new_idx`` is the index the sequence *will* receive — the length
    of the sequence set at plan time.  The single-applier discipline
    (only the applier thread plans and commits inserts) is what makes
    the prospective index stable; :func:`commit_insert` re-checks it.
    ``store`` is the request's, read by both halves (never journaled).
    """

    record: SequenceRecord
    new_idx: int
    candidates: list[int]
    container: int | None
    redundant_pairs: list[list[int]]
    unions: list[list[int]]
    n_alignments: int
    store: EncodedStore | None = None

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    @property
    def decision(self) -> dict[str, Any]:
        """The ``serve_insert`` journal record for this plan."""
        return {
            "id": self.record.id,
            "residues": self.record.residues,
            "redundant": self.redundant_pairs,
            "unions": self.unions,
        }


def overlap_rounds(
    state: ServeState, store: EncodedStore, roots: Sequence[int]
) -> dict[int, bool]:
    """Definition 2 verdicts, by candidate position, of exactly the
    candidates the pair-by-pair sweep aligns, a round of them per DP
    call (``roots[k]`` is the family root of candidate ``k``).

    That sweep skips a candidate once an earlier one of the same family
    has passed (the transitive-closure filter), so it aligns a
    candidate iff every earlier candidate *of its own root* failed —
    no other root's verdict matters.  Round ``r`` is therefore the
    ``r``-th candidate of every root none of whose first ``r`` passed:
    one round when every family's first representative passes, at most
    ``max_representatives`` of them.
    """
    by_root: dict[int, list[int]] = {}
    for k, root in enumerate(roots):
        by_root.setdefault(root, []).append(k)
    verdicts: dict[int, bool] = {}
    untried = list(by_root.values())
    done = 0  # candidates of each root in `untried` tried so far, all failed
    while untried:
        batch = [picks[done] for picks in untried]
        passes = overlap_sweep(state, store, batch)
        verdicts.update(zip(batch, passes))
        done += 1
        untried = [picks for picks, ok in zip(untried, passes)
                   if not ok and len(picks) > done]
    return verdicts


def plan_candidates(state: ServeState, encoded: np.ndarray) -> list[int]:
    """The representatives a new sequence is swept against: those
    sharing a psi-window with it, in index order."""
    with obs.span("candidates", cat="stage"):
        candidates = state.rep_index.candidates(encoded)
    obs.count("serve.candidates", len(candidates))
    return candidates


def plan_containment(
    state: ServeState, record: SequenceRecord, candidates: list[int]
) -> InsertPlan:
    """The Definition 1 half of a plan: batch RR's verdict of the new
    sequence against every candidate, tie-break included.  The plan it
    returns is complete when the sequence is redundant; otherwise
    :func:`plan_overlaps` finishes it."""
    config = state.config
    new_idx = len(state.sequences)
    redundant_pairs: list[list[int]] = []
    unions: list[list[int]] = []
    container: int | None = None
    store = request_store(state, candidates, record.encoded)
    stats, rejected = containment_sweep(state, store)
    # Every (representative, new sequence) row at once, in candidate
    # order; a rejected row's (0, 0, 0) surrogate fails both ways.  rep
    # < new_idx always, so a mutual containment of equal lengths drops
    # the new sequence.
    reps = np.asarray(candidates, dtype=np.int64)
    victims, survivors = containment_verdicts(
        stats, reps, np.full_like(reps, new_idx),
        store.lengths[1:], np.full_like(reps, store.lengths[0]),
        config.containment_similarity, config.containment_coverage,
    )
    for victim, survivor in zip(victims.tolist(), survivors.tolist()):
        if victim == new_idx:
            redundant_pairs.append([new_idx, survivor])
            if container is None:
                # Join the first container's family (membership only);
                # further containers just record the containment —
                # unioning them would merge unrelated families, which
                # batch RR never does.
                container = survivor
                unions.append([new_idx, survivor])
        else:
            # The representative is contained in the new sequence.  Batch
            # RR would drop it from CCD; here it simply loses live
            # membership (and usually its representative slot).
            redundant_pairs.append([victim, new_idx])
    return InsertPlan(
        record=record,
        new_idx=new_idx,
        candidates=candidates,
        container=container,
        redundant_pairs=redundant_pairs,
        unions=unions,
        n_alignments=int((~rejected).sum()),
        store=store,
    )


def plan_overlaps(state: ServeState, plan: InsertPlan) -> None:
    """The Definition 2 half of a plan, in place: overlap-merge a
    sequence its containment half left non-redundant.

    The verdicts are absorbed in candidate order against the roots
    already merged into the (still-singleton) insert, which is what
    keeps ``unions`` in the order the live union–find will replay.
    The roots are read once, so the rounds and the closure filter see
    one partition even while a classification runs beside the
    applier's unions.
    """
    if plan.container is not None:
        return
    roots = [state.uf.root(rep) for rep in plan.candidates]
    overlaps = overlap_rounds(state, plan.store, roots)
    plan.n_alignments += len(overlaps)
    merged_roots: set[int] = set()
    for k, (rep, root) in enumerate(zip(plan.candidates, roots)):
        if root in merged_roots:
            obs.count("serve.filtered")
        elif overlaps[k]:
            merged_roots.add(root)
            plan.unions.append([plan.new_idx, rep])


def plan_insert(state: ServeState, seq_id: str, residues: str) -> InsertPlan:
    """Run the RR + CCD sweeps for one new sequence, mutating nothing.

    Every read is safe without the server lock: the applier thread
    calling this is the state's only mutator, the sequence/encoding
    stores are append-only, and root lookups use the compression-free
    :meth:`~repro.graph.unionfind.UnionFind.root`.
    """
    if seq_id in state.sequences:
        raise ValueError(f"sequence id {seq_id!r} already present")
    record = SequenceRecord(id=seq_id, residues=residues)
    # `record.encoded` validates the residues before any planning.
    plan = plan_containment(
        state, record, plan_candidates(state, record.encoded)
    )
    plan_overlaps(state, plan)
    return plan


def planned_families(  # repro-lint: requires=ServeServer._lock
    state: ServeState, plan: InsertPlan
) -> list[list[int]]:
    """The families an uncommitted plan places its sequence in, as its
    commit would leave them: each family it unions with (its
    container's, or every one it overlaps), root order, without the
    members the plan declares redundant or the sequence itself.  A
    family the plan would leave with no other live member is omitted."""
    dropped = {victim for victim, _survivor in plan.redundant_pairs}
    families: dict[int, list[int]] = {}
    for _new, rep in plan.unions:
        root = state.uf.find(rep)
        if root not in families:
            families[root] = [m for m in state.family_members(rep)
                              if m not in dropped]
    return [members for _root, members in sorted(families.items())
            if members]


def commit_insert(  # repro-lint: requires=ServeServer._lock
    state: ServeState, plan: InsertPlan
) -> dict[str, Any]:
    """Apply a planned insert to the live state.  No DP, no IO.

    Returns ``{"index", "family", "redundant_against", "n_candidates",
    "n_alignments", "n_merges"}``.  The journal write stays with the
    caller, who makes it first (durability before the ack, and a
    failed write leaves the state unmutated); the applier makes it
    *before* taking the lock, so disk latency stays outside the
    critical section.
    """
    index = state.add_sequence(plan.record)
    if index != plan.new_idx:  # pragma: no cover - single-applier invariant
        raise RuntimeError(
            f"stale insert plan: planned index {plan.new_idx}, "
            f"committed at {index}"
        )
    for a, b in plan.unions:
        state.union(int(a), int(b))
    # Read before `_absorb` records them: a representative that was
    # already redundant is not retired again.
    retired = sum(victim not in state.redundant
                  for victim, _survivor in plan.redundant_pairs)
    _absorb(state, index, plan.decision)
    obs.count("serve.inserts")
    obs.count("serve.redundant", retired)
    obs.count("serve.merges",
              len(plan.unions) if plan.container is None else 0)
    obs.gauge("serve.families_now", state.n_families())
    return {
        "index": index,
        "family": state.family_members(index),
        "redundant_against": plan.container,
        "n_candidates": plan.n_candidates,
        "n_alignments": plan.n_alignments,
        "n_merges": len(plan.unions),
    }


def insert_sequence(  # repro-lint: thread=init
    state: ServeState,
    seq_id: str,
    residues: str,
    *,
    journal: CheckpointJournal | None = None,
) -> dict[str, Any]:
    """Plan + commit one insert in a single call (single-threaded path).

    The offline convenience used by tests and batch tooling; the daemon
    calls :func:`plan_insert` / :func:`commit_insert` separately so the
    DP runs outside its lock.  When ``journal`` is given the decision
    record is appended (and flushed) before the commit, as the daemon's
    applier does: a failing write raises with the state unmutated, and
    a crash after return can always replay this insert.
    """
    plan = plan_insert(state, seq_id, residues)
    if journal is not None:
        with obs.span("journal_fsync", cat="stage"):
            journal.serve_insert(plan.decision)
    return commit_insert(state, plan)


def replay_insert(state: ServeState, decision: dict[str, Any]) -> None:  # repro-lint: thread=init
    """Re-apply a journaled ``serve_insert`` decision.

    No alignments, no candidate generation: the unions are applied in
    the recorded order (identical union–find evolution) and the shared
    :func:`_absorb` restores everything else — so a restarted daemon
    reaches a state whose :meth:`ServeState.digest` equals the one it
    crashed with.
    """
    record = SequenceRecord(id=decision["id"], residues=decision["residues"])
    index = state.add_sequence(record)
    for a, b in decision["unions"]:
        state.union(int(a), int(b))
    _absorb(state, index, decision)
