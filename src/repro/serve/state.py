"""In-memory serving state loaded from a completed checkpoint journal.

``repro run --run-dir DIR`` leaves behind ``DIR/checkpoint.jsonl`` with
the full scientific output of the batch pipeline (RR survivors and
containments, CCD components).  :func:`build_serve_state` turns that
journal — plus the original FASTA, validated against the journal's
config/input digests — into a :class:`ServeState`: a growable sequence
set, a union–find over families, the redundancy map, and per-family
representative sets with their psi-window index.

Any ``serve_insert`` records a previous daemon appended are replayed
through :func:`repro.serve.incremental.replay_insert` in journal order.
Replay applies the *journaled decisions* (which sequences were declared
contained, which unions merged) rather than recomputing alignments, so
a SIGKILLed daemon restarts to a **bit-identical** state — the same
guarantee, by the same mechanism, as ``repro run --resume``.

:meth:`ServeState.digest` is the identity used to verify that: a
canonical-JSON SHA-256 over everything client-visible (families,
redundancy, representatives, inserted sequences).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.core.checkpoint import (
    CHECKPOINT_NAME,
    CheckpointError,
    ResumeState,
    config_digest,
    input_digest,
    read_journal,
    validate_meta,
)
from repro.core.config import PipelineConfig
from repro.graph.unionfind import UnionFind
from repro.sequence.record import SequenceRecord, SequenceSet
from repro.serve.representatives import (
    DEFAULT_MAX_REPRESENTATIVES,
    RepresentativeIndex,
    select_representatives,
)


class ServeState:
    """Everything the daemon needs to answer queries and take inserts.

    Global sequence indices are stable and append-only: the base run's
    indices come first (matching the checkpointed components), inserted
    sequences extend the range.  Families are the union–find components
    restricted to non-redundant members — the serving-time analogue of
    the CCD phase's ``components``.
    """

    def __init__(
        self,
        sequences: SequenceSet,
        config: PipelineConfig,
        *,
        max_representatives: int = DEFAULT_MAX_REPRESENTATIVES,
    ) -> None:
        self.sequences = sequences
        self.config = config
        self.max_representatives = max_representatives
        self._encoded: list[np.ndarray] = [r.encoded for r in sequences]
        self._lengths: list[int] = [len(e) for e in self._encoded]
        self.uf = UnionFind(len(sequences))
        #: contained index -> its (first) container.
        self.redundant: dict[int, int] = {}  # guarded by ServeServer._lock
        #: container index -> containments it absorbed (rep centrality).
        self.centrality: dict[int, int] = {}  # guarded by ServeServer._lock
        #: current root -> member indices (redundant included).
        self._members: dict[int, list[int]] = {  # guarded by ServeServer._lock
            i: [i] for i in range(len(sequences))
        }
        #: current root -> active representative indices (sorted).
        self.reps: dict[int, list[int]] = {}  # guarded by ServeServer._lock
        self.rep_index = RepresentativeIndex(config.psi)
        self._stale_reps: list[int] = []  # guarded by ServeServer._lock
        self.n_base = len(sequences)
        #: (id, residues) of every insert, in insert order.
        self.inserted: list[tuple[str, str]] = []  # guarded by ServeServer._lock

    # -- sequence access ---------------------------------------------------

    def encoded(self, index: int) -> np.ndarray:
        return self._encoded[index]

    def length(self, index: int) -> int:
        return self._lengths[index]

    def add_sequence(self, record: SequenceRecord) -> int:
        """Append a new sequence; returns its global index."""
        encoded = record.encoded  # validates residues before any mutation
        index = self.sequences.add(record)
        self._encoded.append(encoded)
        self._lengths.append(len(encoded))
        self.uf.ensure(index + 1)
        self._members[index] = [index]
        return index

    # -- family structure --------------------------------------------------

    def union(self, i: int, j: int) -> bool:
        """Merge the families of ``i`` and ``j``; True if they differed."""
        ri, rj = self.uf.find(i), self.uf.find(j)
        if ri == rj:
            return False
        self.uf.union(i, j)
        root = self.uf.find(i)
        dead = rj if root == ri else ri
        self._members[root].extend(self._members.pop(dead))
        self._stale_reps.extend(self.reps.pop(dead, ()))
        return True

    def family_members(self, index: int) -> list[int]:
        """Non-redundant members of ``index``'s family, sorted."""
        members = self._members[self.uf.find(index)]
        return sorted(m for m in members if m not in self.redundant)

    def families(self) -> list[list[int]]:
        """All families (non-redundant components, singletons included),
        sorted descending by size — the CCD ``components`` ordering."""
        out = []
        for members in self._members.values():
            live = sorted(m for m in members if m not in self.redundant)
            if live:
                out.append(live)
        out.sort(key=lambda c: (-len(c), c[0]))
        return out

    def n_families(self) -> int:
        """``len(self.families())`` without building them: the
        components that still have a live member."""
        redundant = self.redundant
        return sum(
            any(m not in redundant for m in members)
            for members in self._members.values()
        )

    def partition(self) -> list[list[int]]:
        """Every component as a sorted member list (redundant members
        *included*), ordered by first member — the restorable form of
        the union–find that serve snapshots persist."""
        out = [sorted(members) for members in self._members.values()]
        out.sort(key=lambda m: m[0])
        return out

    def partition_roots(self) -> list[int]:
        """Current union–find roots, sorted (one per component)."""
        return sorted(self._members)

    # -- representatives ---------------------------------------------------

    def update_representatives(self, root: int) -> None:
        """Re-select the representative set of the family rooted at
        ``root`` (deterministic in the current state, which is what
        lets journal replay skip re-deriving it)."""
        while self._stale_reps:
            self.rep_index.discard(self._stale_reps.pop())
        members = self._members.get(root, [])
        live = [m for m in members if m not in self.redundant]
        old = self.reps.pop(root, [])
        if not live:
            for rep in old:
                self.rep_index.discard(rep)
            return
        fresh = select_representatives(
            live,
            lengths=self._lengths,
            centrality=self.centrality,
            cap=self.max_representatives,
        )
        for rep in set(old) - set(fresh):
            self.rep_index.discard(rep)
        for rep in fresh:
            self.rep_index.add(rep, self._encoded[rep])
        self.reps[root] = fresh

    def n_representatives(self) -> int:
        return len(self.rep_index)

    # -- identity ----------------------------------------------------------

    def digest_payload(self) -> dict[str, Any]:
        """The client-visible state as a canonical JSON-able document."""
        reps = sorted(
            (list(v) for v in self.reps.values() if v),
            key=lambda r: r[0],
        )
        return {
            "n_sequences": len(self.sequences),
            "n_base": self.n_base,
            "inserted": [list(pair) for pair in self.inserted],
            "redundant": sorted(
                [k, v] for k, v in self.redundant.items()
            ),
            "families": self.families(),
            "representatives": reps,
        }

    def digest(self) -> str:
        """SHA-256 identity of the serving state (replay invariant)."""
        blob = json.dumps(
            self.digest_payload(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def status(self) -> dict[str, Any]:
        """Status-op snapshot (cheap enough to answer per request)."""
        return {
            "n_sequences": len(self.sequences),
            "n_base": self.n_base,
            "n_inserted": len(self.inserted),
            "n_families": self.n_families(),
            "n_redundant": len(self.redundant),
            "n_representatives": self.n_representatives(),
            "digest": self.digest(),
        }


def build_serve_state(  # repro-lint: thread=init
    sequences: SequenceSet,
    config: PipelineConfig,
    resume_state: ResumeState,
    *,
    max_representatives: int = DEFAULT_MAX_REPRESENTATIVES,
) -> ServeState:
    """Seed a :class:`ServeState` from a parsed journal's resume state.

    Requires the batch run to have checkpointed at least its
    ``clustering`` phase (families are CCD components); replays any
    ``serve_insert`` records in journal order.
    """
    from repro.serve.incremental import replay_insert

    if not resume_state.has("clustering"):
        raise CheckpointError(
            "checkpoint has no completed clustering phase; finish "
            "`repro run --run-dir` before serving"
        )
    state = ServeState(
        sequences, config, max_representatives=max_representatives
    )
    rr = resume_state.payload("redundancy")
    for contained, container in rr["containments"]:
        state.redundant.setdefault(int(contained), int(container))
        state.centrality[int(container)] = (
            state.centrality.get(int(container), 0) + 1
        )
        # Membership-only union: families() filters redundant members,
        # so this cannot change any component — it just lets
        # family-of-a-redundant-sequence queries resolve.
        state.union(int(contained), int(container))
    ccd = resume_state.payload("clustering")
    for component in ccd["components"]:
        first = int(component[0])
        for member in component[1:]:
            state.union(first, int(member))
    for root in sorted(state._members):
        state.update_representatives(root)
    for decision in resume_state.serve_inserts:
        replay_insert(state, decision)
        obs.count("serve.replays")
    return state


def build_or_restore_serve_state(  # repro-lint: thread=init
    sequences: SequenceSet,
    config: PipelineConfig,
    resume_state: ResumeState,
    *,
    run_dir: str | Path | None,
    max_representatives: int = DEFAULT_MAX_REPRESENTATIVES,
    use_snapshot: bool = True,
) -> tuple[ServeState, dict[str, Any]]:
    """Build serving state, preferring snapshot + journal tail.

    The fast path restores the newest usable serve snapshot in
    ``run_dir`` (current generation, else the rotated previous one) and
    replays only the journal's ``serve_insert`` records at or past the
    snapshot's coverage; the slow path is a full
    :func:`build_serve_state` replay, which is only sound while the
    journal still reaches back to insert #0 — once compaction has
    pruned below a lost snapshot's coverage the gap is unrecoverable
    and this raises :class:`CheckpointError` loudly instead of serving
    a silently wrong partition.

    Returns ``(state, info)`` where ``info`` reports
    ``snapshot_covered`` (None on the full-replay path), ``replayed``,
    and ``skipped`` — the journal records the snapshot already covered.
    """
    from repro.serve.incremental import replay_insert
    from repro.serve.snapshot import load_snapshot, restore_from_snapshot

    seqs = resume_state.serve_insert_seqs
    payload = None
    if use_snapshot and run_dir is not None:
        payload = load_snapshot(
            run_dir,
            config_dig=config_digest(config),
            input_dig=input_digest(sequences),
        )
    if payload is None:
        if seqs and seqs[0] > 0:
            raise CheckpointError(
                f"journal was compacted below insert #{seqs[0]} and no "
                f"usable serve snapshot covers inserts 0..{seqs[0] - 1}; "
                f"serve state cannot be rebuilt"
            )
        state = build_serve_state(
            sequences, config, resume_state,
            max_representatives=max_representatives,
        )
        info = {
            "snapshot_covered": None,
            "replayed": len(resume_state.serve_inserts),
            "skipped": 0,
        }
        return state, info
    covered = int(payload["covered"])
    if seqs and seqs[0] > covered:
        raise CheckpointError(
            f"journal tail starts at insert #{seqs[0]} but the snapshot "
            f"only covers the first {covered}; inserts "
            f"{covered}..{seqs[0] - 1} are lost"
        )
    state = restore_from_snapshot(
        sequences, config, payload,
        max_representatives=max_representatives,
    )
    replayed = skipped = 0
    for seq, decision in zip(seqs, resume_state.serve_inserts):
        if seq < covered:
            skipped += 1
            obs.count("serve.snapshot_skipped_replays")
            continue
        replay_insert(state, decision)
        obs.count("serve.replays")
        replayed += 1
    return state, {
        "snapshot_covered": covered,
        "replayed": replayed,
        "skipped": skipped,
    }


def load_serve_state(
    run_dir: str | Path,
    sequences: SequenceSet,
    config: PipelineConfig,
    *,
    max_representatives: int = DEFAULT_MAX_REPRESENTATIVES,
) -> ServeState:
    """Read-only load: parse + validate ``run_dir``'s journal and build.

    The daemon itself goes through :meth:`CheckpointJournal.resume`
    (which additionally amputates torn tails and reopens for append)
    and hands the resulting ``resume_state`` to
    :func:`build_serve_state`; this read-only path serves tests and
    one-shot tooling that never write.
    """
    path = Path(run_dir) / CHECKPOINT_NAME
    if not path.exists():
        raise CheckpointError(
            f"no checkpoint journal at {path}; was the batch run started "
            f"with --run-dir?"
        )
    records = read_journal(path)
    validate_meta(
        records,
        path=path,
        config_dig=config_digest(config),
        input_dig=input_digest(sequences),
        n_input=len(sequences),
    )
    resume_state = ResumeState.from_records(records[1:])
    return build_serve_state(
        sequences, config, resume_state,
        max_representatives=max_representatives,
    )
