"""Crash-consistent phase checkpoint journal for ``repro run --resume``.

One append-only file, ``<run_dir>/checkpoint.jsonl``, records enough of
the pipeline's *decisions* to restart after a crash without redoing
finished phases.  The format is the simplest thing that survives a torn
write:

* each line is ``<crc32-hex8> <space> <canonical-json>``; the CRC is
  over the JSON bytes, so a half-written tail line fails its check and
  the valid prefix is still authoritative;
* ``phase_done`` records (and ``phase_start``/``meta``) are flushed and
  fsynced immediately; high-volume ``ccd_union`` records are fsynced in
  small groups, trading at most one group of redundant re-unions on
  resume for far fewer fsync stalls;
* resume parses the valid prefix, **rewrites it atomically** (tmp file
  + ``os.replace``) to amputate any torn tail, and appends from there.

Record types::

    meta         {schema, schema_version, config, input, n_input}
    phase_start  {phase}
    ccd_union    {i, j}        global indices of a union that merged
    phase_done   {phase, data} phase result payload (see *_payload below)
    serve_insert {seq, data}   one serving-time insert decision
                               (:mod:`repro.serve`), appended after the
                               batch run completed; ``seq`` is the
                               global insert ordinal (survives snapshot
                               compaction, absent in pre-snapshot
                               journals)

Unknown record types are *skipped with a warning* rather than failing
the parse, so a journal extended by a newer writer (higher
``schema_version`` record vocabulary) still resumes its known prefix
under an older reader — and ``repro run --resume`` on a journal that a
``repro serve`` daemon has appended to simply ignores the serve
records.

Resume correctness rests on two properties.  (1) Phase payloads capture
the full *scientific* output of a phase — RR survivors/containments,
CCD components, bipartite edges, DSD subgraphs — so a finished phase is
rebuilt, never re-run, and the final families are unchanged.  (2) A
half-finished CCD resumes by **replaying the journaled unions** into a
fresh union–find and re-running the whole phase: the transitive-closure
filter only ever skips intra-component pairs, so pre-seeded merges can
only skip *more* alignments, never change the components (the same
argument that makes the concurrent backends result-invariant).  Work
counters shift; components — and every scientific counter a resumed
phase re-emits — do not.

Skipped phases do not re-emit their counters: a resumed run's recorder
only covers the phases it actually executed, which is why the resume
acceptance test compares final families rather than counter snapshots.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.config import PipelineConfig
    from repro.faults.plan import FaultInjector
    from repro.pace.bipartite_gen import ComponentGraphs
    from repro.pace.clustering import ClusteringResult
    from repro.pace.densesub import DsdResult
    from repro.pace.redundancy import RedundancyResult
    from repro.sequence.record import SequenceSet

SCHEMA = "repro-ckpt/1"
CHECKPOINT_NAME = "checkpoint.jsonl"

#: Journal format generation, carried in the ``meta`` record.  Bumped
#: when a new *record type* is introduced (v2 added ``serve_insert``);
#: readers accept any journal at or below their own version and skip
#: record types they do not recognise (with a warning), so an old
#: journal always replays under new code and a *newer* journal fails
#: loudly instead of being silently half-read.  Journals written before
#: the field existed are treated as version 1.
SCHEMA_VERSION = 2

#: Record types this reader understands; anything else is skipped with
#: a warning (forward compatibility for journals written by newer
#: minor revisions at the same SCHEMA_VERSION).
KNOWN_RECORD_TYPES = frozenset(
    {"meta", "phase_start", "ccd_union", "phase_done", "serve_insert"}
)

#: ccd_union records fsynced per group (bounded replay loss on crash).
UNION_FLUSH_EVERY = 32

#: Pipeline phase order — resume trusts a ``phase_done`` only if every
#: earlier phase is also done (a later checkpoint depends on all
#: earlier results).
PHASE_ORDER = ("redundancy", "clustering", "bipartite", "dense_subgraphs")


class CheckpointError(RuntimeError):
    """A checkpoint journal is missing, damaged, or mismatched."""


# -- digests ----------------------------------------------------------------


def config_digest(config: "PipelineConfig") -> str:
    """Digest of every science-relevant configuration field.

    Backend/worker choices are deliberately excluded: results are
    backend-invariant, so a run checkpointed under 4 workers may resume
    under 2.
    """
    fields = {
        "psi": config.psi,
        "containment_similarity": config.containment_similarity,
        "containment_coverage": config.containment_coverage,
        "overlap_similarity": config.overlap_similarity,
        "overlap_coverage": config.overlap_coverage,
        "edge_similarity": config.edge_similarity,
        "edge_coverage": config.edge_coverage,
        "reduction": config.reduction,
        "w": config.w,
        "min_component_size": config.min_component_size,
        "min_subgraph_size": config.min_subgraph_size,
        "tau": config.tau,
        "shingle": [config.shingle.s1, config.shingle.c1,
                    config.shingle.s2, config.shingle.c2],
        "max_pairs_per_node": config.max_pairs_per_node,
        "seed": config.seed,
    }
    blob = json.dumps(fields, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def input_digest(sequences: "SequenceSet") -> str:
    """Digest of the input set (ids and residues, in order)."""
    h = hashlib.sha256()
    for record in sequences:
        h.update(record.id.encode("utf-8"))
        h.update(b"\x00")
        h.update(record.residues.encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()


# -- phase payloads ---------------------------------------------------------


def redundancy_payload(rr: "RedundancyResult") -> dict[str, Any]:
    return {
        "redundant": sorted(rr.redundant),
        "containments": [list(pair) for pair in rr.containments],
        "n_promising_pairs": rr.n_promising_pairs,
        "n_alignments": rr.n_alignments,
    }


def redundancy_from_payload(data: dict[str, Any],
                            n_input: int) -> "RedundancyResult":
    from repro.pace.redundancy import RedundancyResult

    redundant = set(data["redundant"])
    return RedundancyResult(
        redundant=redundant,
        kept=[i for i in range(n_input) if i not in redundant],
        n_promising_pairs=data["n_promising_pairs"],
        n_alignments=data["n_alignments"],
        containments=[tuple(pair) for pair in data["containments"]],
    )


def clustering_payload(ccd: "ClusteringResult") -> dict[str, Any]:
    return {
        "components": [list(c) for c in ccd.components],
        "n_promising_pairs": ccd.n_promising_pairs,
        "n_filtered": ccd.n_filtered,
        "n_alignments": ccd.n_alignments,
        "n_merges": ccd.n_merges,
    }


def clustering_from_payload(data: dict[str, Any]) -> "ClusteringResult":
    from repro.pace.clustering import ClusteringResult

    return ClusteringResult(
        components=[list(c) for c in data["components"]],
        n_promising_pairs=data["n_promising_pairs"],
        n_filtered=data["n_filtered"],
        n_alignments=data["n_alignments"],
        n_merges=data["n_merges"],
    )


def bipartite_payload(graphs: "ComponentGraphs") -> dict[str, Any] | None:
    """Checkpoint payload for the bipartite phase, or None for the
    domain reduction (alignment-free — cheaper to recompute than to
    serialise its w-mer graphs)."""
    if graphs.reduction != "global":
        return None
    # Recover each component's undirected local edge set from the
    # duplicate-bipartite columns (both directions plus the self loop;
    # u < v picks each undirected edge exactly once, in sorted order).
    # Rebuilding with duplicate_bipartite over this canonical set is
    # bit-identical to the original construction.
    edge_lists = []
    for graph in graphs.graphs:
        u = np.repeat(np.arange(graph.n_left), np.diff(graph.offsets))
        upper = u < graph.targets
        edge_lists.append(np.stack([u[upper], graph.targets[upper]], axis=1).tolist())
    return {
        "reduction": graphs.reduction,
        "components": [list(c) for c in graphs.components],
        "edges": edge_lists,
        "n_alignments": graphs.n_alignments,
        "n_edges": graphs.n_edges,
    }


def bipartite_from_payload(data: dict[str, Any]) -> "ComponentGraphs":
    """The phase result from its payload.  A journal written before the
    B_d graphs held the only copy of the edges also carries a
    ``"neighbors"`` adjacency; it is the same edge set, and ignored."""
    from repro.graph.bipartite import duplicate_bipartite
    from repro.pace.bipartite_gen import ComponentGraphs

    return ComponentGraphs(
        components=[list(c) for c in data["components"]],
        graphs=[duplicate_bipartite(len(members), edges, labels=members)
                for members, edges in zip(data["components"], data["edges"])],
        n_alignments=data["n_alignments"],
        n_edges=data["n_edges"],
        reduction=data["reduction"],
    )


def dense_payload(dense: "DsdResult") -> dict[str, Any]:
    return {"subgraphs": [list(sg) for sg in dense.subgraphs]}


def dense_from_payload(data: dict[str, Any]) -> "DsdResult":
    from repro.pace.densesub import DsdResult

    return DsdResult(subgraphs=[tuple(sg) for sg in data["subgraphs"]])


# -- journal ----------------------------------------------------------------


def _frame(record: dict[str, Any]) -> str:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {payload}\n"


def _parse_line(line: str) -> dict[str, Any] | None:
    """Decode one framed line; None if torn or corrupt."""
    if len(line) < 10 or line[8] != " ":
        return None
    crc_hex, payload = line[:8], line[9:].rstrip("\n")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def read_journal(path: "str | Path") -> list[dict[str, Any]]:
    """Parse the valid prefix of a journal; stops at the first bad line.

    Torn tails are expected after a crash and are simply dropped —
    every record *before* the damage was individually CRC-framed and
    fsync-ordered, so the prefix is trustworthy.
    """
    records: list[dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                record = _parse_line(line)
                if record is None:
                    break
                records.append(record)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return records


def validate_meta(records: Sequence[dict[str, Any]], *, path: "str | Path",
                  config_dig: str, input_dig: str, n_input: int) -> None:
    """Check a parsed journal's ``meta`` record against this run.

    Raises :class:`CheckpointError` when the journal is empty, from a
    different schema/newer ``schema_version``, or belongs to another
    (config, input) pair.  Shared by :meth:`CheckpointJournal.resume`
    and the read-only loaders (``repro serve``).
    """
    if not records or records[0].get("type") != "meta":
        raise CheckpointError(
            f"checkpoint {path} has no valid meta record; cannot resume"
        )
    meta = records[0]
    if meta.get("schema") != SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {meta.get('schema')!r} is not {SCHEMA!r}"
        )
    # Journals that predate the field are version 1 — always
    # readable.  A *higher* version than ours means record types we
    # could misinterpret; refuse instead of half-reading.
    version = int(meta.get("schema_version", 1))
    if version > SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema_version {version} is newer than this "
            f"reader's {SCHEMA_VERSION}; upgrade repro to resume it"
        )
    if meta.get("config") != config_dig:
        raise CheckpointError(
            "checkpoint was written under a different configuration; "
            "resume with the original parameters"
        )
    if meta.get("input") != input_dig or meta.get("n_input") != n_input:
        raise CheckpointError(
            "checkpoint was written for a different input set"
        )


@dataclass
class ResumeState:
    """What a parsed journal says is already done."""

    phase_payloads: dict[str, dict[str, Any]] = field(default_factory=dict)
    ccd_unions: list[tuple[int, int]] = field(default_factory=list)
    started: list[str] = field(default_factory=list)
    serve_inserts: list[dict[str, Any]] = field(default_factory=list)
    #: Global insert ordinal of each entry of ``serve_inserts`` (the
    #: record's ``seq`` field).  After a snapshot compacted the journal
    #: these no longer start at 0; records written before the field
    #: existed are numbered by position.
    serve_insert_seqs: list[int] = field(default_factory=list)

    def has(self, phase: str) -> bool:
        """True iff ``phase`` *and every earlier phase* checkpointed."""
        for name in PHASE_ORDER:
            if name not in self.phase_payloads:
                return False
            if name == phase:
                return True
        return False

    def payload(self, phase: str) -> dict[str, Any]:
        return self.phase_payloads[phase]

    @classmethod
    def from_records(cls, records: Sequence[dict[str, Any]]) -> "ResumeState":
        state = cls()
        unknown: set[str] = set()
        for record in records:
            kind = record.get("type")
            if kind == "phase_start":
                state.started.append(record["phase"])
            elif kind == "ccd_union":
                state.ccd_unions.append((record["i"], record["j"]))
            elif kind == "phase_done":
                state.phase_payloads[record["phase"]] = record["data"]
            elif kind == "serve_insert":
                seq = record.get("seq")
                if not isinstance(seq, int):
                    # Pre-snapshot journals carry no ordinal; they are
                    # never compacted, so position == ordinal.
                    seq = (state.serve_insert_seqs[-1] + 1
                           if state.serve_insert_seqs else 0)
                state.serve_inserts.append(record["data"])
                state.serve_insert_seqs.append(seq)
            elif kind not in KNOWN_RECORD_TYPES and kind not in unknown:
                unknown.add(str(kind))
                warnings.warn(
                    f"checkpoint journal: skipping unknown record type "
                    f"{kind!r} (written by a newer repro?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return state


class CheckpointJournal:
    """Writer (and resume loader) for one run's checkpoint journal.

    Open fresh with :meth:`start` or against an existing run dir with
    :meth:`resume`; both validate the run-identity digests so a journal
    can never silently resume a *different* computation.
    """

    def __init__(self, path: Path, fh, resume_state: ResumeState | None,
                 injector: "FaultInjector | None" = None):
        self.path = path
        self._fh = fh
        self.resume_state = resume_state
        self._injector = injector
        self._pending = 0
        self._current_phase = ""
        self._closed = False
        # Next serve_insert global ordinal: continues the journal's
        # numbering so snapshot coverage stays meaningful even after
        # the covered prefix was compacted away.
        self._next_serve_seq = 0
        if resume_state is not None and resume_state.serve_insert_seqs:
            self._next_serve_seq = resume_state.serve_insert_seqs[-1] + 1

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _meta(config_dig: str, input_dig: str, n_input: int) -> dict[str, Any]:
        return {"type": "meta", "schema": SCHEMA,
                "schema_version": SCHEMA_VERSION, "config": config_dig,
                "input": input_dig, "n_input": n_input}

    @classmethod
    def start(cls, run_dir: "str | Path", *, config_dig: str,
              input_dig: str, n_input: int,
              injector: "FaultInjector | None" = None) -> "CheckpointJournal":
        """Begin a fresh journal (truncates any previous one)."""
        run_path = Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
        path = run_path / CHECKPOINT_NAME
        fh = open(path, "w", encoding="utf-8")
        journal = cls(path, fh, None, injector)
        journal._append(cls._meta(config_dig, input_dig, n_input), flush=True)
        return journal

    @classmethod
    def resume(cls, run_dir: "str | Path", *, config_dig: str,
               input_dig: str, n_input: int,
               injector: "FaultInjector | None" = None) -> "CheckpointJournal":
        """Reopen an interrupted run's journal for continuation.

        Parses the valid prefix, checks it belongs to this exact
        (config, input) pair, atomically rewrites the prefix to drop
        any torn tail, and reopens for append.
        """
        path = Path(run_dir) / CHECKPOINT_NAME
        if not path.exists():
            raise CheckpointError(
                f"no checkpoint journal at {path}; was this run started "
                f"with --run-dir?"
            )
        records = read_journal(path)
        validate_meta(records, path=path, config_dig=config_dig,
                      input_dig=input_dig, n_input=n_input)
        # Amputate any torn tail atomically: write the valid prefix to a
        # temp file, fsync, rename over the original.
        tmp = path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            for record in records:
                out.write(_frame(record))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
        fh = open(path, "a", encoding="utf-8")
        state = ResumeState.from_records(records[1:])
        return cls(path, fh, state, injector)

    # -- writing -----------------------------------------------------------

    def _fsync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0

    def _append(self, record: dict[str, Any], *, flush: bool) -> None:
        if self._closed:
            raise CheckpointError("checkpoint journal is closed")
        self._fh.write(_frame(record))
        self._pending += 1
        obs.count("checkpoint.records")
        if flush or self._pending >= UNION_FLUSH_EVERY:
            self._fsync()
        if (self._injector is not None
                and self._injector.abort_after_append(self._current_phase)):
            # Deliberate master abort: everything appended so far is
            # made durable first, then the process dies without
            # unwinding — the resume test's SIGKILL stand-in.
            self._fsync()
            obs.count("faults.injected")
            os._exit(70)

    def phase_start(self, phase: str) -> None:
        self._current_phase = phase
        self._append({"type": "phase_start", "phase": phase}, flush=True)

    def ccd_union(self, gi: int, gj: int) -> None:
        """Journal one accepted CCD union (global indices, merge only)."""
        self._append({"type": "ccd_union", "i": gi, "j": gj}, flush=False)

    def serve_insert(self, data: dict[str, Any]) -> int:
        """Journal one serving-time insert decision (see
        :mod:`repro.serve.incremental`).  Flushed per record: an insert
        acknowledged to a client must survive a crash.  Each record is
        stamped with its global insert ordinal ``seq`` (monotonic
        across compactions); returns the ordinal used."""
        seq = self._next_serve_seq
        self._append({"type": "serve_insert", "seq": seq, "data": data},
                     flush=True)
        self._next_serve_seq = seq + 1
        return seq

    def compact_serve_inserts(self, keep_from: int) -> int:
        """Drop journaled ``serve_insert`` records with ``seq`` below
        ``keep_from`` (they are covered by a durable snapshot).

        Rewrites the journal atomically — valid prefix to a temp file,
        fsync, ``os.replace`` — exactly the torn-tail-amputation
        discipline of :meth:`resume`, then reopens for append.  Must
        only be called from the journal's single writer thread (the
        serve applier) with no append in flight; every serve_insert is
        already fsynced per record, so reading the file back sees all
        of them.  Returns the number of records dropped.
        """
        if self._closed:
            raise CheckpointError("checkpoint journal is closed")
        if keep_from < 0:
            raise ValueError(f"keep_from must be >= 0, got {keep_from}")
        self._fsync()
        records = read_journal(self.path)
        kept: list[dict[str, Any]] = []
        dropped = 0
        fallback_seq = 0
        for record in records:
            if record.get("type") != "serve_insert":
                kept.append(record)
                continue
            seq = record.get("seq")
            if not isinstance(seq, int):
                seq = fallback_seq
            fallback_seq = seq + 1
            if seq < keep_from:
                dropped += 1
            else:
                kept.append(record)
        if not dropped:
            return 0
        self._fh.close()
        tmp = self.path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as out:
            for record in kept:
                out.write(_frame(record))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, self.path)
        self._fh = open(self.path, "a", encoding="utf-8")
        obs.count("checkpoint.compactions")
        return dropped

    def phase_done(self, phase: str, data: dict[str, Any]) -> None:
        self._append({"type": "phase_done", "phase": phase, "data": data},
                     flush=True)
        self._current_phase = ""
        if self._injector is not None:
            drop = self._injector.truncation_for(phase)
            if drop is not None:
                self._torn_crash(drop)

    def _torn_crash(self, drop_bytes: int) -> None:
        """truncate_checkpoint fault: chop the journal tail, then die —
        a torn final write followed by a crash, in one deterministic
        primitive."""
        self._fsync()
        size = os.path.getsize(self.path)
        os.truncate(self.path, max(0, size - drop_bytes))
        obs.count("faults.injected")
        os._exit(71)

    def close(self) -> None:
        if self._closed:
            return
        self._fsync()
        self._fh.close()
        self._closed = True
