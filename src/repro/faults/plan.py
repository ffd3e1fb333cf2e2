"""Deterministic fault injection: seed-driven plans, master-side arming.

The recovery machinery of :mod:`repro.runtime.process` (task requeue,
worker respawn, poison quarantine) and :mod:`repro.core.checkpoint`
(crash-consistent journal, resume) is only trustworthy if it can be
exercised *reproducibly*.  A :class:`FaultPlan` is a frozen, JSON-
serialisable list of faults keyed by deterministic coordinates — phase
name, worker slot, dispatch ordinal — never by wall-clock time, so the
same plan on the same input injects the same faults on every run.

Faults are **armed on the master** and, for worker-task kinds, shipped
to the worker as a marker inside the task message; the worker executes
the marker (``os._exit`` / ``time.sleep``) before touching the payload.
This keeps injection out of every scientific kernel: a kill fault
destroys a worker *before* it produces a result, so recovery — not the
fault — decides what the master absorbs, and the scientific counters
must come out bit-identical to a fault-free run (the ``repro chaos``
contract).

Kinds
-----
``kill_worker``
    SIGKILL-equivalent: worker ``worker`` calls ``os._exit`` on its
    ``at_task``-th task receipt in ``phase`` (first incarnation only —
    a respawned worker is never re-killed by the same fault).
``delay_task``
    Same coordinates; the worker sleeps ``seconds`` before computing.
    Exercises the task-deadline hang detector and backpressure.
``poison_task``
    The ``at_task``-th *new* task of ``phase`` is marked poisoned: every
    worker it is dispatched to dies.  Two deaths trigger the backend's
    quarantine path (computed in-master).
``truncate_checkpoint``
    After journaling ``phase_done`` for ``phase``, chop ``drop_bytes``
    off the journal tail and exit — a torn final write plus crash.
``abort_master``
    Exit the master (``os._exit(70)``) after ``after_records`` journal
    records of ``phase`` have been appended and fsynced — the
    SIGKILL-mid-CCD scenario behind ``repro run --resume``.
``serve_delay_insert``
    The daemon's applier sleeps ``seconds`` before applying its
    ``at_task``-th insert — the slow-applier scenario that drives the
    bounded queue into ``overloaded`` sheds.
``serve_journal_error``
    The ``at_task``-th insert's journal append raises ``OSError``
    (disk-full stand-in) — the daemon must degrade to read-only with
    its live state unmutated.
``serve_kill_applier``
    The applier thread dies mid-insert *after* the decision is
    journaled but before it commits — restart must replay it.
``serve_kill_daemon``
    The whole daemon calls ``os._exit(73)`` on its ``at_task``-th
    insert, after the journal append — SIGKILL mid-batch.

Serve kinds are addressed by the daemon-wide insert ordinal alone
(``at_task``); ``phase``/``worker`` do not apply and must stay at
their defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterable

WORKER_FAULT_KINDS = ("kill_worker", "delay_task", "poison_task")
CHECKPOINT_FAULT_KINDS = ("truncate_checkpoint", "abort_master")
SERVE_FAULT_KINDS = (
    "serve_delay_insert",
    "serve_journal_error",
    "serve_kill_applier",
    "serve_kill_daemon",
)
FAULT_KINDS = WORKER_FAULT_KINDS + CHECKPOINT_FAULT_KINDS + SERVE_FAULT_KINDS

#: Pipeline phase names a fault may target ("" = any phase, worker-task
#: kinds only).
PHASES = ("redundancy", "clustering", "bipartite", "dense_subgraphs")

#: Exit code of a deliberate ``abort_master`` fault (distinguishable
#: from real crashes in tests and CI logs).
ABORT_EXIT_CODE = 70
#: Exit code after a ``truncate_checkpoint`` fault fired.
TRUNCATE_EXIT_CODE = 71
#: Exit code of a deliberate ``serve_kill_daemon`` fault.
SERVE_KILL_EXIT_CODE = 73


class FaultPlanError(ValueError):
    """A fault plan is malformed (bad kind, phase, or field value)."""


@dataclass(frozen=True)
class Fault:
    """One injectable fault, addressed by deterministic coordinates.

    ``phase`` may be ``""`` (any phase) for the worker-task kinds;
    checkpoint kinds must name the phase whose journal records they
    target.  ``at_task`` counts dispatches from zero: for ``kill`` and
    ``delay`` it is the ordinal of task *sends to that worker slot*
    (requeued tasks count — the coordinate tracks what the worker sees);
    for ``poison`` it is the ordinal of *new* tasks in the phase.
    """

    kind: str
    phase: str = ""
    worker: int = 0
    at_task: int = 0
    seconds: float = 0.25
    after_records: int = 1
    drop_bytes: int = 24

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(FAULT_KINDS)}"
            )
        if self.phase and self.phase not in PHASES:
            raise FaultPlanError(
                f"unknown phase {self.phase!r}; "
                f"expected one of {', '.join(PHASES)} (or '' for any)"
            )
        if self.kind in CHECKPOINT_FAULT_KINDS and not self.phase:
            raise FaultPlanError(
                f"{self.kind} faults must name a target phase"
            )
        if self.kind in SERVE_FAULT_KINDS and (self.phase or self.worker):
            raise FaultPlanError(
                f"{self.kind} faults are addressed by insert ordinal "
                f"only; phase/worker do not apply"
            )
        if self.worker < 0:
            raise FaultPlanError(f"worker must be >= 0, got {self.worker}")
        if self.at_task < 0:
            raise FaultPlanError(f"at_task must be >= 0, got {self.at_task}")
        if self.seconds < 0.0:
            raise FaultPlanError(f"seconds must be >= 0, got {self.seconds}")
        if self.after_records < 1:
            raise FaultPlanError(
                f"after_records must be >= 1, got {self.after_records}"
            )
        if self.drop_bytes < 1:
            raise FaultPlanError(
                f"drop_bytes must be >= 1, got {self.drop_bytes}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fault":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, JSON-round-trippable set of faults."""

    faults: tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def of_kind(self, *kinds: str) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind in kinds)

    @property
    def checkpoint_faults(self) -> tuple[Fault, ...]:
        return self.of_kind(*CHECKPOINT_FAULT_KINDS)

    @property
    def serve_faults(self) -> tuple[Fault, ...]:
        return self.of_kind(*SERVE_FAULT_KINDS)

    # -- serialisation -----------------------------------------------------

    def to_json(self, *, indent: int | None = 2) -> str:
        doc = {
            "schema": "repro-faultplan/1",
            "faults": [f.to_dict() for f in self.faults],
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "faults" not in doc:
            raise FaultPlanError("fault plan must be an object with 'faults'")
        schema = doc.get("schema", "repro-faultplan/1")
        if schema != "repro-faultplan/1":
            raise FaultPlanError(f"unsupported fault-plan schema {schema!r}")
        raw = doc["faults"]
        if not isinstance(raw, list):
            raise FaultPlanError("'faults' must be a list")
        return cls(tuple(Fault.from_dict(item) for item in raw))

    def dump(self, path: "str | Path") -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: "str | Path") -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_json(text)

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        workers: int = 2,
        n_faults: int = 3,
        kinds: Iterable[str] = WORKER_FAULT_KINDS,
    ) -> "FaultPlan":
        """A deterministic plan of worker-task faults.

        Seeding goes through :func:`repro.util.rng.make_rng` with its
        own label, so a plan is a pure function of ``seed`` and the
        arguments — same seed, same plan, same injected faults.
        """
        from repro.util.rng import make_rng

        pool = tuple(kinds)
        for kind in pool:
            if kind not in WORKER_FAULT_KINDS:
                raise FaultPlanError(
                    f"random plans only draw worker-task kinds, got {kind!r}"
                )
        if workers < 1:
            raise FaultPlanError(f"workers must be >= 1, got {workers}")
        rng = make_rng(seed, "fault-plan")
        target_phases = ("redundancy", "clustering", "bipartite")
        faults = []
        for _ in range(n_faults):
            kind = pool[int(rng.integers(len(pool)))]
            faults.append(Fault(
                kind=kind,
                phase=target_phases[int(rng.integers(len(target_phases)))],
                worker=int(rng.integers(workers)),
                at_task=int(rng.integers(2)),
                seconds=round(float(rng.uniform(0.01, 0.05)), 3),
            ))
        return cls(tuple(faults))


@dataclass
class FaultInjector:
    """Stateful master-side arming of one :class:`FaultPlan`.

    The injector owns every dispatch ordinal counter; backends call the
    query methods at well-defined points and attach the returned markers
    to outgoing tasks.  Each fault fires at most once (``consumed``),
    and at most one fault fires per query, so a plan's effect is a pure
    function of the dispatch sequence.
    """

    plan: FaultPlan
    _consumed: set[int] = field(default_factory=set)
    _sends: dict[tuple[str, int], int] = field(default_factory=dict)
    _new_tasks: dict[str, int] = field(default_factory=dict)
    _phase_records: dict[str, int] = field(default_factory=dict)
    _serve_inserts: int = 0
    last_fired: int = -1
    """Plan index of the worker-task fault the latest query consumed —
    what a backend stamps on its ``fault.injected`` event so a chaos
    report can say which planned faults actually fired."""

    def _bump(self, table: dict, key: Any) -> int:
        ordinal = table.get(key, 0)
        table[key] = ordinal + 1
        return ordinal

    # -- worker-task faults ------------------------------------------------

    def marker_for_send(self, phase: str, worker: int) -> tuple | None:
        """Fault marker for the next task send to ``worker`` in ``phase``.

        Returns ``("die",)`` (kill) or ``("delay", seconds)``, or None.
        Must be called exactly once per send to a first-incarnation
        worker; the call advances both the phase-scoped and the
        any-phase ordinal for that slot.
        """
        ordinals = {
            phase: self._bump(self._sends, (phase, worker)),
            "": self._bump(self._sends, ("", worker)),
        }
        for idx, fault in enumerate(self.plan.faults):
            if idx in self._consumed:
                continue
            if fault.kind not in ("kill_worker", "delay_task"):
                continue
            if fault.worker != worker or (fault.phase and fault.phase != phase):
                continue
            if ordinals[fault.phase if fault.phase == phase else ""] != fault.at_task:
                continue
            self._consumed.add(idx)
            self.last_fired = idx
            if fault.kind == "kill_worker":
                return ("die",)
            return ("delay", fault.seconds)
        return None

    def poison_new_task(self, phase: str) -> bool:
        """Whether the next *new* task of ``phase`` is poisoned."""
        ordinals = {
            phase: self._bump(self._new_tasks, phase),
            "": self._bump(self._new_tasks, ""),
        }
        for idx, fault in enumerate(self.plan.faults):
            if idx in self._consumed or fault.kind != "poison_task":
                continue
            if fault.phase and fault.phase != phase:
                continue
            if ordinals[fault.phase if fault.phase == phase else ""] != fault.at_task:
                continue
            self._consumed.add(idx)
            self.last_fired = idx
            return True
        return False

    # -- serve faults ------------------------------------------------------

    def serve_insert_marker(self) -> tuple | None:
        """Fault marker for the daemon's next applied insert.

        Called by the applier exactly once per insert it is about to
        apply (the call advances the daemon-wide insert ordinal).
        Returns ``("delay", seconds)``, ``("journal_error",)``,
        ``("kill_applier",)``, ``("kill_daemon",)``, or None.
        """
        ordinal = self._serve_inserts
        self._serve_inserts = ordinal + 1
        for idx, fault in enumerate(self.plan.faults):
            if idx in self._consumed or fault.kind not in SERVE_FAULT_KINDS:
                continue
            if ordinal != fault.at_task:
                continue
            self._consumed.add(idx)
            if fault.kind == "serve_delay_insert":
                return ("delay", fault.seconds)
            return (fault.kind.removeprefix("serve_"),)
        return None

    # -- checkpoint faults -------------------------------------------------

    def abort_after_append(self, phase: str) -> bool:
        """Whether an ``abort_master`` fault fires after this journal
        append (the ``after_records``-th record of ``phase``)."""
        if not phase:
            return False
        appended = self._bump(self._phase_records, phase) + 1
        for idx, fault in enumerate(self.plan.faults):
            if idx in self._consumed or fault.kind != "abort_master":
                continue
            if fault.phase != phase or appended < fault.after_records:
                continue
            self._consumed.add(idx)
            return True
        return False

    def truncation_for(self, phase: str) -> int | None:
        """``drop_bytes`` if a ``truncate_checkpoint`` fault targets the
        just-written ``phase_done`` record of ``phase``."""
        for idx, fault in enumerate(self.plan.faults):
            if idx in self._consumed or fault.kind != "truncate_checkpoint":
                continue
            if fault.phase != phase:
                continue
            self._consumed.add(idx)
            return fault.drop_bytes
        return None
