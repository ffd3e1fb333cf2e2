"""The ``repro serve`` daemon: a line-JSON socket front over ServeState.

Concurrency model — chosen for the journal, not for throughput:

* **reads scale out**: each accepted connection gets a thread; query /
  status / hello take the state lock briefly and answer inline;
* **writes serialise**: the checkpoint journal is single-writer by
  design, so every ``insert`` / ``insert_batch`` becomes a job on one
  bounded queue consumed by a single applier thread.  A queue that
  stays full past the bounded admission wait sheds the request with a
  typed ``overloaded`` error (plus a ``retry_after_ms`` hint) instead
  of blocking the client or buffering unbounded work in memory;
* an insert is acknowledged only after its decision record is flushed
  to the journal, so any acknowledged insert survives SIGKILL and is
  replayed on restart.  The applier journals *before* it commits:
  a journal write failure (disk full) therefore leaves the live state
  unmutated and flips the daemon into **read-only degraded mode** —
  queries keep working, inserts are refused with ``read_only``, the
  ``serve.degraded`` gauge and the ``health`` verb expose it;
* a classification (``query`` with ``residues``) is an insert plan
  that is never committed — the same Definition 1 sweep, tie-break
  included, and the same Definition 2 rounds
  (:mod:`repro.serve.incremental`) — answered as the commit would leave
  the state, so it cannot contradict the insert it predicts; every
  reply that places a sequence (lookup, classification, insert,
  idempotent retry) is built by one resolver, :meth:`_placement`;
* every request may carry a relative ``deadline_ms`` budget; work that
  would finish past the budget is shed with ``deadline_exceeded``
  (a classification checks before its Definition 1 stage and again
  before its Definition 2 stage, inserts while queued);
* retried inserts are **exactly once**: the (sequence id, residues)
  idempotency key is checked against the live state — which is exactly
  the journal's replay — and a duplicate returns its current outcome
  without re-planning or re-journaling;
* with ``snapshot_every`` set, the applier periodically persists a
  digest-validated :mod:`~repro.serve.snapshot` of the state between
  jobs and compacts the covered ``serve_insert`` prefix out of the
  journal, so restart cost stops growing with insert history.

Request tracing & SLO metrics (DESIGN.md §12): every received line gets
a :class:`repro.obs.request.RequestContext` — a monotonic request id
plus a private child recorder installed thread-locally around parsing,
dispatch, and the ack, and re-installed on the applier thread for the
insert hand-off — so each request decomposes into ``parse ->
candidates -> myers_reject -> dp -> journal_fsync -> ack`` stage spans
with per-request counters.  On completion the child's counters merge
into the daemon recorder, the request duration lands in a per-verb
:class:`repro.obs.hist.LatencyHistogram`, and stage seconds accumulate
per verb; requests over ``slow_ms`` additionally have their span tree
absorbed onto the connection's lane and written as a ``slow_request``
record into the daemon's one telemetry stream (tail sampling — fast
requests leave no spans behind).  That stream,
``<run_dir>/telemetry.jsonl``, is written by one
:class:`TelemetrySampler` whose ``serve`` probe is the SLO snapshot —
the record shape of a batch run's stream, rendered by the same
``repro top``.  The ``metrics`` protocol verb answers that snapshot
plus the ``serve.*`` counters.

SIGTERM/SIGINT (and the ``shutdown`` op) drain rather than drop: the
listener closes, queued inserts finish, the journal is fsynced and
closed, then the process exits 0.
"""

from __future__ import annotations

import contextlib
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    config_digest,
    input_digest,
)
from repro.faults.plan import SERVE_KILL_EXIT_CODE, FaultInjector
from repro.obs.core import Recorder, request_recording
from repro.obs.hist import LatencyHistogram
from repro.obs.request import RequestContext
from repro.obs.telemetry import DEFAULT_INTERVAL, TelemetrySampler
from repro.sequence.record import SequenceRecord
from repro.serve import protocol
from repro.serve.incremental import (
    InsertPlan,
    commit_insert,
    plan_candidates,
    plan_containment,
    plan_insert,
    plan_overlaps,
    planned_families,
)
from repro.serve.snapshot import write_snapshot
from repro.serve.state import ServeState
from repro.util.lockwatch import named_lock, named_rlock

#: Default cap on queued insert jobs before admission control sheds.
DEFAULT_MAX_QUEUE = 64

#: Default bounded wait (seconds) for a queue slot before a request is
#: refused with ``overloaded``.
DEFAULT_QUEUE_WAIT = 0.5

#: Default cap on records in one ``insert_batch`` request — the
#: per-connection in-flight bound (the protocol is one request at a
#: time per connection, so batch size is a connection's whole possible
#: in-flight contribution).
DEFAULT_MAX_BATCH_RECORDS = 512

#: File written next to the journal with the bound "host port" (lets
#: scripts discover an ephemeral port without parsing logs).
ADDR_FILENAME = "serve.addr"

#: Requests slower than this (milliseconds) dump their span tree.
DEFAULT_SLOW_MS = 250.0

#: Metrics snapshot schema tag (the `metrics` verb response body).
METRICS_SCHEMA = "repro-serve-metrics/1"

#: Histogram/stage bucket for lines that failed to parse or validate
#: (no verb to attribute them to, but their latency is still real).
REJECTED_VERB = "rejected"


@dataclass
class _InsertJob:
    """One queued insert batch; ``done`` fires after journal flush.

    ``recorder`` is the enqueuing request's child recorder: the applier
    re-installs it thread-locally while applying this job, so the
    insert's stage spans and counters stay attributed to the request
    even though it changed threads.
    """

    records: list[dict[str, str]]
    recorder: Recorder | None = None
    results: list[dict[str, Any]] = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    #: Job-level failure (applier died, daemon shutting down) — the
    #: enqueuing request surfaces it as a typed error response.
    error: str | None = None


class _ApplierKill(Exception):
    """Injected applier death (``serve_kill_applier`` fault)."""


class ServeServer:
    """One daemon instance bound to one ServeState (and its journal)."""

    def __init__(
        self,
        state: ServeState,
        *,
        journal: CheckpointJournal | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        run_dir: str | Path | None = None,
        recorder: Recorder | None = None,
        slow_ms: float = DEFAULT_SLOW_MS,
        telemetry_interval: float = DEFAULT_INTERVAL,
        queue_wait: float = DEFAULT_QUEUE_WAIT,
        default_deadline_ms: float | None = None,
        max_batch_records: int = DEFAULT_MAX_BATCH_RECORDS,
        snapshot_every: int = 0,
        snapshot_covered: int | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if slow_ms < 0:
            raise ValueError(f"slow_ms must be >= 0, got {slow_ms}")
        if queue_wait < 0:
            raise ValueError(f"queue_wait must be >= 0, got {queue_wait}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        if max_batch_records < 1:
            raise ValueError(
                f"max_batch_records must be >= 1, got {max_batch_records}"
            )
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.state = state
        self.journal = journal
        self.host = host
        self.port = port
        self.run_dir = Path(run_dir) if run_dir is not None else None
        if recorder is None:
            recorder = Recorder(meta={"mode": "serve"})
        #: Daemon-lifetime recorder: request counters merge into it,
        #: slow-request span trees are absorbed onto connection lanes.
        self.recorder = recorder
        self.slow_ms = slow_ms
        self.telemetry_interval = telemetry_interval
        #: The daemon's one telemetry stream (started with a run dir).
        self.sampler: TelemetrySampler | None = None
        self.queue_wait = queue_wait
        self.default_deadline_ms = default_deadline_ms
        self.max_batch_records = max_batch_records
        #: Applied inserts between snapshots (0 disables snapshotting).
        self.snapshot_every = snapshot_every
        self.injector = injector
        self._lock = named_rlock("ServeServer._lock")
        self._queue: "queue.Queue[_InsertJob]" = queue.Queue(maxsize=max_queue)
        self._stop = threading.Event()
        #: Read-only degraded mode (set on journal write failure or
        #: applier death); queries keep working, inserts are refused.
        self._degraded = threading.Event()
        self.degraded_reason: str | None = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._applier: threading.Thread | None = None
        # Snapshot bookkeeping — applier-thread only, no lock needed.
        self._applied_since_snapshot = 0
        self._last_snapshot_covered = snapshot_covered
        self._snapshot_digests: tuple[str, str] | None = None
        self.address: tuple[str, int] | None = None
        # Per-verb latency histograms + summed stage seconds, both
        # guarded by one short-critical-section lock (one acquisition
        # per finished request, plus metrics snapshots).
        self._metrics_lock = named_lock("ServeServer._metrics_lock")
        self._hists: dict[str, LatencyHistogram] = {}  # guarded by _metrics_lock
        self._stage_seconds: dict[str, dict[str, float]] = {}  # guarded by _metrics_lock
        # Connection lanes: lane 0 is the daemon master, each accepted
        # connection claims the next lane for its requests' spans.
        self._lane_lock = named_lock("ServeServer._lane_lock")
        self._lanes_claimed = 0  # guarded by _lane_lock

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the listener and start the applier; returns (host, port).

        Raises ``OSError`` (EADDRINUSE) when the port is taken — the
        CLI maps that to exit 2.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError:
            listener.close()
            raise
        listener.listen(128)
        listener.settimeout(0.2)  # poll the stop flag between accepts
        self._listener = listener
        self.address = (self.host, listener.getsockname()[1])
        if self.run_dir is not None:
            (self.run_dir / ADDR_FILENAME).write_text(
                f"{self.address[0]} {self.address[1]}\n", encoding="utf-8"
            )
            self.sampler = TelemetrySampler(
                self.recorder, self.run_dir,
                interval=self.telemetry_interval,
                probes={"serve": self.metrics_snapshot},
            ).start()
        self.recorder.gauge("serve.degraded", 0)
        applier = threading.Thread(
            target=self._apply_inserts, name="serve-applier", daemon=True
        )
        applier.start()
        self._threads.append(applier)
        self._applier = applier
        return self.address

    def serve_forever(self, *, install_signals: bool = False) -> None:
        """Accept connections until stopped; then drain and close.

        ``install_signals=True`` (the CLI path; requires the main
        thread) maps SIGTERM/SIGINT onto :meth:`request_stop`.
        """
        if self._listener is None:
            self.start()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda *_: self.request_stop())
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during shutdown
            self.recorder.count("serve.connections")
            worker = threading.Thread(
                target=self._handle_connection,
                args=(conn, self._claim_lane()),
                name="serve-conn", daemon=True,
            )
            worker.start()
            self._threads.append(worker)
        self._drain_and_close()

    def run_in_thread(self) -> threading.Thread:
        """Test/benchmark helper: serve from a background thread."""
        self.start()
        thread = threading.Thread(
            target=self.serve_forever, name="serve-accept", daemon=True
        )
        thread.start()
        return thread

    def request_stop(self) -> None:
        """Begin graceful shutdown (signal-handler and op safe)."""
        self._stop.set()

    def _drain_and_close(self) -> None:
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        if self._applier_alive():
            self._queue.join()  # finish every accepted insert
        else:
            # A dead applier can never drain the queue; fail whatever
            # is still parked on it so waiting clients get an answer.
            self._fail_pending_jobs("daemon stopping with a dead applier")
        self._stop.set()
        if self.sampler is not None:
            self.sampler.stop("finished")
        if self.journal is not None:
            # In degraded mode the journal may already be unwritable;
            # close() flushing into a dead disk must not mask shutdown.
            with contextlib.suppress(OSError, CheckpointError):
                self.journal.close()

    def _applier_alive(self) -> bool:
        return self._applier is not None and self._applier.is_alive()

    def _enter_degraded(self, reason: str) -> None:
        """Flip to read-only mode (idempotent; first reason wins)."""
        if not self._degraded.is_set():
            self.degraded_reason = reason
            self._degraded.set()
            self.recorder.gauge("serve.degraded", 1)

    def _fail_pending_jobs(self, reason: str) -> None:
        """Answer every queued-but-unapplied job with a job error."""
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            job.error = reason
            job.done.set()
            self._queue.task_done()

    def _claim_lane(self) -> int:
        with self._lane_lock:
            self._lanes_claimed += 1
            return self._lanes_claimed

    # -- insert applier ----------------------------------------------------

    def _apply_inserts(self) -> None:
        """Single consumer of the insert queue (journal single-writer)."""
        while True:
            try:
                job = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            started = self.recorder.now()
            try:
                # Re-install the request's child recorder on this
                # thread so the insert's spans/counters stay with the
                # request across the queue hand-off.
                scope = (request_recording(job.recorder)
                         if job.recorder is not None
                         else contextlib.nullcontext())
                with scope:
                    for record in job.records:
                        if self._degraded.is_set():
                            obs.count("serve.readonly_refused")
                            job.results.append({
                                "id": record.get("id"), "ok": False,
                                "code": "read_only",
                                "error": "daemon is read-only "
                                         f"({self.degraded_reason})",
                            })
                            continue
                        job.results.append(self._apply_one(record))
                # Snapshot + compaction piggyback on the applier between
                # jobs, before task_done: `_queue.join()` (drain, stop)
                # therefore cannot return mid-compaction, and the sole
                # state mutator never mutates while persisting.
                self._maybe_snapshot()
            except _ApplierKill:
                job.error = "applier killed by injected fault"
                self._enter_degraded("applier died mid-insert")
                self._fail_pending_jobs("applier died mid-insert")
                return
            finally:
                self.recorder.count("serve.applier_busy_seconds",
                                    self.recorder.now() - started)
                self.recorder.gauge("serve.queue_depth", self._queue.qsize())
                job.done.set()
                self._queue.task_done()

    def _apply_one(self, record: dict[str, str]) -> dict[str, Any]:
        # Plan (all the DP) runs lock-free: this applier thread is the
        # state's only mutator, so its own reads cannot be torn.  The
        # lock covers only the mutation (commit).  Ordering is
        # idempotency-check -> plan -> journal -> commit -> ack: a
        # journal failure leaves the live state unmutated (clean
        # read-only degrade), and acked inserts are always journaled.
        # A crash between journal and commit leaves a journaled-but-
        # unacked insert — replayed on restart, deduped on retry.
        seq_id, residues = record["id"], record["residues"]
        try:
            duplicate = self._idempotent_outcome(seq_id, residues)
            if duplicate is not None:
                return duplicate
            plan = plan_insert(self.state, seq_id, residues)
            marker = (self.injector.serve_insert_marker()
                      if self.injector is not None else None)
            if marker is not None and marker[0] == "delay":
                time.sleep(marker[1])
            if self.journal is not None:
                if marker is not None and marker[0] == "journal_error":
                    raise OSError("injected journal write failure")
                with obs.span("journal_fsync", cat="stage"):
                    self.journal.serve_insert(plan.decision)
            if marker is not None and marker[0] == "kill_daemon":
                os._exit(SERVE_KILL_EXIT_CODE)
            if marker is not None and marker[0] == "kill_applier":
                raise _ApplierKill()
            with self._lock:
                outcome = commit_insert(self.state, plan)
                placement = self._placement(outcome["index"])
            self._applied_since_snapshot += 1
            return {
                "id": seq_id,
                "ok": True,
                **placement,
                "n_candidates": outcome["n_candidates"],
                "n_alignments": outcome["n_alignments"],
                "n_merges": outcome["n_merges"],
            }
        except (OSError, CheckpointError) as exc:
            self._enter_degraded(f"journal write failed: {exc}")
            return {
                "id": seq_id, "ok": False, "code": "read_only",
                "error": f"journal write failed; daemon is now "
                         f"read-only: {exc}",
            }
        except ValueError as exc:
            return {"id": record.get("id"), "ok": False, "error": str(exc)}

    def _idempotent_outcome(
        self, seq_id: str, residues: str
    ) -> dict[str, Any] | None:
        """Exactly-once insert retries: the (id, residues) idempotency
        key resolved against the live state — which *is* the decision
        journal's replay.  A known id with identical residues returns
        its current outcome without re-planning or re-journaling; the
        same id with different residues is a hard per-record error."""
        if seq_id not in self.state.sequences:
            return None
        index = self.state.sequences.index_of(seq_id)
        if self.state.sequences[index].residues != residues:
            return {
                "id": seq_id, "ok": False,
                "error": f"sequence id {seq_id!r} already present with "
                         f"different residues",
            }
        obs.count("serve.idempotent_hits")
        with self._lock:
            return {"id": seq_id, "ok": True, "idempotent": True,
                    **self._placement(index)}

    def _maybe_snapshot(self) -> None:
        """Applier-thread snapshot + journal compaction, when due.

        Failure to snapshot is never fatal — the journal stays the
        authority and the counter/warning surface the problem.  The
        journal is compacted only below the *previous* generation's
        coverage (two-generation retention, see
        :mod:`repro.serve.snapshot`).
        """
        if (not self.snapshot_every or self.run_dir is None
                or self._degraded.is_set()
                or self._applied_since_snapshot < self.snapshot_every):
            return
        if self._snapshot_digests is None:
            base = self.state.sequences.subset(range(self.state.n_base))
            self._snapshot_digests = (
                config_digest(self.state.config), input_digest(base)
            )
        config_dig, input_dig = self._snapshot_digests
        prev_covered = self._last_snapshot_covered
        try:
            write_snapshot(
                self.run_dir, self.state,
                config_dig=config_dig, input_dig=input_dig,
            )
            covered = len(self.state.inserted)
            if self.journal is not None and prev_covered is not None:
                self.journal.compact_serve_inserts(prev_covered)
        except (OSError, CheckpointError):
            obs.count("serve.snapshot_errors")
            return
        self._last_snapshot_covered = covered
        self._applied_since_snapshot = 0

    def _enqueue(
        self, records: list[dict[str, str]], deadline_at: float | None
    ) -> _InsertJob:
        """Admission-controlled hand-off to the applier.

        Sheds instead of blocking: ``read_only`` when degraded or the
        applier is dead, ``overloaded`` (with a retry-after hint) when
        the bounded queue stays full past ``queue_wait``, and
        ``deadline_exceeded`` when the request's budget expires while
        queued.  All three raise :class:`protocol.ProtocolError`, which
        `_respond` turns into the typed error response.
        """
        self._refuse_if_read_only()
        job = _InsertJob(records=records, recorder=obs.active())
        wait = self.queue_wait
        if deadline_at is not None:
            wait = min(wait, max(0.0, deadline_at - self.recorder.now()))
        try:
            self._queue.put(job, timeout=wait)
        except queue.Full:
            obs.count("serve.overloaded")
            raise protocol.ProtocolError(
                "overloaded",
                f"insert queue full after waiting {wait:.3f}s",
                retry_after_ms=round(self.queue_wait * 1e3, 3),
            ) from None
        self.recorder.gauge("serve.queue_depth", self._queue.qsize())
        while not job.done.wait(0.2):
            if deadline_at is not None and self.recorder.now() > deadline_at:
                obs.count("serve.deadline_sheds")
                raise protocol.ProtocolError(
                    "deadline_exceeded",
                    "insert deadline expired while queued",
                )
            if not self._applier_alive():
                # The applier died with this job parked; fail the
                # queue so every waiter (us included) gets an answer.
                self._fail_pending_jobs("applier died mid-insert")
        if job.error is not None:
            self._enter_degraded(job.error)
            obs.count("serve.readonly_refused")
            raise protocol.ProtocolError("read_only", job.error)
        return job

    def _refuse_if_read_only(self) -> None:
        if self._degraded.is_set() or not self._applier_alive():
            obs.count("serve.readonly_refused")
            reason = self.degraded_reason or "applier thread is dead"
            raise protocol.ProtocolError(
                "read_only",
                f"daemon is read-only ({reason}); inserts refused",
            )

    # -- request handling --------------------------------------------------

    def _handle_connection(self, conn: socket.socket, lane: int) -> None:
        conn_file = conn.makefile("rb")
        try:
            while not self._stop.is_set():
                line = conn_file.readline(protocol.MAX_LINE_BYTES + 1)
                if not line:
                    return
                ctx = RequestContext(self.recorder, lane=lane)
                with ctx.install():
                    response, keep_open = self._respond(ctx, line)
                    try:
                        with ctx.stage("ack"):
                            conn.sendall(protocol.encode(response))
                    except OSError:
                        keep_open = False
                self._finish_request(ctx)
                if not keep_open:
                    return
        finally:
            with contextlib.suppress(OSError):
                conn_file.close()
                conn.close()

    def _respond(
        self, ctx: RequestContext, line: bytes
    ) -> tuple[dict[str, Any], bool]:
        """One request line -> (response, keep connection open).

        `serve.errors` accounting contract: every error *response*
        bumps the counter exactly once — framing/validation failures
        here, dispatch-time ProtocolErrors below.  Per-record failures
        inside an ok insert envelope are not error responses and do
        not count.
        """
        obs.count("serve.requests")
        received = self.recorder.now()
        try:
            with ctx.stage("parse"):
                message = protocol.decode_line(line)
                op = protocol.validate_request(message)
        except protocol.ProtocolError as exc:
            obs.count("serve.errors")
            ctx.op = REJECTED_VERB
            # Framing/version errors poison the stream; drop the client.
            fatal = exc.code in ("line_too_long", "bad_json",
                                 "version_mismatch")
            return protocol.error_response(exc.code, str(exc)), not fatal
        ctx.op = op
        # The deadline is a *relative* budget from line receipt (no
        # client/server clock comparison); the daemon's default applies
        # when the request carries none.
        deadline_ms = message.get("deadline_ms", self.default_deadline_ms)
        deadline_at = (received + float(deadline_ms) / 1e3
                       if deadline_ms is not None else None)
        try:
            return self._dispatch(op, message, deadline_at)
        except protocol.ProtocolError as exc:
            obs.count("serve.errors")
            extra: dict[str, Any] = {}
            if exc.retry_after_ms is not None:
                extra["retry_after_ms"] = exc.retry_after_ms
            return protocol.error_response(exc.code, str(exc), **extra), True

    def _finish_request(self, ctx: RequestContext) -> None:
        """Fold one finished request into the daemon's SLO surface."""
        duration = ctx.finish_into_parent()
        verb = ctx.op if ctx.op else REJECTED_VERB
        with self._metrics_lock:
            hist = self._hists.get(verb)
            if hist is None:
                hist = self._hists[verb] = LatencyHistogram()
            hist.record(duration)
            shares = self._stage_seconds.setdefault(verb, {})
            for name, seconds in ctx.stage_seconds().items():
                shares[name] = shares.get(name, 0.0) + seconds
        if duration * 1e3 >= self.slow_ms:
            # Tail sampling: only slow requests ship their span tree
            # into the daemon recorder (onto the connection's lane) and
            # the telemetry stream — fast requests leave counters only,
            # so a long-lived daemon's span memory stays bounded.
            self.recorder.count("serve.slow_requests")
            self.recorder.absorb_wall_spans(
                ctx.recorder.wall_spans(), lane=ctx.lane
            )
            if self.sampler is not None:
                self.sampler.write_record({
                    "type": "slow_request",
                    "request_id": ctx.request_id,
                    "op": verb,
                    "lane": ctx.lane,
                    "threshold_ms": self.slow_ms,
                    "duration_ms": round(duration * 1e3, 4),
                    "wall": ctx.recorder.clock.epoch_wall,
                    "counters": ctx.recorder.counters(),
                    "spans": ctx.span_records(),
                })

    # -- metrics surface ---------------------------------------------------

    def metrics_snapshot(self) -> dict[str, Any]:
        """The SLO surface as one JSON-ready dict — the ``serve`` probe
        of every telemetry sample: per-verb p50/p99/p999 digests,
        per-verb stage seconds, live queue depth.  The counters are not
        in it (the sample carries all of them); the ``metrics`` verb
        adds their ``serve.*`` slice.
        """
        with self._metrics_lock:
            percentiles = {verb: h.summary()
                           for verb, h in self._hists.items()}
            stage_seconds = {
                verb: {name: round(seconds, 6)
                       for name, seconds in stages.items()}
                for verb, stages in self._stage_seconds.items()
            }
        return {
            "schema": METRICS_SCHEMA,
            "uptime_s": round(self.recorder.now(), 6),
            "queue_depth": self._queue.qsize(),
            "degraded": self._degraded.is_set(),
            "slow_threshold_ms": self.slow_ms,
            "percentiles": percentiles,
            "stage_seconds": stage_seconds,
        }

    # -- protocol verb handlers (one `_op_<verb>` per wire op; lint rule
    # -- R10 requires each to open a request span through the obs facade)

    def _dispatch(
        self, op: str, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise protocol.ProtocolError("unknown_op", f"unhandled op {op!r}")
        self._shed_if_past_deadline(deadline_at, "before dispatch")
        return handler(message, deadline_at)

    def _shed_if_past_deadline(
        self, deadline_at: float | None, where: str
    ) -> None:
        if deadline_at is not None and self.recorder.now() > deadline_at:
            obs.count("serve.deadline_sheds")
            raise protocol.ProtocolError(
                "deadline_exceeded", f"deadline expired {where}"
            )

    def _op_hello(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.hello", cat="serve"):
            with self._lock:
                body = protocol.ok_response(
                    server="repro-serve",
                    protocol=protocol.PROTOCOL_VERSION,
                    n_sequences=len(self.state.sequences),
                    n_base=self.state.n_base,
                    n_families=self.state.n_families(),
                )
            return body, True

    def _op_status(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.status", cat="serve"):
            with self._lock:
                status = self.state.status()
            status["queue_depth"] = self._queue.qsize()
            status["degraded"] = self._degraded.is_set()
            return protocol.ok_response(**status), True

    def _op_metrics(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.metrics", cat="serve"):
            counters = {name: value
                        for name, value in self.recorder.counters().items()
                        if name.startswith("serve.")}
            return protocol.ok_response(**self.metrics_snapshot(),
                                        counters=counters), True

    def _op_health(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.health", cat="serve"):
            return protocol.ok_response(
                degraded=self._degraded.is_set(),
                degraded_reason=self.degraded_reason,
                applier_alive=self._applier_alive(),
                queue_depth=self._queue.qsize(),
                draining=self._stop.is_set(),
            ), True

    def _op_query(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.query", cat="serve"):
            obs.count("serve.queries")
            return self._handle_query(message, deadline_at), True

    def _op_insert(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.insert", cat="serve"):
            record = {"id": message["id"], "residues": message["residues"]}
            job = self._enqueue([record], deadline_at)
            result = job.results[0] if job.results else None
            if result is not None and result.get("code") == "read_only":
                # Single-record insert: surface the degrade as the
                # typed top-level error a retrying client expects.
                raise protocol.ProtocolError(
                    "read_only", str(result.get("error"))
                )
            return protocol.ok_response(results=job.results), True

    def _op_insert_batch(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.insert_batch", cat="serve"):
            records = [
                {"id": r["id"], "residues": r["residues"]}
                for r in message["records"]
            ]
            if len(records) > self.max_batch_records:
                raise protocol.ProtocolError(
                    "bad_request",
                    f"insert_batch carries {len(records)} records; the "
                    f"per-request cap is {self.max_batch_records}",
                )
            job = self._enqueue(records, deadline_at)
            return protocol.ok_response(results=job.results), True

    def _op_drain(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.drain", cat="serve"):
            # Journal stays open; every acknowledged insert is already
            # flushed, so drain is just a barrier.
            if self._applier_alive():
                self._queue.join()
            else:
                self._fail_pending_jobs("applier died; drain cannot apply")
            return protocol.ok_response(stopping=False), False

    def _op_shutdown(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> tuple[dict[str, Any], bool]:
        with obs.span("req.shutdown", cat="serve"):
            if self._applier_alive():
                self._queue.join()
            else:
                self._fail_pending_jobs("daemon stopping with a dead applier")
            self.request_stop()
            return protocol.ok_response(stopping=True), False

    def _ids(self, indices: list[int]) -> list[str]:
        return [self.state.sequences[i].id for i in indices]

    def _placement(  # repro-lint: requires=ServeServer._lock
        self, placed: int | InsertPlan
    ) -> dict[str, Any]:
        """The fields of every reply that places a sequence, as ids:
        whether it is ``redundant``, its ``container`` and its family.

        ``placed`` is the index of a sequence in the state (its
        ``index`` and ``family``) or a classification's uncommitted
        plan, placed as its commit would leave the state: ``found``, and
        its container's ``family`` or, not redundant, the ``families``
        its overlaps would merge (:func:`planned_families`).
        """
        state = self.state
        if isinstance(placed, InsertPlan):
            container = placed.container
            families = [self._ids(members)
                        for members in planned_families(state, placed)]
            where: dict[str, Any] = {"found": bool(families)}
            if container is None:
                where["families"] = families
            else:
                where["family"] = families[0]
        else:
            container = state.redundant.get(placed)
            where = {"index": placed,
                     "family": self._ids(state.family_members(placed))}
        return {
            "redundant": container is not None,
            "container": (None if container is None
                          else state.sequences[container].id),
            **where,
        }

    def _handle_query(
        self, message: dict[str, Any], deadline_at: float | None
    ) -> dict[str, Any]:
        seq_id = message.get("id")
        if isinstance(seq_id, str) and seq_id:
            with self._lock:
                if seq_id not in self.state.sequences:
                    return protocol.ok_response(found=False, id=seq_id)
                index = self.state.sequences.index_of(seq_id)
                return protocol.ok_response(
                    found=True, id=seq_id, **self._placement(index)
                )
        try:
            record = SequenceRecord(id="__query__",
                                    residues=message["residues"])
            encoded = record.encoded
        except ValueError as exc:
            raise protocol.ProtocolError("bad_request", str(exc)) from exc
        # A classification is the insert plan of its residues, never
        # committed.  The lock covers only the candidate snapshot (the
        # applier mutates the representative index) and the placement;
        # the plan's sweeps between them run lock-free (R13), and an
        # insert committing meanwhile makes the answer one "as of" the
        # snapshot.  Shed between the stages, never mid-DP: a partial
        # plan is never an answer.
        with self._lock:
            candidates = plan_candidates(self.state, encoded)
        self._shed_if_past_deadline(deadline_at, "before the containment stage")
        plan = plan_containment(self.state, record, candidates)
        self._shed_if_past_deadline(deadline_at, "before the overlap stage")
        plan_overlaps(self.state, plan)
        with self._lock:
            return protocol.ok_response(**self._placement(plan))
