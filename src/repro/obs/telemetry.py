"""Live run telemetry: a sampling thread beside the Recorder.

The Recorder answers "what happened" after a run; this module answers
"what is happening" *during* one.  A :class:`TelemetrySampler` owns a
background thread that every ``interval`` seconds (default 250 ms)
snapshots the live state of a process — the recorder's counters and
gauges (current phase, queue depths, worker heartbeats), registered
probe callables (alignment-cache statistics, backend worker liveness,
a daemon's SLO surface), and the process RSS — and appends each
snapshot as one JSON line to ``<run_dir>/telemetry.jsonl``.  A batch
run and a ``repro serve`` daemon each write exactly one such stream.

The file is the contract, not the sampler: ``repro top`` renders either
a live file (tail-follow) or a finished one (post-hoc), tests replay
recorded files, and the regression gate never needs the producing
process.  Records are one of four types:

``{"type": "meta", ...}``
    First line of a producer.  Schema version, sampling interval, the
    recorder's run metadata, and the clock pairing (``epoch_wall`` plus
    its bounded ``pairing_uncertainty`` — see :mod:`repro.obs.clock`).
    A restarted producer appends a new meta line; readers take the
    records after the last one as the current process.
``{"type": "sample", ...}``
    One per tick: ``seq``, monotonic ``t`` and projected ``wall``
    timestamps, current ``phase``, full ``counters`` and ``gauges``
    snapshots, ``rss_bytes``, and a ``probes`` object with one entry
    per registered probe.
``{"type": "slow_request", ...}``
    A daemon request over its ``--slow-ms`` threshold, with its stage
    span tree (tail sampling; :func:`repro.obs.export.read_slow_log`
    and :func:`~repro.obs.export.write_slow_trace` read these).
``{"type": "end", ...}``
    Last line of a *clean* shutdown: final status ("finished" or
    "error" plus the message).  A file without an end record is a run
    that is still alive — or died without warning; consumers must
    treat its absence as "unknown", which is exactly what ``repro
    top`` renders for a SIGKILLed run.

Failure posture: sampling must never take a run down, and a dying run
must never stop sampling.  Every probe call is individually guarded —
a probe that raises contributes ``{"error": ...}`` to that sample and
the loop keeps ticking, so the telemetry of a run whose workers were
killed shows the collapse instead of ending at it.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable

from repro.obs.core import Recorder
from repro.util.lockwatch import named_lock

#: Telemetry JSONL schema version (bump on incompatible record changes).
SCHEMA_VERSION = 1

#: File name inside a run directory.
TELEMETRY_FILENAME = "telemetry.jsonl"

#: Default sampling period in seconds.
DEFAULT_INTERVAL = 0.25


def process_rss_bytes() -> int | None:
    """Resident set size of this process, or None if undiscoverable."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; normalise to bytes.
        return usage * 1024 if os.uname().sysname == "Linux" else usage
    except Exception:  # pragma: no cover - no resource module
        return None


def _jsonable(value: object) -> object:
    """Best-effort coercion of gauge/probe values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


class TelemetrySampler:
    """Periodic JSONL snapshots of one run's live observable state.

    Usage::

        sampler = TelemetrySampler(recorder, run_dir, interval=0.25,
                                   probes={"cache": cache.stats})
        with sampler:                      # starts the thread
            ... run the pipeline ...
        # stopped; telemetry.jsonl carries meta + samples + end

    ``probes`` are zero-argument callables returning a JSON-compatible
    dict; they run on the sampler thread, so they must only read
    state that is safe to read concurrently (all Recorder accessors
    are; backend probes are written to be).
    """

    def __init__(
        self,
        recorder: Recorder,
        run_dir: str | Path,
        *,
        interval: float = DEFAULT_INTERVAL,
        probes: dict[str, Callable[[], dict]] | None = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.recorder = recorder
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / TELEMETRY_FILENAME
        self.interval = interval
        self._probes: dict[str, Callable[[], dict]] = dict(probes or {})
        self._seq = 0  # guarded by _write_lock
        self._fh = None  # guarded by _write_lock
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._write_lock = named_lock("TelemetrySampler._write_lock")

    # -- record construction -----------------------------------------------

    def _meta_record(self) -> dict:
        clock = self.recorder.clock
        return {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "interval": self.interval,
            "meta": _jsonable(dict(self.recorder.meta)),
            "clock": {
                "epoch_wall": clock.epoch_wall,
                "pairing_uncertainty": clock.pairing_uncertainty,
            },
            "pid": os.getpid(),
        }

    def _sample_record(self) -> dict:
        # ``seq`` is stamped by :meth:`write_record`, under the write
        # lock — probe callables must not run inside the critical section.
        recorder = self.recorder
        t = recorder.now()
        gauges = recorder.gauges()
        probes: dict[str, object] = {}
        for name, fn in list(self._probes.items()):
            try:
                probes[name] = _jsonable(fn())
            except Exception as exc:  # keep sampling through any failure
                probes[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "type": "sample",
            "seq": 0,
            "t": t,
            "wall": recorder.clock.to_wall(t),
            "phase": gauges.get("phase", ""),
            "counters": recorder.counters(),
            "gauges": _jsonable(gauges),
            "rss_bytes": process_rss_bytes(),
            "probes": probes,
        }

    def _end_record(self, status: str, error: str | None) -> dict:
        return {
            "type": "end",
            "t": self.recorder.now(),
            "status": status,
            "error": error,
            "samples": self._seq,
        }

    def write_record(self, record: dict) -> dict:
        """Append one record as a JSON line — the only writer of the
        file, for every record type.  A sample's ``seq`` is stamped
        here, under the lock, so sequence numbers follow file order.
        A record written before :meth:`open` or after :meth:`stop` is
        dropped."""
        with self._write_lock:
            if record["type"] == "sample":
                self._seq += 1
                record["seq"] = self._seq
            if self._fh is not None:
                self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
                self._fh.flush()  # live consumers tail this file
        return record

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "TelemetrySampler":
        """Create the run directory and write the meta record."""
        if self._fh is not None:
            return self
        self.run_dir.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "a", encoding="ascii")
        with self._write_lock:
            if self._fh is not None:  # lost the open race
                fh.close()
                return self
            self._fh = fh
        self.write_record(self._meta_record())
        return self

    def sample_now(self) -> dict:
        """Take and append one sample immediately (also used by tests)."""
        return self.write_record(self._sample_record())

    def start(self) -> "TelemetrySampler":
        """Open the file and start the background sampling thread."""
        self.open()
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_now()
            except Exception:  # pragma: no cover - sampler must survive
                continue

    def stop(self, status: str = "finished",
             error: str | None = None) -> None:
        """Stop the thread, take a final sample, append the end record."""
        if self._fh is None:
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_now()
        self.write_record(self._end_record(status, error))
        with self._write_lock:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop("finished")
        else:
            self.stop("error", f"{exc_type.__name__}: {exc}")


# ---------------------------------------------------------------------------
# Reading side (shared by `repro top`, the progress model, and tests).
# ---------------------------------------------------------------------------


def read_records(path: str | Path) -> list[dict]:
    """Every whole record of a telemetry stream, in file order.

    Tolerant by design: a live file's last line may be half-written
    (the producer flushes whole lines, but a reader can race the OS
    buffer), so a line that is not a JSON object is skipped; a missing
    file has no records.  ``path`` may name the run directory.
    """
    path = Path(path)
    if path.is_dir():
        path = path / TELEMETRY_FILENAME
    try:
        text = path.read_text(encoding="ascii", errors="replace")
    except OSError:
        return []
    records = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated tail of a live file
        if isinstance(record, dict):
            records.append(record)
    return records


def read_telemetry(
    path: str | Path,
) -> tuple[dict | None, list[dict], dict | None]:
    """Parse a telemetry stream into ``(meta, samples, end)``.

    The records after the last meta line are the current producer's (a
    restarted daemon or a resumed run appends to the same file); a
    SIGKILLed producer leaves no end record — ``meta``/``end`` are None
    when absent.
    """
    meta: dict | None = None
    end: dict | None = None
    samples: list[dict] = []
    for record in read_records(path):
        kind = record.get("type")
        if kind == "meta":
            meta, samples, end = record, [], None
        elif kind == "sample":
            samples.append(record)
        elif kind == "end":
            end = record
    return meta, samples, end
