"""Concurrent load generator for the serving daemon.

Drives N client threads against a running daemon — a query-heavy
mixture with a configurable insert fraction — and reduces the observed
latencies to the metrics ``repro bench-serve`` prints (p50/p99 query
latency, insert throughput).  Deterministic per seed: each client owns
a ``random.Random(seed + client_index)``, so the request mixture is
reproducible even though thread interleaving is not.

Load sheds are *not* errors: a hardened daemon answering ``overloaded``
or ``deadline_exceeded`` is doing admission control exactly as
designed, so those replies are counted separately
(``n_overloaded`` / ``n_deadline``) and only requests that were
actually admitted contribute latency samples.  ``metrics()`` reports
**goodput** (admitted requests per second) next to the shed fraction —
the two numbers an overload drill exists to measure.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.serve.protocol import ProtocolError, ServeClient
from repro.util.lockwatch import named_lock
from repro.util.timing import monotonic_now


@dataclass
class LoadResult:
    """Latency samples from one load-generation run."""

    query_latencies: list[float] = field(default_factory=list)
    """Per-query round-trip seconds, across all clients (admitted only)."""
    insert_latencies: list[float] = field(default_factory=list)
    """Per-insert acknowledged round-trip seconds (admitted only)."""
    n_errors: int = 0
    n_overloaded: int = 0
    """Requests shed with ``overloaded`` (admission control, not errors)."""
    n_deadline: int = 0
    """Requests shed with ``deadline_exceeded``."""
    elapsed: float = 0.0

    @property
    def n_queries(self) -> int:
        return len(self.query_latencies)

    @property
    def n_inserts(self) -> int:
        return len(self.insert_latencies)

    @property
    def n_shed(self) -> int:
        return self.n_overloaded + self.n_deadline

    @property
    def n_attempted(self) -> int:
        return self.n_queries + self.n_inserts + self.n_shed + self.n_errors

    def metrics(self) -> dict[str, float]:
        """The burst's metrics (milliseconds / ops-per-second)."""
        out: dict[str, float] = {
            "n_queries": float(self.n_queries),
            "n_inserts": float(self.n_inserts),
            "n_errors": float(self.n_errors),
            "n_overloaded": float(self.n_overloaded),
            "n_deadline_exceeded": float(self.n_deadline),
            "shed_fraction": (self.n_shed / self.n_attempted
                              if self.n_attempted else 0.0),
            "elapsed_s": self.elapsed,
        }
        if self.query_latencies:
            out["query_p50_ms"] = percentile(self.query_latencies, 50.0) * 1e3
            out["query_p99_ms"] = percentile(self.query_latencies, 99.0) * 1e3
            out["query_p999_ms"] = (
                percentile(self.query_latencies, 99.9) * 1e3
            )
        if self.insert_latencies:
            out["insert_p50_ms"] = percentile(self.insert_latencies, 50.0) * 1e3
            out["insert_p99_ms"] = percentile(self.insert_latencies, 99.0) * 1e3
            out["insert_p999_ms"] = (
                percentile(self.insert_latencies, 99.9) * 1e3
            )
        if self.elapsed > 0:
            out["query_throughput_per_s"] = self.n_queries / self.elapsed
            out["insert_throughput_per_s"] = self.n_inserts / self.elapsed
            out["goodput_per_s"] = (
                (self.n_queries + self.n_inserts) / self.elapsed
            )
        return out


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (pct in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(pct / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _client_worker(
    host: str,
    port: int,
    rng: random.Random,
    query_ids: Sequence[str],
    inserts: list[dict[str, str]],
    n_requests: int,
    insert_fraction: float,
    result: LoadResult,
    lock: threading.Lock,
    timeout: float | None,
    deadline_ms: float | None,
) -> None:
    queries: list[float] = []
    ins: list[float] = []
    errors = overloaded = deadline = 0
    extra: dict[str, Any] = {}
    if deadline_ms is not None:
        extra["deadline_ms"] = deadline_ms
    try:
        with ServeClient.connect(host, port, timeout=timeout) as client:
            for _ in range(n_requests):
                do_insert = inserts and rng.random() < insert_fraction
                started = monotonic_now()
                try:
                    if do_insert:
                        record = inserts.pop()  # atomic under the GIL
                        client.call("insert", **record, **extra)
                        ins.append(monotonic_now() - started)
                    else:
                        seq_id = rng.choice(query_ids)
                        client.call("query", id=seq_id, **extra)
                        queries.append(monotonic_now() - started)
                except IndexError:
                    continue  # another client took the last insert
                except ProtocolError as exc:
                    # Sheds are admission control doing its job, not
                    # failures; count them apart so goodput and shed
                    # fraction mean what they say.
                    if exc.code == "overloaded":
                        overloaded += 1
                    elif exc.code == "deadline_exceeded":
                        deadline += 1
                    else:
                        errors += 1
    except (ConnectionError, OSError):
        errors += 1
    with lock:
        result.query_latencies.extend(queries)
        result.insert_latencies.extend(ins)
        result.n_errors += errors
        result.n_overloaded += overloaded
        result.n_deadline += deadline


def run_load(
    host: str,
    port: int,
    *,
    clients: int,
    requests_per_client: int,
    query_ids: Sequence[str],
    inserts: Sequence[dict[str, str]] = (),
    insert_fraction: float = 0.2,
    seed: int = 2008,
    timeout: float | None = 30.0,
    deadline_ms: float | None = None,
) -> LoadResult:
    """Run ``clients`` concurrent clients; returns pooled latencies.

    ``query_ids`` are existing sequence ids to query; ``inserts`` is a
    shared pool of ``{id, residues}`` records that clients draw from
    (each inserted exactly once).  ``timeout`` bounds every socket
    operation per client; ``deadline_ms`` is stamped onto each request
    so the daemon sheds late work instead of finishing it late.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise ValueError(
            f"requests_per_client must be >= 1, got {requests_per_client}"
        )
    if not query_ids:
        raise ValueError("query_ids must be non-empty")
    result = LoadResult()
    lock = named_lock("loadgen.lock")
    pool = [dict(record) for record in inserts]
    started = monotonic_now()
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(host, port, random.Random(seed + i), list(query_ids),
                  pool, requests_per_client, insert_fraction, result, lock,
                  timeout, deadline_ms),
            name=f"loadgen-{i}",
            daemon=True,
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed = monotonic_now() - started
    return result
