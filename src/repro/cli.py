"""Command-line interface: ``repro <command>`` or ``python -m repro``.

Commands
--------
generate
    Write a synthetic metagenome (FASTA + truth table).
run
    Run the four-phase pipeline on a FASTA file; print the Table I row
    and the run report (:func:`repro.eval.report.report_lines`).
    ``--output`` writes the families; ``--trace-out`` exports a Chrome
    ``trace_event`` timeline (loadable in chrome://tracing or
    https://ui.perfetto.dev) and ``--counters-out`` the run record
    (:func:`repro.obs.counters_payload`), each only when given.
    ``--run-dir DIR`` journals crash-consistent phase checkpoints;
    ``--resume DIR`` continues an interrupted run from that journal
    (finished phases are skipped, a half-finished CCD replays its
    journaled unions).  ``--fault-plan FILE`` injects deterministic
    faults (testing only).
chaos
    Deterministic fault-injection identity check: run the workload
    fault-free and again under a :mod:`repro.faults` plan (worker
    kills, delays, poisoned tasks), then verify the scientific
    counters and final families are bit-identical.  Exit 1 on drift —
    a recovery bug.
evaluate
    Compare a clustering against a truth table (PR/SE/OQ/CC).
simulate
    Run the pipeline with simulated parallel RR/CCD phases and report
    per-phase virtual run-times for a processor sweep.
profile
    ``run`` with both exports on by default: ``trace.json`` and
    ``counters.json`` in the current directory.
top
    Render a ``telemetry.jsonl`` as a refreshing status screen: a run's
    (written when ``run``/``profile`` get ``--telemetry-dir``) shows
    phase progress/ETA, worker lanes and queue depths; a
    ``serve`` daemon's (always written into its ``--run-dir``) shows
    per-verb latency, stage shares, the applier and request totals.
    Works live (tail-follow) and post-hoc (``--once``), including on
    files whose producer died without an end record.
compare-metrics
    Diff two run records — a run's ``--counters-out`` file against a
    baseline one (default: the committed ``BENCH_baseline.json``):
    scientific counters must match exactly, wall-clock must stay inside
    the slowdown tolerance; the per-phase seconds of both are listed.
    Exit 1 on a violation (the CI metrics-regression gate), 2 when
    either file is not a run record.
serve
    Load a completed ``--run-dir`` checkpoint into memory and serve
    family-membership queries + incremental inserts over a line-JSON
    socket (:mod:`repro.serve`).  Inserted sequences are journaled to
    the same checkpoint file, so a killed daemon restarts to an
    identical state.  SIGTERM drains gracefully.
query
    One-shot client for a running ``repro serve`` daemon: look up a
    sequence's family by id, classify unseen residues read-only,
    insert a FASTA batch, fetch status, or request shutdown.
bench-serve
    Drive N concurrent clients against a running daemon and print the
    burst's metrics (p50/p99 query latency, insert throughput, the
    daemon's own histogram percentiles) as one JSON object.
lint
    Run the repo-specific AST invariant checker
    (:mod:`repro.analysis`): counter-registry closure, seed/clock
    discipline, picklable worker targets, ``is None`` defaulting, lock
    hygiene.  Exit 0 = clean, 1 = violations at or
    above ``--fail-on``, 2 = unreadable/missing input.
runtime-info
    Print detected cores and execution-backend availability.

Exit-code convention: every subcommand returns 0 on success, 1 on a
failed check (metric drift, lint violations), and 2 on unusable input
(missing or truncated file) — never a traceback.

``run`` accepts ``--backend {serial,process}`` and ``--workers N`` to
execute on a real multi-core backend (see :mod:`repro.runtime`); the
scientific output is identical, and the report's per-phase wall-clock
and worker-utilisation figures are measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.pipeline import ProteinFamilyPipeline
from repro.eval.metrics import pair_confusion, quality_scores
from repro.eval.report import Table1Row, report_lines
from repro.parallel.machine import BLUEGENE_L
from repro.parallel.simulator import VirtualCluster
from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.generator import MetagenomeSpec, generate_metagenome
from repro.shingle.algorithm import ShingleParams
from repro.util.timing import format_seconds


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--psi", type=int, default=10, help="maximal-match cutoff")
    parser.add_argument("--tau", type=float, default=0.5, help="A~=B Jaccard cutoff")
    parser.add_argument(
        "--reduction", choices=("global", "domain"), default="global",
        help="bipartite reduction (B_d or B_m)",
    )
    parser.add_argument("--edge-similarity", type=float, default=0.40)
    parser.add_argument("--min-size", type=int, default=5, help="min component/DS size")
    parser.add_argument("--shingle-s", type=int, default=5)
    parser.add_argument("--shingle-c", type=int, default=300)
    parser.add_argument("--seed", type=int, default=2008)


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="execution backend (process = real multi-core workers)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for --backend process (0 = auto)",
    )
    parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SEC",
        help="kill a worker whose in-flight task ages past SEC "
             "(process backend hang detection; default: off)",
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="stream live telemetry.jsonl snapshots into DIR "
             "(watch with `repro top DIR`)",
    )
    _add_interval_arg(parser)


def _add_interval_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-interval", type=float, default=0.25, metavar="SEC",
        help="telemetry sampling period in seconds (default: %(default)s)",
    )


def _check_interval(args: argparse.Namespace) -> int | None:
    """Exit 2 on a sampling period the sampler cannot keep."""
    if args.telemetry_interval > 0:
        return None
    return _usage_error(f"--telemetry-interval must be positive, "
                        f"got {args.telemetry_interval}")


def _positive_seconds(text: str) -> float:
    """argparse type: a period in seconds, > 0 (exit 2 at parse time)."""
    if not float(text) > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return float(text)


def _load_config(args: argparse.Namespace, *, fault_plan=None):
    """(config_or_None, error_rc_or_None) from the pipeline options."""
    try:
        return _config_from_args(args, fault_plan=fault_plan), None
    except ValueError as exc:
        return None, _usage_error(f"invalid configuration: {exc}")


def _config_from_args(args: argparse.Namespace, *,
                      fault_plan=None) -> PipelineConfig:
    return PipelineConfig(
        psi=args.psi,
        tau=args.tau,
        reduction=args.reduction,
        edge_similarity=args.edge_similarity,
        min_component_size=args.min_size,
        min_subgraph_size=args.min_size,
        shingle=ShingleParams(
            s1=args.shingle_s, c1=args.shingle_c, s2=args.shingle_s,
            c2=max(args.shingle_c // 3, 1), seed=args.seed,
        ),
        seed=args.seed,
        backend=getattr(args, "backend", "serial"),
        workers=getattr(args, "workers", 0),
        fault_plan=fault_plan,
        task_deadline=getattr(args, "task_deadline", None),
    )


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        spec = MetagenomeSpec(
            n_families=args.families,
            mean_family_size=args.mean_size,
            redundant_fraction=args.redundant,
            noise_fraction=args.noise,
            domain_family_fraction=args.domain_fraction,
            seed=args.seed,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    data = generate_metagenome(spec)
    write_fasta(data.sequences, args.output)
    truth_path = Path(args.output).with_suffix(".truth.json")
    truth_path.write_text(json.dumps(data.truth, indent=0), encoding="ascii")
    print(
        f"wrote {len(data.sequences)} sequences to {args.output} "
        f"({len(data.redundant_of)} planted-redundant), truth -> {truth_path}"
    )
    return 0


def _read_fasta_or_none(path: str):
    """FASTA records, or None after reporting the usual exit-2 line."""
    try:
        return read_fasta(path)
    except OSError as exc:
        _usage_error(f"cannot read FASTA {path}: {exc}")
    except ValueError as exc:
        _usage_error(f"unparseable FASTA {path}: {exc}")
    return None


def _load_fault_plan(args: argparse.Namespace):
    """(plan_or_None, error_rc_or_None) from ``--fault-plan``."""
    from repro.faults.plan import FaultPlan, FaultPlanError

    path = getattr(args, "fault_plan", None)
    if not path:
        return None, None
    try:
        return FaultPlan.load(path), None
    except FaultPlanError as exc:
        return None, _usage_error(str(exc))


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run`` and ``repro profile``: one run, the one report."""
    from repro.core.checkpoint import CheckpointError
    from repro.obs import write_chrome_trace, write_counters_json

    rc = _check_interval(args)
    if rc is not None:
        return rc
    if args.resume and args.run_dir:
        return _usage_error(
            f"--resume {args.resume} continues the run journaled there; "
            f"--run-dir {args.run_dir} cannot also be given"
        )
    sequences = _read_fasta_or_none(args.fasta)
    if sequences is None:
        return 2
    plan, rc = _load_fault_plan(args)
    if rc is not None:
        return rc
    config, rc = _load_config(args, fault_plan=plan)
    if rc is not None:
        return rc
    try:
        result = ProteinFamilyPipeline(config).run(
            sequences,
            backend=args.backend,
            workers=args.workers or None,
            telemetry_dir=args.telemetry_dir,
            telemetry_interval=args.telemetry_interval,
            run_dir=args.resume or args.run_dir,
            resume=bool(args.resume),
        )
    except CheckpointError as exc:
        return _usage_error(str(exc))
    print(Table1Row.header())
    print(result.table1().formatted())
    print()
    for line in report_lines(result):
        print(line)
    if args.output:
        families = result.family_ids(sequences)
        Path(args.output).write_text(
            json.dumps(families, indent=1), encoding="ascii"
        )
        print(f"wrote {len(families)} families to {args.output}")
    if args.trace_out:
        write_chrome_trace(result.obs, args.trace_out)
        print(f"trace    -> {args.trace_out} (open in chrome://tracing or "
              f"https://ui.perfetto.dev)")
    if args.counters_out:
        write_counters_json(result.obs, args.counters_out)
        print(f"counters -> {args.counters_out}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection identity check: faulted run == fault-free run.

    Exit 0 when the scientific counters and the final families are
    bit-identical, 1 on drift (a recovery bug), 2 on unusable input.
    With ``--serve`` the daemon-side scenario matrix runs instead
    (journal failure, applier/daemon kills, torn journal/snapshot,
    overload, stalled clients) — same exit convention.
    """
    from repro.faults.harness import run_chaos
    from repro.faults.plan import FaultPlan, FaultPlanError

    if args.serve:
        return _cmd_chaos_serve(args)
    if args.plan:
        plan, rc = _load_fault_plan(argparse.Namespace(fault_plan=args.plan))
        if rc is not None:
            return rc
    else:
        plan = FaultPlan.random(args.seed, workers=max(args.workers, 1) or 2,
                                n_faults=args.faults)
    sequences = _chaos_sequences(args)
    if sequences is None:
        return 2
    config, rc = _load_config(args)
    if rc is not None:
        return rc
    try:
        report = run_chaos(sequences, config, plan, run_dir=args.run_dir)
    except FaultPlanError as exc:
        return _usage_error(str(exc))
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _chaos_sequences(args: argparse.Namespace):
    """The FASTA named on the command line, or the chaos default input."""
    from repro.faults.harness import default_chaos_sequences

    if args.fasta:
        return _read_fasta_or_none(args.fasta)
    sequences = default_chaos_sequences(args.seed)
    print(f"chaos: no FASTA given; generated {len(sequences)} "
          f"synthetic sequences (seed {args.seed})")
    return sequences


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """``repro chaos --serve``: the daemon-side scenario matrix."""
    import tempfile

    from repro.faults.plan import FaultPlanError
    from repro.faults.serve_chaos import run_serve_chaos

    if args.plan:
        return _usage_error(
            "--serve runs a fixed scenario matrix; --plan does not apply "
            "(use --only to subset scenarios)"
        )
    sequences = _chaos_sequences(args)
    if sequences is None:
        return 2
    config, rc = _load_config(args)
    if rc is not None:
        return rc
    only = args.only.split(",") if args.only else None
    run_dir = args.run_dir
    cleanup_ctx: "tempfile.TemporaryDirectory[str] | None" = None
    if run_dir is None:
        cleanup_ctx = tempfile.TemporaryDirectory(prefix="repro-serve-chaos-")
        run_dir = cleanup_ctx.name
    try:
        report = run_serve_chaos(
            sequences, config, run_dir=run_dir, only=only
        )
    except FaultPlanError as exc:
        return _usage_error(str(exc))
    finally:
        if cleanup_ctx is not None:
            cleanup_ctx.cleanup()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _usage_error(message: str) -> int:
    """Report unusable input on stderr with the conventional exit 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _parse_addr(addr: str) -> tuple[str, int] | None:
    """``host:port`` -> (host, port), or None if malformed."""
    host, sep, port_text = addr.rpartition(":")
    if not sep or not host:
        return None
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not 0 < port < 65536:
        return None
    return host, port


def cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.checkpoint import (
        CheckpointError,
        CheckpointJournal,
        config_digest,
        input_digest,
    )
    from repro.faults.plan import FaultInjector
    from repro.serve.server import ServeServer
    from repro.serve.state import build_or_restore_serve_state

    rc = _check_interval(args)
    if rc is not None:
        return rc
    sequences = _read_fasta_or_none(args.fasta)
    if sequences is None:
        return 2
    plan, rc = _load_fault_plan(args)
    if rc is not None:
        return rc
    config, rc = _load_config(args)
    if rc is not None:
        return rc
    try:
        journal = CheckpointJournal.resume(
            args.run_dir,
            config_dig=config_digest(config),
            input_dig=input_digest(sequences),
            n_input=len(sequences),
        )
    except CheckpointError as exc:
        return _usage_error(str(exc))
    injector = None
    if plan is not None:
        if len(plan.serve_faults) != len(plan.faults):
            journal.close()
            return _usage_error(
                "serve --fault-plan accepts serve_* faults only "
                "(serve_delay_insert / serve_journal_error / "
                "serve_kill_applier / serve_kill_daemon)"
            )
        injector = FaultInjector(plan)
    recorder = obs.Recorder(meta={"mode": "serve"})
    try:
        with obs.recording(recorder):
            assert journal.resume_state is not None
            try:
                state, restore_info = build_or_restore_serve_state(
                    sequences, config, journal.resume_state,
                    run_dir=args.run_dir,
                    max_representatives=args.max_representatives,
                )
            except CheckpointError as exc:
                return _usage_error(str(exc))
            try:
                server = ServeServer(
                    state, journal=journal, host=args.host, port=args.port,
                    max_queue=args.max_queue, run_dir=args.run_dir,
                    recorder=recorder, slow_ms=args.slow_ms,
                    telemetry_interval=args.telemetry_interval,
                    queue_wait=args.queue_wait_ms / 1e3,
                    default_deadline_ms=args.default_deadline_ms,
                    max_batch_records=args.max_batch_records,
                    snapshot_every=args.snapshot_every,
                    snapshot_covered=restore_info["snapshot_covered"],
                    injector=injector,
                )
            except ValueError as exc:
                return _usage_error(f"invalid serve configuration: {exc}")
            try:
                host, port = server.start()
            except OSError as exc:
                return _usage_error(
                    f"cannot bind {args.host}:{args.port}: {exc}"
                )
            covered = restore_info["snapshot_covered"]
            restored = (f"snapshot covered {covered}, "
                        if covered is not None else "")
            # Flushed eagerly: CI and scripts redirect this to a file
            # and read it while the daemon is still running.
            print(f"repro serve: {state.n_base} base sequences, "
                  f"{state.n_families()} families, {restored}"
                  f"{restore_info['replayed']} journaled inserts replayed",
                  flush=True)
            print(f"repro serve: listening on {host}:{port} "
                  f"(SIGTERM or the shutdown op drains and exits)",
                  flush=True)
            server.serve_forever(install_signals=True)
    finally:
        journal.close()
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.protocol import (
        ProtocolError,
        ServeClient,
        ServeTimeout,
    )

    addr = _parse_addr(args.address)
    if addr is None:
        return _usage_error(
            f"address {args.address!r} is not host:port"
        )
    if args.retries < 0:
        return _usage_error(f"--retries must be >= 0, got {args.retries}")
    inserts: list[dict[str, str]] = []
    if args.insert_fasta:
        records = _read_fasta_or_none(args.insert_fasta)
        if records is None:
            return 2
        inserts = [{"id": r.id, "residues": r.residues} for r in records]
    extra: dict[str, object] = {}
    if args.deadline_ms is not None:
        extra["deadline_ms"] = args.deadline_ms
    try:
        client = ServeClient.connect(addr[0], addr[1], timeout=args.timeout)
    except OSError as exc:
        return _usage_error(f"cannot connect to {args.address}: {exc}")
    try:
        with client:
            def call(op: str, **fields: object) -> dict:
                if args.retries:
                    return client.call_with_retry(
                        op, retries=args.retries, **fields, **extra
                    )
                return client.call(op, **fields, **extra)

            if args.shutdown:
                response = call("shutdown")
            elif args.health:
                response = call("health")
            elif args.metrics:
                response = call("metrics")
            elif inserts:
                response = call("insert_batch", records=inserts)
            elif args.id:
                response = call("query", id=args.id)
            elif args.residues:
                response = call("query", residues=args.residues)
            else:
                response = call("status")
            print(json.dumps(response, indent=1, sort_keys=True))
    except ProtocolError as exc:
        return _usage_error(f"{exc.code}: {exc}")
    except ServeTimeout as exc:
        return _usage_error(
            f"timeout: {exc} (raise --timeout or add --retries)"
        )
    except (ConnectionError, OSError) as exc:
        return _usage_error(f"connection to {args.address} failed: {exc}")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import run_load
    from repro.serve.protocol import ProtocolError, ServeClient

    addr = _parse_addr(args.address)
    if addr is None:
        return _usage_error(f"address {args.address!r} is not host:port")
    sequences = _read_fasta_or_none(args.fasta)
    if sequences is None:
        return 2
    inserts: list[dict[str, str]] = []
    if args.insert_fasta:
        records = _read_fasta_or_none(args.insert_fasta)
        if records is None:
            return 2
        inserts = [{"id": r.id, "residues": r.residues} for r in records]
    try:
        with ServeClient.connect(addr[0], addr[1],
                                 timeout=args.timeout) as client:
            client.call("hello")
    except ProtocolError as exc:
        return _usage_error(f"{exc.code}: {exc}")
    except OSError as exc:
        return _usage_error(f"cannot connect to {args.address}: {exc}")
    result = run_load(
        addr[0], addr[1],
        clients=args.clients,
        requests_per_client=args.requests,
        query_ids=[r.id for r in sequences],
        inserts=inserts,
        insert_fraction=args.insert_fraction,
        seed=args.seed,
        timeout=args.timeout,
        deadline_ms=args.deadline_ms,
    )
    metrics = result.metrics()
    # Scrape the daemon's own SLO surface so the report carries both
    # sides of the latency story (client-observed and server-side
    # histogram percentiles).  A pre-metrics daemon answers unknown_op;
    # degrade to client-side numbers only.
    try:
        with ServeClient.connect(addr[0], addr[1],
                                 timeout=args.timeout) as client:
            server_metrics = client.call("metrics")
    except (ProtocolError, ConnectionError, OSError):
        server_metrics = None
    if server_metrics is not None:
        percentiles = server_metrics.get("percentiles", {})
        for verb in ("query", "insert", "insert_batch"):
            digest = percentiles.get(verb)
            if not digest:
                continue
            metrics[f"server_{verb}_count"] = digest["count"]
            for key in ("p50_ms", "p99_ms", "p999_ms"):
                metrics[f"server_{verb}_{key}"] = digest[key]
    print(json.dumps(metrics, indent=1, sort_keys=True))
    if result.n_shed:
        print(f"bench: {result.n_shed} request(s) shed "
              f"(overloaded={result.n_overloaded}, "
              f"deadline_exceeded={result.n_deadline}) — "
              f"admission control, not errors", file=sys.stderr)
    return 1 if result.n_errors else 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import TELEMETRY_FILENAME
    from repro.obs.top import follow

    telemetry = Path(args.telemetry)
    if telemetry.is_dir():
        telemetry = telemetry / TELEMETRY_FILENAME
    if not telemetry.exists():
        return _usage_error(f"no telemetry file at {telemetry}")
    return follow(
        telemetry,
        refresh=args.refresh,
        max_refreshes=1 if args.once else None,
    )


def _load_json(path: Path, what: str) -> tuple[dict | None, int]:
    """Read a JSON document, mapping IO/parse failures to exit 2."""
    try:
        return json.loads(path.read_text(encoding="ascii")), 0
    except OSError as exc:
        return None, _usage_error(f"cannot read {what} {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        return None, _usage_error(
            f"{what} {path} is truncated or not JSON (line {exc.lineno})"
        )


def cmd_compare_metrics(args: argparse.Namespace) -> int:
    from repro.obs import compare_metrics, compare_report

    run, rc = _load_json(Path(args.run), "run payload")
    if rc:
        return rc
    baseline, rc = _load_json(Path(args.baseline), "baseline")
    if rc:
        return rc
    try:
        violations = compare_metrics(
            run,
            baseline,
            slowdown_tolerance=args.slowdown_tolerance,
            check_wallclock=not args.no_wallclock,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    for line in compare_report(run, baseline, violations):
        print(line)
    return 1 if violations else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        LintEngine,
        describe_rules,
        json_report,
        sarif_report,
        text_report,
    )

    if args.list_rules:
        for line in describe_rules():
            print(line)
        return 0

    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [p for p in (Path("src"), Path("benchmarks")) if p.exists()]
        if not paths:
            return _usage_error(
                "no paths given and no src/ or benchmarks/ under the "
                "current directory"
            )
    try:
        engine = LintEngine(
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
        )
    except ValueError as exc:
        return _usage_error(str(exc))
    result = engine.run(paths, root=Path.cwd())

    if args.lock_order:
        order = result.artifacts.get("lock_order")
        if order is None:
            return _usage_error(
                "--lock-order needs the R11 lock-order rule in the run "
                "(drop --select/--ignore filters that exclude it)"
            )
        Path(args.lock_order).write_text(
            json.dumps(order, indent=1) + "\n", encoding="utf-8"
        )
        print(f"lock order -> {args.lock_order}")

    if args.format == "json":
        rendered = json.dumps(json_report(result), indent=1)
    elif args.format == "sarif":
        rendered = json.dumps(sarif_report(result), indent=1)
    else:
        rendered = "\n".join(text_report(result))
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"lint report -> {args.output}")
    else:
        print(rendered)

    if result.errors:
        for error in result.errors:
            print(f"repro: error: {error.path}: {error.message}",
                  file=sys.stderr)
        return 2
    return 1 if result.fails(args.fail_on) else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    families, rc = _load_json(Path(args.families), "families")
    if families is None:
        return rc
    truth, rc = _load_json(Path(args.truth), "truth table")
    if truth is None:
        return rc
    clusters: dict[int, list[str]] = {}
    for seq_id, fam in truth.items():
        if fam >= 0:
            clusters.setdefault(fam, []).append(seq_id)
    scores = quality_scores(pair_confusion(families, clusters.values()))
    for name, value in scores.as_dict().items():
        print(f"{name} = {value:.2%}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.families import compare_families

    test, rc = _load_json(Path(args.test), "test clustering")
    if test is None:
        return rc
    bench, rc = _load_json(Path(args.benchmark), "benchmark clustering")
    if bench is None:
        return rc
    scores = quality_scores(pair_confusion(test, bench))
    comparison = compare_families(test, bench)
    for name, value in scores.as_dict().items():
        print(f"{name} = {value:.2%}")
    print()
    print(comparison.summary())
    return 0


def cmd_runtime_info(args: argparse.Namespace) -> int:
    from repro.runtime import runtime_info

    info = runtime_info()
    print(f"python              {info['python']} ({info['platform']})")
    print(f"cpus                {info['cpu_count']} detected, {info['usable_cpus']} usable")
    print(f"default workers     {info['default_workers']}")
    print(f"start methods       {', '.join(info['start_methods'])} "
          f"(preferred: {info['preferred_start_method']})")
    print(f"shared memory       {'available' if info['shared_memory'] else 'unavailable'}")
    for name, available in info["backends"].items():
        print(f"backend {name:<12s} {'available' if available else 'unavailable'}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    sequences = _read_fasta_or_none(args.fasta)
    if sequences is None:
        return 2
    config, rc = _load_config(args)
    if rc is not None:
        return rc
    try:
        clusters = [VirtualCluster(p, BLUEGENE_L) for p in args.procs]
    except ValueError as exc:
        return _usage_error(str(exc))
    pipeline = ProteinFamilyPipeline(config)
    print(f"{'p':>5s} {'RR':>12s} {'CCD':>12s} {'RR+CCD':>12s}")
    for p, cluster in zip(args.procs, clusters):
        result = pipeline.run(sequences, cluster=cluster)
        t = result.timings
        print(
            f"{p:>5d} {format_seconds(t.redundancy):>12s} "
            f"{format_seconds(t.clustering):>12s} {format_seconds(t.rr_ccd):>12s}"
        )
    return 0


def _add_run_verb(sub, verb: str, text: str, *, trace_out: str | None,
                  counters_out: str | None) -> None:
    """Register ``verb`` on :func:`cmd_run`'s argument set, with these
    export defaults (None: exported only when the path is given)."""
    p_run = sub.add_parser(verb, help=text)
    p_run.add_argument("fasta")
    p_run.add_argument("--output", help="write families as JSON")
    p_run.add_argument(
        "--trace-out", default=trace_out, metavar="FILE",
        help="Chrome trace_event output path "
             f"(default: {trace_out or 'not written'})",
    )
    p_run.add_argument(
        "--counters-out", default=counters_out, metavar="FILE",
        help=f"run record output path (default: {counters_out or 'not written'})",
    )
    p_run.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="journal crash-consistent phase checkpoints into DIR "
             "(resume later with --resume DIR)",
    )
    p_run.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume an interrupted run from DIR's checkpoint journal "
             "(skips finished phases, replays CCD unions)",
    )
    p_run.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="inject faults from a FaultPlan JSON file (testing only)",
    )
    _add_pipeline_args(p_run)
    _add_backend_args(p_run)
    _add_telemetry_args(p_run)
    p_run.set_defaults(func=cmd_run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel protein family identification (SC'08 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic metagenome")
    p_gen.add_argument("output", help="output FASTA path")
    p_gen.add_argument("--families", type=int, default=50)
    p_gen.add_argument("--mean-size", type=int, default=20)
    p_gen.add_argument("--redundant", type=float, default=0.10)
    p_gen.add_argument("--noise", type=float, default=0.05)
    p_gen.add_argument("--domain-fraction", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=2008)
    p_gen.set_defaults(func=cmd_generate)

    # One verb under two names: ``profile`` is ``run`` with both exports
    # on by default.
    _add_run_verb(sub, "run", "run the pipeline on a FASTA file",
                  trace_out=None, counters_out=None)
    _add_run_verb(sub, "profile",
                  "run the pipeline and export a Chrome trace + the run record",
                  trace_out="trace.json", counters_out="counters.json")

    p_chaos = sub.add_parser(
        "chaos",
        help="verify fault recovery changes nothing: run fault-free and "
             "under a fault plan, diff scientific counters + families",
    )
    p_chaos.add_argument(
        "fasta", nargs="?", default=None,
        help="input FASTA (omitted: a small synthetic workload)",
    )
    p_chaos.add_argument(
        "--plan", default=None, metavar="FILE",
        help="FaultPlan JSON (default: a seed-derived random plan)",
    )
    p_chaos.add_argument(
        "--faults", type=int, default=3,
        help="faults in the seed-derived plan (default: 3)",
    )
    p_chaos.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="write chaos_report.json + faulted-run telemetry into DIR",
    )
    p_chaos.add_argument(
        "--serve", action="store_true",
        help="run the serve-side scenario matrix instead (journal "
             "failure, applier/daemon kills, torn journal/snapshot, "
             "overload, stalled clients); writes "
             "DIR/serve_chaos_report.json",
    )
    p_chaos.add_argument(
        "--only", default=None, metavar="NAMES",
        help="with --serve: comma-separated scenario subset",
    )
    _add_pipeline_args(p_chaos)
    _add_backend_args(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos, backend="process", workers=2)

    p_top = sub.add_parser(
        "top", help="live/post-hoc status screen for a telemetry file"
    )
    p_top.add_argument(
        "telemetry",
        help="a run's --telemetry-dir, a daemon's --run-dir, or a "
             "telemetry.jsonl path",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit (post-hoc view)",
    )
    p_top.add_argument(
        "--refresh", type=_positive_seconds, default=0.5, metavar="SEC",
        help="screen refresh period when following (default: 0.5)",
    )
    p_top.set_defaults(func=cmd_top)

    p_serve = sub.add_parser(
        "serve",
        help="serve family membership + incremental inserts over a "
             "completed --run-dir checkpoint",
    )
    p_serve.add_argument("fasta", help="the batch run's input FASTA")
    p_serve.add_argument(
        "--run-dir", required=True, metavar="DIR",
        help="run directory with the completed checkpoint journal",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; bound address is written to "
             "DIR/serve.addr)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="bounded insert queue depth before clients block (default: 64)",
    )
    p_serve.add_argument(
        "--max-representatives", type=int, default=8, metavar="N",
        help="representatives kept per family (default: 8)",
    )
    p_serve.add_argument(
        "--slow-ms", type=float, default=250.0, metavar="MS",
        help="requests slower than this write their span tree into "
             "DIR/telemetry.jsonl (default: 250)",
    )
    p_serve.add_argument(
        "--queue-wait-ms", type=float, default=500.0, metavar="MS",
        help="bounded wait for an insert-queue slot before the request "
             "is shed with `overloaded` (default: 500)",
    )
    p_serve.add_argument(
        "--default-deadline-ms", type=float, default=None, metavar="MS",
        help="deadline budget applied to requests that carry none "
             "(default: no deadline)",
    )
    p_serve.add_argument(
        "--max-batch-records", type=int, default=512, metavar="N",
        help="per-request cap on insert_batch records (default: 512)",
    )
    p_serve.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="write a serve snapshot and compact the journal every N "
             "applied inserts (0 = disabled, the default)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="inject serve_* faults from a FaultPlan JSON (chaos "
             "drills only)",
    )
    _add_pipeline_args(p_serve)
    _add_interval_arg(p_serve)
    # The daemon's one stream, DIR/telemetry.jsonl, at a daemon's pace.
    p_serve.set_defaults(func=cmd_serve, telemetry_interval=1.0)

    p_query = sub.add_parser(
        "query", help="one-shot client for a running `repro serve` daemon"
    )
    p_query.add_argument("address", help="daemon address as host:port")
    group = p_query.add_mutually_exclusive_group()
    group.add_argument("--id", help="look up this sequence id's family")
    group.add_argument(
        "--residues", help="classify these residues (read-only)"
    )
    group.add_argument(
        "--insert-fasta", metavar="FILE",
        help="insert every sequence of FILE as one batch",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="fetch the daemon's SLO snapshot (per-verb latency "
             "histograms, stage time shares, serve.* counters)",
    )
    group.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain and exit",
    )
    group.add_argument(
        "--health", action="store_true",
        help="liveness/degradation probe (degraded flag, applier "
             "liveness, queue depth)",
    )
    p_query.add_argument(
        "--timeout", type=float, default=60.0,
        help="socket timeout in seconds; expiry exits 2 with a typed "
             "timeout error (default: 60)",
    )
    p_query.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline budget; the daemon sheds work past "
             "it with deadline_exceeded",
    )
    p_query.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry timeouts and retryable sheds up to N times with "
             "exponential backoff (default: 0; inserts stay "
             "exactly-once via the daemon's idempotency key)",
    )
    p_query.set_defaults(func=cmd_query)

    p_bench = sub.add_parser(
        "bench-serve",
        help="load-test a running daemon and print its latency metrics as JSON",
    )
    p_bench.add_argument("address", help="daemon address as host:port")
    p_bench.add_argument(
        "fasta", help="FASTA whose sequence ids are used as query targets"
    )
    p_bench.add_argument(
        "--insert-fasta", metavar="FILE",
        help="pool of sequences to insert during the run",
    )
    p_bench.add_argument("--clients", type=int, default=32)
    p_bench.add_argument(
        "--requests", type=int, default=25, metavar="N",
        help="requests per client (default: 25)",
    )
    p_bench.add_argument("--insert-fraction", type=float, default=0.2)
    p_bench.add_argument("--seed", type=int, default=2008)
    p_bench.add_argument("--timeout", type=float, default=60.0)
    p_bench.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="stamp this deadline budget on every request (sheds are "
             "counted, not errored)",
    )
    p_bench.set_defaults(func=cmd_bench_serve)

    p_gate = sub.add_parser(
        "compare-metrics",
        help="gate a run record against a baseline run record",
    )
    p_gate.add_argument(
        "run", help="run record from `repro run --counters-out`"
    )
    p_gate.add_argument(
        "--baseline", default="BENCH_baseline.json",
        help="baseline run record (default: BENCH_baseline.json)",
    )
    p_gate.add_argument(
        "--slowdown-tolerance", type=float, default=0.20, metavar="FRAC",
        help="relative wall-clock tolerance (default: 0.20 = +20%%)",
    )
    p_gate.add_argument(
        "--no-wallclock", action="store_true",
        help="check scientific counters only, skip the wall-clock gate",
    )
    p_gate.set_defaults(func=cmd_compare_metrics)

    p_lint = sub.add_parser(
        "lint",
        help="AST-based invariant checker for the pipeline's contracts",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/ benchmarks/)",
    )
    p_lint.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule names/slugs to run (default: all)",
    )
    p_lint.add_argument(
        "--ignore", metavar="RULES",
        help="comma-separated rule names/slugs to skip",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (json = the repro-lint/1 document, "
             "sarif = SARIF 2.1.0 for code scanning)",
    )
    p_lint.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    p_lint.add_argument(
        "--lock-order", metavar="FILE",
        help="write the R11-derived lock total order (repro-lock-order/1) "
             "to FILE — the runtime watchdog's input",
    )
    p_lint.add_argument(
        "--fail-on", choices=("error", "warning", "never"), default="error",
        help="lowest severity that causes exit 1 (default: error)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print every rule with its severity and contract, then exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_eval = sub.add_parser("evaluate", help="score families against a truth table")
    p_eval.add_argument("families", help="families JSON (from `repro run`)")
    p_eval.add_argument("truth", help="truth JSON (from `repro generate`)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser(
        "compare", help="compare two clustering JSON files (test vs benchmark)"
    )
    p_cmp.add_argument("test", help="detected families JSON")
    p_cmp.add_argument("benchmark", help="benchmark clustering JSON")
    p_cmp.set_defaults(func=cmd_compare)

    p_info = sub.add_parser(
        "runtime-info", help="detected cores and backend availability"
    )
    p_info.set_defaults(func=cmd_runtime_info)

    p_sim = sub.add_parser("simulate", help="simulated-parallel processor sweep")
    p_sim.add_argument("fasta")
    p_sim.add_argument(
        "--procs", type=int, nargs="+", default=[32, 64, 128, 512],
        help="processor counts to sweep",
    )
    _add_pipeline_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
