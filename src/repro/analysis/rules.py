"""The repo-specific rule set enforced by ``repro lint``.

Each rule pins one of the pipeline's correctness contracts (see
DESIGN.md "Invariants & static analysis" for the full rationale):

========  ===================  ====================================================
rule      slug                 contract protected
========  ===================  ====================================================
``R1``    or-default           falsy containers survive ``None`` defaulting
``R2``    counter-registry     cross-mode counter identity stays checkable
``R3``    rng-discipline       every random draw is seed-derived (GKT semantics)
``R4``    clock-discipline     one clock source; skew model stays honest
``R5``    picklable-task       worker targets ship to processes and stay stateless
``R6``    mutable-default      no shared mutable default arguments
``R7``    lock-discipline      obs locks are exception-safe (``with``, not acquire)
``R9``    swallowed-exception  recovery paths never swallow exceptions silently
``R10``   request-span         serve verb handlers stay visible to request tracing
``R11``   lock-order           the lock acquisition graph stays cycle-free
``R12``   guarded-state        guarded attributes only mutate under their lock
``R13``   blocking-under-lock  no blocking call while a named lock is held
========  ===================  ====================================================

``R8`` (the ``BENCH_*.json`` writer contract) went with the scripts it
applied to; the other numbers are kept, since suppressions and reports
name them.  R11–R13 are cross-file: they run over the phase-one
:class:`~repro.analysis.project.ProjectIndex` (symbol table, call
graph, lock model, thread map) in ``finish_project`` instead of
visiting nodes file by file.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import (
    FileContext,
    ProjectContext,
    Rule,
    dotted_name,
)
from repro.analysis.project import ProjectIndex


def _project_index(project: ProjectContext) -> ProjectIndex | None:
    """The phase-one index, typed (``ProjectContext.index`` is opaque
    to avoid a framework -> project import cycle)."""
    index = project.index
    return index if isinstance(index, ProjectIndex) else None


class OrDefaultRule(Rule):
    """R1: ``x = x or Default()`` silently discards *falsy* arguments.

    ``seen = seen or set()`` throws away a deliberately-passed *empty*
    set, so the caller never sees what the callee added to it.  Any
    parameter whose type can be falsy-but-meaningful (containers,
    recorders, empty strings, zero counts) must be defaulted with
    ``if x is None``.
    """

    name = "R1"
    slug = "or-default"
    severity = "error"
    description = (
        "no `x or Default()` defaulting on container/recorder "
        "parameters; use `if x is None: x = Default()`"
    )

    _FALLBACKS = (ast.Call, ast.Dict, ast.List, ast.Set, ast.Tuple)

    def visit_Assign(self, ctx: FileContext, node: ast.Assign) -> None:
        self._check(ctx, node.value)

    def visit_AnnAssign(self, ctx: FileContext, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check(ctx, node.value)

    def _check(self, ctx: FileContext, value: ast.AST) -> None:
        if not (isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or)):
            return
        first, last = value.values[0], value.values[-1]
        if isinstance(first, ast.Name) and isinstance(last, self._FALLBACKS):
            ctx.report(
                self,
                value,
                f"`{first.id} or ...` discards a falsy `{first.id}` "
                f"(empty container); default with "
                f"`if {first.id} is None: {first.id} = ...`",
            )


class CounterRegistryRule(Rule):
    """R2: the counter vocabulary is closed over ``obs/registry.py``.

    The cross-mode identity contract ("scientific counters are
    bit-identical across serial / process / simulator") is only
    mechanically checkable if every counter a call site bumps is
    declared — and every declared counter is actually bumped.  Both
    directions are enforced: literal names must resolve against
    ``REGISTRY``/``GAUGES`` (f-strings against a declared dynamic
    prefix), and in ``finish_project`` every registry entry must have
    at least one bumping call site.
    """

    name = "R2"
    slug = "counter-registry"
    severity = "error"
    description = (
        "counter/gauge names must be declared in obs/registry.py, and "
        "every declared counter must be bumped by some call site"
    )

    _COUNTER_ATTRS = frozenset({"count", "set_max", "counter"})

    def __init__(self) -> None:
        self._literal_names: set[str] = set()
        self._fstring_prefixes: set[str] = set()

    # -- call-site side ----------------------------------------------------

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr not in self._COUNTER_ATTRS and attr != "gauge":
            return
        if not self._counterish_receiver(ctx, func.value):
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self._check_literal(ctx, node, attr, arg.value)
        elif isinstance(arg, ast.JoinedStr):
            self._check_fstring(ctx, node, attr, arg)

    def _counterish_receiver(self, ctx: FileContext, value: ast.AST) -> bool:
        """Is this ``<receiver>.count/gauge/...`` one of ours?

        Receivers: the ambient ``obs`` module, anything whose dotted
        name mentions ``recorder``, and ``self`` inside the ``obs``
        package (the Recorder's own internal gauge writes).
        """
        dotted = dotted_name(value)
        if dotted is None:
            return False
        lowered = dotted.lower()
        if dotted == "obs" or "recorder" in lowered:
            return True
        return dotted == "self" and "obs" in ctx.parts

    def _check_literal(
        self, ctx: FileContext, node: ast.Call, attr: str, name: str
    ) -> None:
        from repro.obs import registry

        if attr == "gauge":
            if name in registry.GAUGES or self._has_prefix(
                name, registry.DYNAMIC_GAUGE_PREFIXES
            ):
                return
            ctx.report(
                self,
                node,
                f"gauge name {name!r} is not declared in "
                f"obs/registry.py GAUGES",
            )
            return
        self._literal_names.add(name)
        if name in registry.REGISTRY or self._has_prefix(
            name, registry.DYNAMIC_COUNTER_PREFIXES
        ):
            return
        ctx.report(
            self,
            node,
            f"counter name {name!r} is not declared in obs/registry.py",
        )

    def _check_fstring(
        self, ctx: FileContext, node: ast.Call, attr: str, arg: ast.JoinedStr
    ) -> None:
        from repro.obs import registry

        prefix = ""
        if arg.values and isinstance(arg.values[0], ast.Constant):
            prefix = str(arg.values[0].value)
        if not prefix:
            ctx.report(
                self,
                node,
                "dynamic counter/gauge name without a constant prefix "
                "cannot be checked against the registry; start the "
                "f-string with a declared dynamic prefix",
            )
            return
        allowed = (
            registry.DYNAMIC_GAUGE_PREFIXES
            if attr == "gauge"
            else registry.DYNAMIC_COUNTER_PREFIXES
        )
        if attr != "gauge":
            self._fstring_prefixes.add(prefix)
        if any(prefix.startswith(p) for p in allowed):
            return
        kind = "gauge" if attr == "gauge" else "counter"
        ctx.report(
            self,
            node,
            f"dynamic {kind} prefix {prefix!r} is not declared in "
            f"obs/registry.py dynamic prefixes",
        )

    @staticmethod
    def _has_prefix(name: str, prefixes: tuple[str, ...]) -> bool:
        return any(name.startswith(p) for p in prefixes)

    # -- registry completeness side ----------------------------------------

    def finish_project(self, project: ProjectContext) -> None:
        registry_ctx = project.find_file("obs/registry.py")
        if registry_ctx is None:
            # Not linting the tree that owns the registry (e.g. a
            # fixture directory) — the completeness half does not apply.
            return
        from repro.obs import registry

        for name in registry.REGISTRY:
            if name in self._literal_names:
                continue
            if any(name.startswith(p) for p in self._fstring_prefixes):
                continue
            registry_ctx.report(
                self,
                self._declaration_line(registry_ctx, name),
                f"registry counter {name!r} is never bumped by any "
                f"count/set_max call site",
            )

    @staticmethod
    def _declaration_line(ctx: FileContext, name: str) -> int:
        needle = f'"{name}"'
        for lineno, line in enumerate(ctx.lines, start=1):
            if needle in line:
                return lineno
        return 1


class RngDisciplineRule(Rule):
    """R3: randomness in the algorithm packages flows through
    ``util/rng.py``.

    The Shingle phase implements Gibson–Kumar–Tomkins min-wise
    permutations: result invariance across backends holds only because
    every permutation is derived from the run seed.  A bare
    ``random.random()`` or ``np.random.default_rng()`` in ``pace/``,
    ``graph/``, or ``suffix/`` would break cross-mode identity without
    failing a single test on most seeds.
    """

    name = "R3"
    slug = "rng-discipline"
    severity = "error"
    description = (
        "no bare random.*/numpy.random.* in pace/, graph/, suffix/; "
        "derive generators via util/rng.py (make_rng/derive_seed)"
    )

    _PACKAGES = frozenset({"pace", "graph", "suffix"})
    _BANNED_ROOTS = ("random.", "np.random.", "numpy.random.")

    def applies_to(self, ctx: FileContext) -> bool:
        return bool(self._PACKAGES & set(ctx.parts[:-1]))

    def visit_Import(self, ctx: FileContext, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                ctx.report(
                    self,
                    node,
                    "import of `random` in an algorithm package; use "
                    "repro.util.rng.make_rng(seed, ...) instead",
                )

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        if node.module in ("random", "numpy.random"):
            ctx.report(
                self,
                node,
                f"import from `{node.module}` in an algorithm package; "
                f"use repro.util.rng.make_rng(seed, ...) instead",
            )

    def visit_Attribute(self, ctx: FileContext, node: ast.Attribute) -> None:
        dotted = dotted_name(node)
        if dotted is None:
            return
        qualified = dotted + "."
        if not qualified.startswith(self._BANNED_ROOTS):
            return
        # A bare module reference (`np.random` as the inner node of a
        # longer chain) and type references (np.random.Generator
        # annotations) are fine — only *state* access breaks seed
        # discipline.
        if qualified in self._BANNED_ROOTS or dotted.endswith(".Generator"):
            return
        ctx.report(
            self,
            node,
            f"`{dotted}` bypasses seed discipline; derive a generator "
            f"with repro.util.rng.make_rng(seed, ...)",
        )


class ClockDisciplineRule(Rule):
    """R4: one clock source.

    Every observability timestamp goes through the single explicit
    :class:`repro.obs.clock.ClockSync` pairing; ad-hoc wall-clock
    measurement uses :func:`repro.util.timing.monotonic_now`.  A stray ``time.time()`` reintroduces exactly the
    implicit perf/wall pairing the clock model was built to eliminate.
    """

    name = "R4"
    slug = "clock-discipline"
    severity = "error"
    description = (
        "no time.time()/perf_counter()/monotonic() outside obs/clock.py "
        "and util/timing.py; use util.timing.monotonic_now or obs.clock"
    )

    _ALLOWED_SUFFIXES = ("obs/clock.py", "util/timing.py")
    _BANNED_TIME_ATTRS = frozenset(
        {"time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.relpath.endswith(self._ALLOWED_SUFFIXES)

    def visit_ImportFrom(self, ctx: FileContext, node: ast.ImportFrom) -> None:
        if node.module != "time":
            return
        for alias in node.names:
            if alias.name in self._BANNED_TIME_ATTRS:
                ctx.report(
                    self,
                    node,
                    f"`from time import {alias.name}` outside the "
                    f"sanctioned clock modules; use "
                    f"repro.util.timing.monotonic_now",
                )

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        if "." in dotted:
            root, _, attr = dotted.rpartition(".")
            if root == "time" and attr in self._BANNED_TIME_ATTRS:
                ctx.report(
                    self,
                    node,
                    f"`{dotted}()` outside the sanctioned clock modules; "
                    f"use repro.util.timing.monotonic_now (durations) or "
                    f"repro.obs.clock.ClockSync (timestamps)",
                )


class PicklableTaskRule(Rule):
    """R5: functions shipped to worker processes must be module-level
    (picklable under spawn) and must not write module globals.

    The master/worker contract says workers are stateless engines: a
    lambda or closure target fails at ``spawn`` start; a target that
    writes globals works under ``fork`` and silently diverges — each
    worker mutates its own copy, and nothing comes back.
    """

    name = "R5"
    slug = "picklable-task"
    severity = "error"
    description = (
        "Process targets must be module-level functions with no "
        "`global` writes (stateless, picklable workers)"
    )

    def start_file(self, ctx: FileContext) -> None:
        self._module_defs: dict[str, ast.FunctionDef] = {}
        self._nested_defs: set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._module_defs[node.name] = node
        for top in ast.walk(ctx.tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for inner in ast.walk(top):
                    if inner is top:
                        continue
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._nested_defs.add(inner.name)

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        dotted = dotted_name(node.func) or ""
        if not (dotted == "Process" or dotted.endswith(".Process")):
            return
        for keyword in node.keywords:
            if keyword.arg == "target":
                self._check_target(ctx, keyword.value)

    def _check_target(self, ctx: FileContext, target: ast.AST) -> None:
        if isinstance(target, ast.Lambda):
            ctx.report(
                self,
                target,
                "lambda worker target is not picklable under spawn; "
                "define a module-level function",
            )
            return
        if isinstance(target, ast.Attribute):
            ctx.report(
                self,
                target,
                f"worker target `{dotted_name(target)}` is a bound/"
                f"attribute reference; pass a module-level function",
            )
            return
        if not isinstance(target, ast.Name):
            return
        name = target.id
        if name in self._module_defs:
            fn = self._module_defs[name]
            for inner in ast.walk(fn):
                if isinstance(inner, ast.Global):
                    ctx.report(
                        self,
                        inner,
                        f"worker target `{name}` writes module globals "
                        f"(`global {', '.join(inner.names)}`); workers "
                        f"must be stateless — ship state through the "
                        f"result queue",
                    )
            return
        if name in self._nested_defs:
            ctx.report(
                self,
                target,
                f"worker target `{name}` is a nested function (closure); "
                f"it cannot be pickled to a spawned worker — move it to "
                f"module level",
            )


class MutableDefaultRule(Rule):
    """R6: no mutable default arguments anywhere.

    A ``def f(x, acc=[])`` default is evaluated once and shared by
    every call — in this codebase that is a cross-run, cross-phase
    state leak of exactly the kind the master-side-state contract
    forbids.
    """

    name = "R6"
    slug = "mutable-default"
    severity = "error"
    description = "no mutable default arguments (list/dict/set displays or constructors)"

    _MUTABLE_DISPLAYS = (
        ast.Dict,
        ast.List,
        ast.Set,
        ast.ListComp,
        ast.DictComp,
        ast.SetComp,
    )
    _MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        self._check_args(ctx, node.args)

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check_args(ctx, node.args)

    def visit_Lambda(self, ctx: FileContext, node: ast.Lambda) -> None:
        self._check_args(ctx, node.args)

    def _check_args(self, ctx: FileContext, args: ast.arguments) -> None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, self._MUTABLE_DISPLAYS):
                ctx.report(
                    self,
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and create inside the function",
                )
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in self._MUTABLE_CONSTRUCTORS
            ):
                ctx.report(
                    self,
                    default,
                    f"mutable default `{default.func.id}()` is shared "
                    f"across calls; default to None and create inside "
                    f"the function",
                )


class LockDisciplineRule(Rule):
    """R7: observability locks are taken with ``with``, never bare
    ``acquire()``.

    The telemetry sampler's failure posture ("sampling must never take
    a run down") only holds if an exception between ``acquire`` and
    ``release`` cannot leave the recorder lock held — a held recorder
    lock deadlocks every instrumented hot path at the next counter
    bump.
    """

    name = "R7"
    slug = "lock-discipline"
    severity = "error"
    description = (
        "locks in the obs package must be acquired with `with`, never "
        "bare .acquire()/.release()"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return "obs" in ctx.parts[:-1]

    def visit_Call(self, ctx: FileContext, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
            ctx.report(
                self,
                node,
                f"bare `.{func.attr}()` is not exception-safe; hold the "
                f"lock with a `with` block",
            )


class SwallowedExceptionRule(Rule):
    """R9: fault-handling code never swallows exceptions silently.

    The fault-tolerant runtime's contract is that every failure is
    either *handled* — re-raised, exited via return/continue/break, or
    converted into a fallback value — or *recorded* through the obs
    facade (a counter bump, an event, a queue put).  An ``except``
    body in ``runtime/`` or ``faults/`` that merely ``pass``es is a
    recovery decision nobody can observe, test, or count; it is exactly
    how lost tasks and dead workers go unnoticed until results drift.
    """

    name = "R9"
    slug = "swallowed-exception"
    severity = "error"
    description = (
        "except bodies in runtime/ and faults/ must re-raise, exit via "
        "return/continue/break, bind a fallback value, or record the "
        "failure via obs (count/event/gauge/...) — never silently pass"
    )

    _PACKAGES = frozenset({"runtime", "faults"})
    #: Statement types that count as an explicit handling outcome.
    _HANDLED_STMTS = (
        ast.Raise,
        ast.Return,
        ast.Continue,
        ast.Break,
        ast.Assign,
        ast.AnnAssign,
        ast.AugAssign,
    )
    #: Call leaves that record the failure (obs facade + queue hand-off).
    _RECORDING_LEAVES = frozenset(
        {"count", "event", "set_max", "gauge", "heartbeat",
         "put", "put_nowait", "report"}
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return bool(self._PACKAGES & set(ctx.parts[:-1]))

    def visit_ExceptHandler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> None:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, self._HANDLED_STMTS):
                    return
                if isinstance(sub, ast.Call):
                    dotted = dotted_name(sub.func) or ""
                    if dotted.rpartition(".")[2] in self._RECORDING_LEAVES:
                        return
        caught = ast.unparse(node.type) if node.type is not None else "BaseException"
        ctx.report(
            self,
            node,
            f"`except {caught}` swallows the exception; re-raise, "
            f"return/continue/break, bind a fallback value, or record "
            f"it with obs.count/obs.event",
        )


class RequestSpanRule(Rule):
    """R10: every serve protocol verb handler opens a request span.

    The daemon's SLO surface (per-verb histograms, stage shares, slow
    logs) decomposes requests by the spans their handlers record; a
    ``_op_<verb>`` handler that never enters ``obs.span(...)`` (or a
    request context ``stage(...)``) is a verb whose time silently
    vanishes from every trace.  New verbs must open their span through
    the obs facade as the first thing they do.
    """

    name = "R10"
    slug = "request-span"
    severity = "error"
    description = (
        "serve/ protocol verb handlers (`_op_<verb>`) must open a "
        "request span via obs.span(...)/stage(...)"
    )

    _SPAN_LEAVES = frozenset({"span", "stage"})

    def applies_to(self, ctx: FileContext) -> bool:
        return "serve" in ctx.parts[:-1]

    def visit_FunctionDef(self, ctx: FileContext, node: ast.FunctionDef) -> None:
        if not node.name.startswith("_op_"):
            return
        for sub in ast.walk(node):
            if not isinstance(sub, ast.With):
                continue
            for item in sub.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                dotted = dotted_name(call.func) or ""
                if dotted.rpartition(".")[2] in self._SPAN_LEAVES:
                    return
        ctx.report(
            self,
            node,
            f"verb handler `{node.name}` never opens a request span; "
            f"wrap its body in `with obs.span(\"req.<verb>\", "
            f"cat=\"serve\")` so the verb stays visible to tracing",
        )


class _ConcurrencyRule(Rule):
    """Shared base for the cross-file concurrency rules (R11–R13).

    These run entirely in ``finish_project`` over the phase-one
    :class:`~repro.analysis.project.ProjectIndex`; per-file visitation
    is not enough to see a lock inversion that spans two modules.
    """

    needs_index = True

    #: top-level package dirs whose lock hygiene these rules police
    _SCOPED = frozenset({"serve", "runtime", "obs"})

    def _in_scope(self, ctx: FileContext) -> bool:
        return bool(self._SCOPED & set(ctx.parts[:-1]))


class LockOrderRule(_ConcurrencyRule):
    """R11: the static lock-acquisition graph must be acyclic.

    An edge A→B is recorded whenever lock B is acquired while A can be
    held — lexically nested ``with`` blocks, or a ``with A:`` body
    calling (transitively, through the project call graph) a function
    that takes B.  Any cycle is a latent deadlock: two threads entering
    the cycle from different ends stall forever, and nothing in a test
    suite reliably provokes it.  The derived total order is deposited
    as the ``lock_order`` artifact (written by ``repro lint
    --lock-order``, committed as ``lock_order.json``) and enforced at
    runtime by :mod:`repro.util.lockwatch` when
    ``REPRO_LOCK_WATCHDOG=1``.

    Two hygiene sub-checks keep the model sound: locks in ``serve/`` /
    ``runtime/`` / ``obs/`` must be created through ``named_lock()`` /
    ``named_rlock()`` (a raw ``threading.Lock`` is invisible to the
    watchdog), and an explicit name literal must match the canonical
    name the analysis derives (else the static and dynamic halves
    disagree about identity).
    """

    name = "R11"
    slug = "lock-order"
    severity = "error"
    description = (
        "lock acquisition graph must be cycle-free; named locks in "
        "serve/runtime/obs must use named_lock() with canonical names"
    )

    def finish_project(self, project: ProjectContext) -> None:
        from repro.util.lockwatch import ORDER_SCHEMA

        index = _project_index(project)
        if index is None:  # pragma: no cover - engine always builds it
            return
        for site in index.raw_lock_sites:
            if self._in_scope(site.ctx):
                site.ctx.report(
                    self,
                    site.node,
                    f"raw `{site.dotted}()` in {site.ctx.parts[-2]}/ is "
                    f"invisible to the lock-order watchdog; create it "
                    f"with `named_lock(...)`/`named_rlock(...)` from "
                    f"repro.util.lockwatch",
                )
        for mismatch in index.name_mismatches:
            mismatch.ctx.report(
                self,
                mismatch.node,
                f"named_lock literal {mismatch.literal!r} does not match "
                f"the canonical name {mismatch.derived!r} the analysis "
                f"derives; the watchdog and lock_order.json would "
                f"disagree about this lock's identity",
            )
        edges = index.lock_edges()
        for (a, b), edge in sorted(edges.items()):
            if a == b:
                edge.acq.func.ctx.report(
                    self,
                    edge.acq.node,
                    f"non-reentrant lock {a!r} can be re-acquired while "
                    f"already held ({edge.witness}); this self-deadlocks "
                    f"— use named_rlock or restructure",
                )
        distinct = {k: v for k, v in edges.items() if k[0] != k[1]}
        cycle = index.find_cycle(distinct)
        if cycle is not None:
            witnesses = "; ".join(
                distinct[(a, b)].witness
                for a, b in zip(cycle, cycle[1:])
                if (a, b) in distinct
            )
            anchor = distinct[(cycle[0], cycle[1])].acq
            anchor.func.ctx.report(
                self,
                anchor.node,
                f"lock-order cycle {' -> '.join(cycle)}: two threads "
                f"entering this cycle from different ends deadlock "
                f"[{witnesses}]",
            )
            return
        order = index.lock_order(distinct)
        if order is not None:
            threads: dict[str, list[str]] = {name: [] for name in order}
            for acq in index.acquisitions:
                if acq.lock in threads:
                    threads[acq.lock] = sorted(
                        set(threads[acq.lock]) | acq.func.threads
                    )
            project.artifacts["lock_order"] = {
                "schema": ORDER_SCHEMA,
                "locks": order,
                "edges": [list(pair) for pair in sorted(distinct)],
                "threads": threads,
            }


class GuardedStateRule(_ConcurrencyRule):
    """R12: declared guarded attributes are only mutated under their lock.

    ``self.attr = ...  # guarded by <lock>`` on an ``__init__``
    assignment is a machine-checked claim: every mutation of that
    attribute — assignment, augmented assignment, ``del``, or an
    in-place mutator call like ``.append``/``.setdefault`` — must occur
    while ``<lock>`` is statically held: lexically inside ``with
    <lock>:``, inside a function annotated ``# repro-lint:
    requires=<lock>``, on a call path where every non-exempt caller
    holds it, inside the owning class's initializer, or inside
    single-threaded construction code annotated ``# repro-lint:
    thread=init``.  The same pass verifies ``requires=`` obligations at
    every call site, so the annotation is a checked contract rather
    than a comment.
    """

    name = "R12"
    slug = "guarded-state"
    severity = "error"
    description = (
        "attributes declared `# guarded by <lock>` may only be mutated "
        "while that lock is statically held (requires=/thread=init "
        "annotations documented in DESIGN.md §7)"
    )

    def finish_project(self, project: ProjectContext) -> None:
        index = _project_index(project)
        if index is None:  # pragma: no cover - engine always builds it
            return
        for cls_info in index.classes.values():
            for decl in cls_info.guarded.values():
                if decl.lock not in index.locks:
                    decl.ctx.report(
                        self,
                        decl.lineno,
                        f"`# guarded by {decl.lock}` names an unknown "
                        f"lock; known named locks: "
                        f"{', '.join(sorted(index.locks)) or '(none)'}",
                    )
        for mut in index.mutations:
            guard = mut.owner.guarded[mut.attr].lock
            fn = mut.func
            if (
                guard in mut.held
                or guard in fn.requires
                or (fn.cls is mut.owner and fn.is_init)
                or fn.exempt
                or index.always_held(fn, guard)
            ):
                continue
            threads = ", ".join(sorted(fn.threads))
            fn.ctx.report(
                self,
                mut.node,
                f"{mut.owner.name}.{mut.attr} ({mut.how}) is guarded by "
                f"{guard} but the lock is not statically held here "
                f"(function {fn.qualname}, runs on: {threads}); take "
                f"the lock, annotate `# repro-lint: requires={guard}`, "
                f"or mark construction-only code `thread=init`",
            )
        for site in index.call_sites:
            for lock in sorted(site.callee.requires):
                if (
                    lock in site.held
                    or lock in site.caller.requires
                    or site.caller.exempt
                    or index.always_held(site.caller, lock)
                ):
                    continue
                site.caller.ctx.report(
                    self,
                    site.node,
                    f"{site.callee.qualname} requires {lock} but "
                    f"{site.caller.qualname} does not hold it at this "
                    f"call site",
                )


class BlockingUnderLockRule(_ConcurrencyRule):
    """R13: no blocking call while a named lock is statically held.

    Holding a lock across ``os.fsync``, a socket send/recv, an
    untimed ``queue.Queue`` put/get, or an alignment-kernel entry point
    serialises every other thread behind disk or DP latency — exactly
    the applier-vs-reader stall shape that caps serve throughput.  The
    held-lock set at a call combines the lexical ``with`` nest with the
    propagated ``any_held`` entry set, so a blocking call three frames
    below the ``with`` is still caught (and reported at the blocking
    site, with a witness naming the path that holds the lock).
    """

    name = "R13"
    slug = "blocking-under-lock"
    severity = "error"
    description = (
        "no os.fsync / socket send-recv / untimed queue ops / "
        "alignment DP while a named lock is statically held"
    )

    def finish_project(self, project: ProjectContext) -> None:
        index = _project_index(project)
        if index is None:  # pragma: no cover - engine always builds it
            return
        for bc in index.blocking_calls:
            fn = bc.func
            held: dict[str, str] = {
                lock: f"acquired in {fn.qualname}" for lock in bc.held
            }
            for lock in fn.requires:
                held.setdefault(lock, f"requires= on {fn.qualname}")
            for lock, witness in fn.any_held.items():
                held.setdefault(lock, witness)
            if not held:
                continue
            names = ", ".join(sorted(held))
            witness = held[sorted(held)[0]]
            fn.ctx.report(
                self,
                bc.node,
                f"{bc.what} can block while {names} is held "
                f"({witness}); move the blocking work outside the "
                f"critical section",
            )


def default_rules() -> tuple[type[Rule], ...]:
    """Every rule, in report order."""
    return (
        OrDefaultRule,
        CounterRegistryRule,
        RngDisciplineRule,
        ClockDisciplineRule,
        PicklableTaskRule,
        MutableDefaultRule,
        LockDisciplineRule,
        SwallowedExceptionRule,
        RequestSpanRule,
        LockOrderRule,
        GuardedStateRule,
        BlockingUnderLockRule,
    )
