"""Phase-one whole-project index for cross-file lint rules.

``repro lint`` historically ran ten per-file rules: each file's AST was
self-contained evidence.  Concurrency contracts are not like that — a
lock-order inversion is two *files* disagreeing, and "this dict is only
touched under that lock" is a property of every call path that reaches
the mutation.  This module is the substrate those rules (R11–R13) run
on: given the already-parsed :class:`FileContext` objects (each file is
parsed exactly once, by the engine), it builds

* a **symbol table**: modules, classes, functions/methods, and
  best-effort attribute/parameter types (from annotations and
  constructor assignments);
* an **intra-repo call graph** with method resolution through ``self``,
  through typed attributes/parameters, through imports, and — as a last
  resort — through project-unique method names;
* a **lock model**: every *named lock* (a ``threading.Lock``/``RLock``
  or :func:`repro.util.lockwatch.named_lock` assigned to a class
  attribute in ``__init__``/``__post_init__``, to a module-level name,
  or to a local), every ``with <lock>:`` acquisition with the set of
  locks lexically held at that point, and a propagated
  ``any_held``/``always_held`` analysis pushing held-lock sets through
  the call graph;
* a **thread map**: which functions run on which threads, seeded from
  ``threading.Thread(target=..., name=...)`` sites and from
  ``# repro-lint: thread=<name>`` annotations, propagated through the
  call graph.

Annotation grammar (documented in DESIGN.md §7):

* ``self.attr = {}  # guarded by <lock>`` — on an ``__init__`` /
  ``__post_init__`` assignment: the attribute may only be mutated while
  ``<lock>`` is statically held (R12).  ``<lock>`` is a sibling lock
  attribute (``_metrics_lock``) or a qualified canonical name
  (``ServeServer._lock``).
* ``def f(...):  # repro-lint: requires=<Lock>`` — callers must hold
  ``<Lock>``; the body may assume it is held.  Checked at every call
  site (comma-separate for several locks).
* ``def f(...):  # repro-lint: thread=<name>`` — seeds the thread map.
  The special name ``init`` marks single-threaded construction code
  (state not yet shared): guarded-state checks are waived inside and
  its call sites impose no lock obligations.

Canonical lock names are ``ClassName.attr`` for instance locks (static
analysis cannot tell instances apart, so all instances of a class share
one node) and ``module_basename.name`` for module-level locks.  These
are the names that appear in ``lock_order.json`` and that
:func:`repro.util.lockwatch.named_lock` binds at runtime.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from repro.analysis.framework import FileContext, dotted_name

#: Dotted constructors that create a plain (unnamed) lock.
RAW_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})

#: Leaf call names of the watchdog-aware lock factory.
NAMED_LOCK_FACTORIES = frozenset({"named_lock", "named_rlock"})

#: Foreign types whose blocking methods R13 knows about.
_FOREIGN_TYPE_TAGS = frozenset(
    {"queue.Queue", "threading.Event", "threading.Condition",
     "threading.Thread", "socket.socket"}
)

#: The thread-map name that marks single-threaded construction code.
INIT_THREAD = "init"

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*(thread|requires)=([A-Za-z0-9_.,\- ]+)"
)
_GUARDED = re.compile(r"#\s*guarded\s+by\s+([A-Za-z_][A-Za-z0-9_.]*)")

#: Method names that mutate their receiver in place (R12 treats a call
#: to any of these on a guarded attribute as a mutation).
MUTATING_METHODS = frozenset(
    {"append", "appendleft", "add", "clear", "discard", "extend",
     "insert", "pop", "popitem", "popleft", "remove", "setdefault",
     "sort", "update", "write"}
)

TypeRef = Union["ClassInfo", str]


@dataclass
class LockDecl:
    """One named lock: a class attribute, module global, or local."""

    name: str  #: canonical name ("ServeServer._lock", "request._ids_lock")
    ctx: FileContext
    lineno: int
    rlock: bool
    #: literal passed to named_lock()/named_rlock(), if created that way
    explicit: str | None = None


@dataclass
class RawLockSite:
    """A ``threading.Lock()``/``RLock()`` creation (not watchdog-wired)."""

    ctx: FileContext
    node: ast.Call
    dotted: str


@dataclass
class NameMismatch:
    """A named_lock() literal disagreeing with the derived canonical."""

    ctx: FileContext
    node: ast.Call
    literal: str
    derived: str


@dataclass
class GuardDecl:
    """A ``# guarded by <lock>`` declaration on an __init__ assignment."""

    attr: str
    lock: str  #: canonical lock name
    ctx: FileContext
    lineno: int


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    cls: "ClassInfo | None"
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    requires: frozenset[str] = frozenset()
    thread: str | None = None  #: explicit thread= annotation
    is_init: bool = False  #: __init__ or __post_init__
    #: locks -> short witness of how the lock can be held on entry
    any_held: dict[str, str] = field(default_factory=dict)
    threads: set[str] = field(default_factory=set)

    @property
    def exempt(self) -> bool:
        """True for single-threaded construction code (thread=init)."""
        return self.thread == INIT_THREAD

    def where(self, node: ast.AST | None = None) -> str:
        line = getattr(node, "lineno", self.node.lineno)
        return f"{self.ctx.relpath}:{line}"


@dataclass
class ClassInfo:
    """One class: methods, typed attributes, locks, guard declarations."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    ctx: FileContext
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    locks: dict[str, LockDecl] = field(default_factory=dict)
    guarded: dict[str, GuardDecl] = field(default_factory=dict)


@dataclass
class CallSite:
    """A resolved intra-project call with its lexical lock context."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    held: tuple[str, ...]  #: locks lexically held at the call


@dataclass
class Acquisition:
    """One ``with <lock>:`` entry with the locks already held there."""

    func: FunctionInfo
    lock: str
    node: ast.expr
    held_before: tuple[str, ...]
    rlock: bool


@dataclass
class BlockingCall:
    """A call that can block (R13's primitive set), in lock context."""

    func: FunctionInfo
    node: ast.Call
    what: str  #: human description ("os.fsync()", "alignment DP ...")
    held: tuple[str, ...]  #: locks lexically held at the call


@dataclass
class Mutation:
    """A mutation of a guarded attribute, with its lexical lock context."""

    func: FunctionInfo
    owner: ClassInfo
    attr: str
    node: ast.AST
    held: tuple[str, ...]
    how: str  #: "assigned", "augmented", "deleted", ".append(...)" ...


@dataclass
class LockEdge:
    """One acquisition-order edge with a human-readable witness."""

    witness: str
    acq: Acquisition


@dataclass
class ThreadSeed:
    """A ``threading.Thread(target=...)`` site naming a thread."""

    target: FunctionInfo
    thread_name: str
    node: ast.Call


@dataclass
class _Module:
    key: str  #: dotted module path relative to the lint root
    basename: str
    ctx: FileContext
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    locks: dict[str, LockDecl] = field(default_factory=dict)


def _module_key(relpath: str) -> str:
    parts = list(relpath.split("/"))
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or relpath


def _line_directives(ctx: FileContext, lineno: int) -> dict[str, str]:
    if 1 <= lineno <= len(ctx.lines):
        return {m.group(1): m.group(2).strip()
                for m in _DIRECTIVE.finditer(ctx.lines[lineno - 1])}
    return {}


def _annotation_name(node: ast.expr | None) -> str | None:
    """Best-effort type name from an annotation expression.

    Unwraps ``X | None``, ``Optional[X]``, quoted forward references,
    and plain ``Name``/``Attribute`` chains; anything else is None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            name = _annotation_name(side)
            if name is not None and name != "None":
                return name
        return None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value) or ""
        if base.rpartition(".")[2] == "Optional":
            return _annotation_name(
                node.slice if not isinstance(node.slice, ast.Tuple)
                else None
            )
        return base or None
    if isinstance(node, ast.Constant) and node.value is None:
        return "None"
    return dotted_name(node)


class ProjectIndex:
    """The queryable result of phase one; see the module docstring."""

    def __init__(self) -> None:
        self.modules: dict[str, _Module] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.locks: dict[str, LockDecl] = {}
        self.acquisitions: list[Acquisition] = []
        self.call_sites: list[CallSite] = []
        self.blocking_calls: list[BlockingCall] = []
        self.mutations: list[Mutation] = []
        self.thread_seeds: list[ThreadSeed] = []
        self.raw_lock_sites: list[RawLockSite] = []
        self.name_mismatches: list[NameMismatch] = []
        self._callers: dict[str, list[CallSite]] = {}
        self._always_memo: dict[tuple[str, str], bool] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, files: Sequence[FileContext]) -> "ProjectIndex":
        index = cls()
        for ctx in files:
            index._scan_module(ctx)
        for mod in index.modules.values():
            for cls_info in mod.classes.values():
                index._resolve_attr_types(cls_info)
        for fn in list(index.functions.values()):
            _FunctionScanner(index, fn).scan()
        for site in index.call_sites:
            index._callers.setdefault(site.callee.qualname, []).append(site)
        index._propagate_any_held()
        index._propagate_threads()
        return index

    def _scan_module(self, ctx: FileContext) -> None:
        key = _module_key(ctx.relpath)
        mod = _Module(key=key, basename=key.rpartition(".")[2], ctx=ctx)
        self.modules[key] = mod
        for node in ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    mod.imports[local] = alias.asname and alias.name or local
                    if alias.asname:
                        mod.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    mod.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(mod, None, node)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(mod, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._maybe_module_lock(mod, target.id, node)

    def _maybe_module_lock(
        self, mod: _Module, name: str, node: ast.Assign
    ) -> None:
        info = self._lock_ctor(mod, node.value)
        if info is None:
            return
        rlock, literal = info
        canonical = literal or f"{mod.basename}.{name}"
        decl = LockDecl(name=canonical, ctx=mod.ctx, lineno=node.lineno,
                        rlock=rlock, explicit=literal)
        mod.locks[name] = decl
        self.locks[canonical] = decl
        if literal is not None and literal != f"{mod.basename}.{name}":
            assert isinstance(node.value, ast.Call)
            self.name_mismatches.append(NameMismatch(
                ctx=mod.ctx, node=node.value, literal=literal,
                derived=f"{mod.basename}.{name}",
            ))

    def _lock_ctor(
        self, mod: _Module, value: ast.expr
    ) -> tuple[bool, str | None] | None:
        """(is_rlock, explicit_name) when ``value`` constructs a lock."""
        if not isinstance(value, ast.Call):
            return None
        dotted = self._foreign_dotted(mod, value.func) or ""
        leaf = dotted.rpartition(".")[2]
        if dotted in RAW_LOCK_FACTORIES:
            self.raw_lock_sites.append(
                RawLockSite(ctx=mod.ctx, node=value, dotted=dotted)
            )
            return dotted.endswith("RLock"), None
        if leaf in NAMED_LOCK_FACTORIES:
            literal: str | None = None
            if value.args and isinstance(value.args[0], ast.Constant) \
                    and isinstance(value.args[0].value, str):
                literal = value.args[0].value
            return leaf == "named_rlock", literal
        return None

    def _foreign_dotted(self, mod: _Module, func: ast.expr) -> str | None:
        """Resolve a call target to a dotted name through imports."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = mod.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _register_function(
        self,
        mod: _Module,
        cls_info: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        parent: str | None = None,
    ) -> FunctionInfo:
        scope = cls_info.name if cls_info is not None else parent
        qual = f"{mod.key}.{scope}.{node.name}" if scope \
            else f"{mod.key}.{node.name}"
        directives = _line_directives(mod.ctx, node.lineno)
        requires = frozenset(
            part.strip()
            for part in directives.get("requires", "").split(",")
            if part.strip()
        )
        fn = FunctionInfo(
            qualname=qual,
            module=mod.key,
            cls=cls_info,
            name=node.name,
            node=node,
            ctx=mod.ctx,
            requires=requires,
            thread=directives.get("thread"),
            is_init=node.name in ("__init__", "__post_init__"),
        )
        self.functions[qual] = fn
        if cls_info is not None:
            cls_info.methods[node.name] = fn
        elif parent is None:
            mod.functions[node.name] = fn
        return fn

    def _scan_class(self, mod: _Module, node: ast.ClassDef) -> None:
        cls_info = ClassInfo(
            qualname=f"{mod.key}.{node.name}", name=node.name,
            module=mod.key, node=node, ctx=mod.ctx,
        )
        mod.classes[node.name] = cls_info
        self.classes[cls_info.qualname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(mod, cls_info, stmt)
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                # dataclass-style field: `done: threading.Event = ...`
                name = _annotation_name(stmt.annotation)
                if name is not None:
                    cls_info.attr_types[stmt.target.id] = name
        for init_name in ("__init__", "__post_init__"):
            init = cls_info.methods.get(init_name)
            if init is not None:
                self._scan_init(mod, cls_info, init)

    def _scan_init(
        self, mod: _Module, cls_info: ClassInfo, init: FunctionInfo
    ) -> None:
        """Collect lock declarations, guard declarations, and attribute
        types from ``self.X = ...`` assignments in an initializer."""
        param_types = _param_annotations(mod, self, init.node)
        for stmt in ast.walk(init.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, \
                    stmt.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            attr = target.attr
            lock = self._lock_ctor(mod, value) if value is not None else None
            if lock is not None:
                rlock, literal = lock
                canonical = literal or f"{cls_info.name}.{attr}"
                decl = LockDecl(name=canonical, ctx=mod.ctx,
                                lineno=stmt.lineno, rlock=rlock,
                                explicit=literal)
                cls_info.locks[attr] = decl
                self.locks[canonical] = decl
                if literal is not None and \
                        literal != f"{cls_info.name}.{attr}":
                    assert isinstance(value, ast.Call)
                    self.name_mismatches.append(NameMismatch(
                        ctx=mod.ctx, node=value, literal=literal,
                        derived=f"{cls_info.name}.{attr}",
                    ))
                continue
            # attribute type: annotation, constructor, or typed parameter
            type_name = _annotation_name(annotation)
            if type_name is None and isinstance(value, ast.Call):
                type_name = self._foreign_dotted(mod, value.func)
            if type_name is None and isinstance(value, ast.Name):
                type_name = param_types.get(value.id)
            if type_name is not None:
                cls_info.attr_types.setdefault(attr, type_name)
            match = _GUARDED.search(
                mod.ctx.lines[stmt.lineno - 1]
                if stmt.lineno <= len(mod.ctx.lines) else ""
            )
            if match:
                cls_info.guarded[attr] = GuardDecl(
                    attr=attr,
                    lock=self._canonical_guard(cls_info, match.group(1)),
                    ctx=mod.ctx,
                    lineno=stmt.lineno,
                )

    def _canonical_guard(self, cls_info: ClassInfo, raw: str) -> str:
        """``_metrics_lock`` -> sibling lock; ``Class.attr`` stays as-is."""
        if "." in raw:
            return raw
        sibling = cls_info.locks.get(raw)
        return sibling.name if sibling is not None else \
            f"{cls_info.name}.{raw}"

    # -- type resolution ---------------------------------------------------

    def _resolve_attr_types(self, cls_info: ClassInfo) -> None:
        mod = self.modules[cls_info.module]
        for attr, raw in list(cls_info.attr_types.items()):
            resolved = self.resolve_type_name(mod, raw)
            if isinstance(resolved, ClassInfo):
                cls_info.attr_types[attr] = resolved.qualname
            elif resolved is not None:
                cls_info.attr_types[attr] = resolved

    def resolve_type_name(
        self, mod: _Module, name: str
    ) -> TypeRef | None:
        """A type name (possibly local alias) -> ClassInfo or foreign tag."""
        head, _, rest = name.partition(".")
        target = mod.imports.get(head)
        dotted = f"{target}.{rest}" if target and rest else (target or name)
        cls_info = self.class_by_dotted(dotted)
        if cls_info is not None:
            return cls_info
        if not rest and target is None and name in mod.classes:
            return mod.classes[name]
        for tag in _FOREIGN_TYPE_TAGS:
            if dotted == tag or dotted.endswith("." + tag):
                return tag
        return dotted

    def class_by_dotted(self, dotted: str) -> ClassInfo | None:
        """Find a project class by (suffix of a) dotted path."""
        if dotted in self.classes:
            return self.classes[dotted]
        tail = dotted.rpartition(".")[2]
        matches = [
            cls_info for qual, cls_info in self.classes.items()
            if qual.rpartition(".")[2] == tail
            and (qual.endswith(dotted) or dotted.endswith(qual))
        ]
        return matches[0] if len(matches) == 1 else None

    def module_for(self, dotted: str) -> _Module | None:
        if dotted in self.modules:
            return self.modules[dotted]
        matches = [
            mod for key, mod in self.modules.items()
            if key.endswith("." + dotted) or dotted.endswith("." + key)
        ]
        return matches[0] if len(matches) == 1 else None

    def unique_method(self, name: str) -> FunctionInfo | None:
        """The only method with this name project-wide, if unambiguous."""
        found: list[FunctionInfo] = []
        for cls_info in self.classes.values():
            fn = cls_info.methods.get(name)
            if fn is not None:
                found.append(fn)
                if len(found) > 1:
                    return None
        return found[0] if len(found) == 1 else None

    # -- propagation -------------------------------------------------------

    def callers_of(self, fn: FunctionInfo) -> list[CallSite]:
        return self._callers.get(fn.qualname, [])

    def _propagate_any_held(self) -> None:
        for fn in self.functions.values():
            for lock in fn.requires:
                fn.any_held.setdefault(
                    lock, f"required by annotation on {fn.qualname}"
                )
        changed = True
        while changed:
            changed = False
            for site in self.call_sites:
                incoming: dict[str, str] = {}
                for lock in site.held:
                    incoming[lock] = (
                        f"{site.caller.qualname} holds it at "
                        f"{site.caller.where(site.node)}"
                    )
                for lock, witness in site.caller.any_held.items():
                    incoming.setdefault(lock, witness)
                for lock, witness in incoming.items():
                    if lock not in site.callee.any_held:
                        site.callee.any_held[lock] = witness
                        changed = True

    def _propagate_threads(self) -> None:
        for seed in self.thread_seeds:
            seed.target.threads.add(seed.thread_name)
        for fn in self.functions.values():
            if fn.thread is not None:
                fn.threads.add(fn.thread)
        changed = True
        while changed:
            changed = False
            for site in self.call_sites:
                missing = site.caller.threads - site.callee.threads
                if missing:
                    site.callee.threads |= missing
                    changed = True
        for fn in self.functions.values():
            if not fn.threads:
                fn.threads.add("main")

    def always_held(
        self,
        fn: FunctionInfo,
        lock: str,
        _visiting: frozenset[str] = frozenset(),
    ) -> bool:
        """Whether ``lock`` is held on *every* non-exempt path into
        ``fn`` (requires-annotations and call-site propagation)."""
        key = (fn.qualname, lock)
        if key in self._always_memo:
            return self._always_memo[key]
        if lock in fn.requires or fn.exempt:
            self._always_memo[key] = True
            return True
        if fn.qualname in _visiting:
            return True  # optimistic on cycles (greatest fixpoint)
        sites = self.callers_of(fn)
        if not sites:
            self._always_memo[key] = False
            return False
        visiting = _visiting | {fn.qualname}
        result = True
        for site in sites:
            caller = site.caller
            if caller.exempt:
                continue
            if lock in site.held or lock in caller.requires:
                continue
            if self.always_held(caller, lock, visiting):
                continue
            result = False
            break
        if fn.qualname not in _visiting:
            self._always_memo[key] = result
        return result

    # -- lock-order graph ---------------------------------------------------

    def lock_edges(self) -> dict[tuple[str, str], "LockEdge"]:
        """Directed acquisition edges ``A -> B`` with one witness each.

        An edge means *somewhere* lock B is acquired while A can be
        held — lexically, via a ``requires`` annotation, or via a call
        path (``any_held``).  Self-edges appear only for non-reentrant
        same-lock re-acquisition (RLock re-entry is legal)."""
        edges: dict[tuple[str, str], LockEdge] = {}
        for acq in self.acquisitions:
            prior: dict[str, str] = {}
            for lock in acq.held_before:
                prior[lock] = (
                    f"{acq.func.qualname} ({acq.func.where(acq.node)})"
                )
            for lock in acq.func.requires:
                prior.setdefault(
                    lock, f"requires= on {acq.func.qualname}"
                )
            for lock, witness in acq.func.any_held.items():
                prior.setdefault(lock, witness)
            for lock, witness in prior.items():
                if lock == acq.lock and acq.rlock:
                    continue  # reentrant re-entry of the same RLock
                edges.setdefault(
                    (lock, acq.lock),
                    LockEdge(
                        witness=(
                            f"{acq.func.qualname} acquires {acq.lock} "
                            f"while {lock} is held "
                            f"({acq.func.where(acq.node)}; {witness})"
                        ),
                        acq=acq,
                    ),
                )
        return edges

    def lock_order(
        self, edges: Iterable[tuple[str, str]] | None = None
    ) -> list[str] | None:
        """Deterministic total order over all named locks, or None if
        the acquisition graph has a cycle.

        Kahn's algorithm with an alphabetical tie-break: constrained
        locks come out in dependency order, unconstrained locks slot in
        alphabetically — the result is stable across runs, which keeps
        the committed ``lock_order.json`` diff-free."""
        if edges is None:
            edges = self.lock_edges().keys()
        nodes = set(self.locks)
        succ: dict[str, set[str]] = {n: set() for n in nodes}
        indeg: dict[str, int] = {n: 0 for n in nodes}
        for a, b in edges:
            nodes.update((a, b))
            succ.setdefault(a, set())
            succ.setdefault(b, set())
            indeg.setdefault(a, 0)
            indeg.setdefault(b, 0)
            if b not in succ[a]:
                succ[a].add(b)
                indeg[b] += 1
        order: list[str] = []
        ready = sorted(n for n in nodes if indeg[n] == 0)
        while ready:
            node = ready.pop(0)
            order.append(node)
            inserted = []
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    inserted.append(nxt)
            if inserted:
                ready = sorted(ready + inserted)
        return order if len(order) == len(nodes) else None

    def find_cycle(
        self, edges: Iterable[tuple[str, str]]
    ) -> list[str] | None:
        """One lock cycle as a node list ``[a, b, ..., a]``, if any."""
        succ: dict[str, list[str]] = {}
        for a, b in edges:
            succ.setdefault(a, []).append(b)
        state: dict[str, int] = {}
        stack: list[str] = []

        def visit(node: str) -> list[str] | None:
            state[node] = 1
            stack.append(node)
            for nxt in sorted(succ.get(node, [])):
                if state.get(nxt, 0) == 1:
                    return stack[stack.index(nxt):] + [nxt]
                if state.get(nxt, 0) == 0:
                    found = visit(nxt)
                    if found is not None:
                        return found
            stack.pop()
            state[node] = 2
            return None

        for start in sorted(succ):
            if state.get(start, 0) == 0:
                found = visit(start)
                if found is not None:
                    return found
        return None


def _param_annotations(
    mod: _Module,
    index: ProjectIndex,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """Parameter name -> annotated type name (raw, unresolved)."""
    out: dict[str, str] = {}
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        name = _annotation_name(arg.annotation)
        if name is not None:
            out[arg.arg] = name
    return out


class _FunctionScanner:
    """Phase-one walk of one function body: acquisitions, calls,
    blocking primitives, guarded-attribute mutations, thread seeds."""

    def __init__(
        self,
        index: ProjectIndex,
        fn: FunctionInfo,
        inherited_locks: dict[str, str] | None = None,
        inherited_types: dict[str, TypeRef] | None = None,
    ) -> None:
        self.index = index
        self.fn = fn
        self.mod = index.modules[fn.module]
        self.local_locks: dict[str, str] = dict(inherited_locks or {})
        self.local_types: dict[str, TypeRef] = dict(inherited_types or {})
        for pname, raw in _param_annotations(
            self.mod, index, fn.node
        ).items():
            resolved = index.resolve_type_name(self.mod, raw)
            if resolved is not None:
                self.local_types[pname] = resolved
        if fn.cls is not None:
            self.local_types.setdefault("self", fn.cls)

    def scan(self) -> None:
        for stmt in self.fn.node.body:
            self._stmt(stmt, ())

    # -- statement walk with a lexical held-locks stack --------------------

    def _stmt(self, node: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._nested_function(node)
            return
        if isinstance(node, ast.ClassDef):
            return  # nested classes: out of scope
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                lock = self._lock_of(item.context_expr)
                self._expr(item.context_expr, inner)
                if lock is not None:
                    decl = self.index.locks.get(lock)
                    self.index.acquisitions.append(Acquisition(
                        func=self.fn, lock=lock, node=item.context_expr,
                        held_before=inner,
                        rlock=decl.rlock if decl is not None else False,
                    ))
                    inner = inner + (lock,)
            for stmt in node.body:
                self._stmt(stmt, inner)
            return
        if isinstance(node, ast.Assign):
            self._expr(node.value, held)
            for target in node.targets:
                self._target(target, node, held, how="assigned")
            if len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                self._bind_local(node.targets[0].id, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expr(node.value, held)
                if isinstance(node.target, ast.Name):
                    self._bind_local(node.target.id, node.value)
            self._target(node.target, node, held, how="assigned")
            return
        if isinstance(node, ast.AugAssign):
            self._expr(node.value, held)
            self._target(node.target, node, held, how="augmented")
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target(target, node, held, how="deleted")
            return
        # generic statement: visit child statements with the same held
        # set and child expressions for calls.
        for fname, value in ast.iter_fields(node):
            if isinstance(value, ast.expr):
                self._expr(value, held)
            elif isinstance(value, list):
                for child in value:
                    if isinstance(child, ast.stmt):
                        self._stmt(child, held)
                    elif isinstance(child, ast.expr):
                        self._expr(child, held)
                    elif isinstance(child, ast.excepthandler):
                        for sub in child.body:
                            self._stmt(sub, held)

    def _nested_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        nested = self.index._register_function(
            self.mod, self.fn.cls, node,
            parent=self.fn.qualname.rpartition(".")[2],
        )
        _FunctionScanner(
            self.index, nested,
            inherited_locks=self.local_locks,
            inherited_types=self.local_types,
        ).scan()

    def _bind_local(self, name: str, value: ast.expr) -> None:
        lock = self.index._lock_ctor(self.mod, value)
        if lock is not None:
            rlock, literal = lock
            canonical = literal or f"{self.mod.basename}.{name}"
            self.local_locks[name] = canonical
            self.index.locks.setdefault(canonical, LockDecl(
                name=canonical, ctx=self.fn.ctx, lineno=value.lineno,
                rlock=rlock, explicit=literal,
            ))
            return
        if isinstance(value, ast.Call):
            dotted = self.index._foreign_dotted(self.mod, value.func)
            if dotted is not None:
                resolved = self.index.resolve_type_name(self.mod, dotted)
                if resolved is not None:
                    self.local_types[name] = resolved

    # -- expression walk ---------------------------------------------------

    def _expr(self, node: ast.expr, held: tuple[str, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call(sub, held)
            elif isinstance(sub, (ast.Lambda,)):
                continue

    def _call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        dotted = self.index._foreign_dotted(self.mod, node.func) or ""
        if dotted.rpartition(".")[2] == "Thread" and (
            dotted.startswith("threading.") or dotted == "Thread"
        ):
            self._thread_seed(node)
        callee = self._resolve_call(node)
        if callee is not None:
            self.index.call_sites.append(CallSite(
                caller=self.fn, callee=callee, node=node, held=held,
            ))
        reason = self._blocking_reason(node, dotted, callee)
        if reason is not None:
            self.index.blocking_calls.append(BlockingCall(
                func=self.fn, node=node, what=reason, held=held,
            ))
        self._mutation_call(node, held)

    def _thread_seed(self, node: ast.Call) -> None:
        target: FunctionInfo | None = None
        name: str | None = None
        for kw in node.keywords:
            if kw.arg == "target":
                target = self._resolve_func_expr(kw.value)
            elif kw.arg == "name":
                if isinstance(kw.value, ast.Constant) and \
                        isinstance(kw.value.value, str):
                    name = kw.value.value
                elif isinstance(kw.value, ast.JoinedStr):
                    parts = [v.value for v in kw.value.values
                             if isinstance(v, ast.Constant)
                             and isinstance(v.value, str)]
                    name = "".join(parts) + "*" if parts else None
        if target is not None:
            self.index.thread_seeds.append(ThreadSeed(
                target=target,
                thread_name=name or target.name,
                node=node,
            ))

    def _resolve_func_expr(self, node: ast.expr) -> FunctionInfo | None:
        if isinstance(node, ast.Name):
            # local nested function, then module-level function
            for fn in self.index.functions.values():
                if fn.module == self.mod.key and fn.name == node.id:
                    return fn
            target = self.mod.imports.get(node.id)
            if target is not None:
                return self._project_function(target)
            return None
        if isinstance(node, ast.Attribute):
            receiver = self._type_of(node.value)
            if isinstance(receiver, ClassInfo):
                return receiver.methods.get(node.attr)
        return None

    def _project_function(self, dotted: str) -> FunctionInfo | None:
        module_path, _, leaf = dotted.rpartition(".")
        mod = self.index.module_for(module_path) if module_path else None
        if mod is not None:
            return mod.functions.get(leaf)
        return None

    def _resolve_call(self, node: ast.Call) -> FunctionInfo | None:
        func = node.func
        if isinstance(func, ast.Name):
            local = self.mod.functions.get(func.id)
            if local is not None:
                return local
            target = self.mod.imports.get(func.id)
            if target is not None:
                return self._project_function(target)
            return None
        if isinstance(func, ast.Attribute):
            receiver = self._type_of(func.value)
            if isinstance(receiver, ClassInfo):
                return receiver.methods.get(func.attr)
            if receiver is None:
                base = dotted_name(func.value)
                if base is not None:
                    target = self.mod.imports.get(base.partition(".")[0])
                    if target is not None:
                        resolved = self._project_function(
                            self.index._foreign_dotted(self.mod, func) or ""
                        )
                        if resolved is not None:
                            return resolved
                return self.index.unique_method(func.attr)
        return None

    def _type_of(self, node: ast.expr) -> TypeRef | None:
        if isinstance(node, ast.Name):
            return self.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._type_of(node.value)
            if isinstance(base, ClassInfo):
                raw = base.attr_types.get(node.attr)
                if raw is None:
                    return None
                if raw in self.index.classes:
                    return self.index.classes[raw]
                resolved = self.index.resolve_type_name(
                    self.index.modules[base.module], raw
                )
                return resolved
        if isinstance(node, ast.Call):
            dotted = self.index._foreign_dotted(self.mod, node.func)
            if dotted is not None:
                return self.index.resolve_type_name(self.mod, dotted)
        return None

    def _lock_of(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.local_locks:
                return self.local_locks[node.id]
            decl = self.mod.locks.get(node.id)
            return decl.name if decl is not None else None
        if isinstance(node, ast.Attribute):
            receiver = self._type_of(node.value)
            if isinstance(receiver, ClassInfo):
                decl = receiver.locks.get(node.attr)
                if decl is not None:
                    return decl.name
        return None

    # -- R13 blocking primitives -------------------------------------------

    _SOCKET_METHODS = frozenset({"sendall", "recv", "accept", "connect"})

    def _blocking_reason(
        self,
        node: ast.Call,
        dotted: str,
        callee: FunctionInfo | None,
    ) -> str | None:
        if callee is not None:
            # project call: blocking only if it is an alignment kernel
            # entry point (DP cost scales with sequence length); other
            # project calls are covered transitively by any_held.  Calls
            # *between* kernels (align-internal plumbing) are not
            # re-reported — the actionable site is the boundary call
            # into the kernel, not its internals.
            if ".align." in f".{self.fn.module}.":
                return None
            if ".align." in f".{callee.module}." and \
                    not callee.name.startswith("_"):
                return f"alignment kernel {callee.name}()"
            return None
        if dotted in ("os.fsync", "time.sleep"):
            return f"{dotted}()"
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            receiver = self._type_of(node.func.value)
            if isinstance(receiver, str):
                return self._typed_blocking(receiver, method, node)
            if receiver is None and method in self._SOCKET_METHODS:
                return f"socket .{method}()"
        return None

    @staticmethod
    def _typed_blocking(
        receiver: str, method: str, node: ast.Call
    ) -> str | None:
        kwargs = {kw.arg for kw in node.keywords if kw.arg}
        has_timeout = "timeout" in kwargs
        if receiver.endswith("queue.Queue") or receiver == "queue.Queue":
            if method == "join":
                return "queue.Queue.join()"
            if method == "put" and not has_timeout and \
                    "block" not in kwargs and len(node.args) < 2:
                return "queue.Queue.put() without timeout"
            if method == "get" and not has_timeout and \
                    "block" not in kwargs and not node.args:
                return "queue.Queue.get() without timeout"
            return None
        if receiver in ("threading.Event", "threading.Condition") and \
                method == "wait" and not has_timeout and not node.args:
            return f"{receiver}.wait() without timeout"
        if receiver == "threading.Thread" and method == "join" and \
                not has_timeout and not node.args:
            return "Thread.join() without timeout"
        return None

    # -- R12 guarded mutations ---------------------------------------------

    def _target(
        self,
        target: ast.expr,
        stmt: ast.stmt,
        held: tuple[str, ...],
        *,
        how: str,
    ) -> None:
        attr_node = target
        if isinstance(attr_node, ast.Subscript):
            attr_node = attr_node.value
        if not isinstance(attr_node, ast.Attribute):
            return
        owner = self._type_of(attr_node.value)
        if not isinstance(owner, ClassInfo):
            return
        if attr_node.attr in owner.guarded:
            self.index.mutations.append(Mutation(
                func=self.fn, owner=owner, attr=attr_node.attr,
                node=stmt, held=held, how=how,
            ))

    def _mutation_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)):
            return
        owner = self._type_of(func.value.value)
        if not isinstance(owner, ClassInfo):
            return
        if func.value.attr in owner.guarded:
            self.index.mutations.append(Mutation(
                func=self.fn, owner=owner, attr=func.value.attr,
                node=node, held=held, how=f".{func.attr}(...)",
            ))
