"""``src/`` holds only what a run can reach, and the README's verbs are
the CLI's.

An AST import walk from the entry points — the CLI (every ``repro``
verb) and ``repro/__init__.py`` (the library's public names) — must
reach every module under ``src/repro/`` through a *use*: a module that
imports it, or a package ``__init__`` that refers to the name it
imported.  A sub-package ``__init__`` that merely re-exports a module
does not hold it in the graph; that is how reference implementations no
phase runs used to stay in ``src/`` (they live in ``tests/`` now, beside
``scalar_finder.py``).  The few modules only a script outside ``src/``
reaches are listed by name, each with the script that must import it.

The module walk cannot see a dead *name* in a live module, so a second,
name-level walk covers every package: a public function, class, method
or property under ``src/repro/`` is read — as a name or an attribute —
by some module under ``src/``, ``benchmarks/`` or ``examples/``, or it
is listed in :data:`UNREFERENCED` with the reason it stays.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import repro
import repro.align
from repro.cli import build_parser

SRC = Path(repro.__file__).resolve().parents[1]
REPO_ROOT = SRC.parent

#: Entry points of the walk.
ROOTS = ("repro", "repro.cli", "repro.__main__")

#: Modules no verb and no public name reaches, and the script that does.
HELD_BY_SCRIPT = {
    "repro.sequence.orf": "examples/shotgun_reads.py",
    "repro.parallel.trace": "examples/bluegene_scaling.py",
    "repro.shingle.parallel": "benchmarks/paper/regenerate.py",
    "repro.pace.cache": "benchmarks/suite/batch.py",
}

#: Public names — functions, classes, public methods and properties —
#: that no module under ``src/``, ``benchmarks/`` or ``examples/`` refers
#: to, and why each is in ``src/`` all the same.  Anything else with no
#: reference is deleted, or is a test's reference and lives in ``tests/``.
UNREFERENCED = {
    "repro.align.matrices.identity_scheme":
        "the +1/-1 scheme a caller may pick over BLOSUM62; the engine's "
        "tests run every property under both",
    "repro.pace.cache.AlignmentCache.lookup":
        "kept whole while the suite's replay builds one; goes with "
        "ROADMAP 1(a)",
    "repro.obs.export.write_slow_trace":
        "README's documented way (a python -c line) to open the slow "
        "requests of a daemon's telemetry.jsonl in Perfetto; no verb "
        "wraps it",
    "repro.sequence.alphabet.is_valid_protein":
        "the non-raising twin of encode() that repro.sequence exports "
        "for callers screening input before they build records",
    "repro.sequence.fasta.parse_fasta_text":
        "read_fasta for text already in memory (they share _parse); the "
        "entry point of the FASTA fuzz tests",
    "repro.serve.incremental.insert_sequence":
        "plan + commit in one call, the library-level insert of "
        "repro.serve; the daemon calls the halves apart around its lock",
    "repro.suffix.wmer.WmerIndex.wmers_of":
        "the per-sequence view of the index that edges() flattens",
    "repro.util.lockwatch.AbstractLock":
        "a typing.Protocol: it only ever appears in annotations",
}

#: Method-name prefixes a framework dispatches on by name:
#: ``analysis/framework.py`` collects a rule's ``visit_<NodeType>``.
DISPATCHED_BY_NAME = ("visit_",)

MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}
TREES = {name: ast.parse(path.read_text(encoding="utf-8")) for name, path in MODULES.items()}


def is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def imports(tree: ast.AST, module: str = "") -> list[tuple[str, str, str | None]]:
    """``(bound name, source module, imported name)`` of every import
    statement, including those inside functions (the CLI imports lazily)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module if is_package(module) else module.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = f"{package}.{base}".rstrip(".")
            out += [(a.asname or a.name, base, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], a.name, None) for a in node.names]
    return out


def defining_module(base: str, name: str | None, seen: frozenset = frozenset()) -> str | None:
    """The module under ``src/repro`` that ``from base import name`` reads:
    a submodule, else the module a package ``__init__`` got ``name`` from."""
    if base not in MODULES:
        return None
    if name is None:
        return base
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if is_package(base) and (base, name) not in seen:
        for bound, source, imported in imports(TREES[base], base):
            if bound == name and source in MODULES:
                return defining_module(source, imported, seen | {(base, name)})
    return base


def uses(module: str) -> set[str]:
    tree = TREES[module]
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    reexports = is_package(module) and module != "repro"
    targets = {
        defining_module(source, imported)
        for bound, source, imported in imports(tree, module)
        if not (reexports and bound not in loaded)
    }
    return targets - {None}


def reachable() -> set[str]:
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        # Importing a module runs the __init__ of each enclosing package.
        todo.append(module.rpartition(".")[0] or module)
        todo.extend(uses(module))
    return seen


def test_every_module_is_reached_by_a_use():
    unreached = set(MODULES) - reachable()
    assert unreached == set(HELD_BY_SCRIPT), (
        "modules no entry point reaches (move the oracle to tests/, delete "
        f"the dead code, or name its script): {sorted(unreached - set(HELD_BY_SCRIPT))}; "
        f"listed but reached or gone: {sorted(set(HELD_BY_SCRIPT) - unreached)}"
    )


def test_script_held_modules_are_imported_by_their_script():
    for module, script in HELD_BY_SCRIPT.items():
        tree = ast.parse((REPO_ROOT / script).read_text(encoding="utf-8"))
        targets = {defining_module(source, imported) for _, source, imported in imports(tree)}
        assert module in targets, f"{script} no longer imports {module}"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referred_names() -> set[str]:
    """Every identifier some module of the repo — under ``src/``,
    ``benchmarks/`` or ``examples/`` — reads, as a name or an attribute.
    An import is not a read, an ``__all__`` entry is a string, and an
    annotation (never evaluated here) keeps nothing alive."""
    scripts = [path for top in ("benchmarks", "examples")
               for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    trees = [*TREES.values(),
             *(ast.parse(path.read_text(encoding="utf-8")) for path in scripts)]
    names = set()
    for tree in trees:
        skipped = {id(node) for ann in _annotations(tree) for node in ast.walk(ann)}
        names |= {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load) and id(node) not in skipped
        }
    return names


def unreferenced_public_names() -> set[str]:
    """Dotted names of the public definitions nothing refers to."""
    referred = referred_names()
    found = set()
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for name, short in [(node.name, node.name)] + [
                (f"{node.name}.{m.name}", m.name)
                for m in members if isinstance(m, ast.FunctionDef)
            ]:
                if not (short.startswith("_") or short in referred
                        or short.startswith(DISPATCHED_BY_NAME)):
                    found.add(f"{module}.{name}")
    return found


def test_every_public_name_is_referred_to_by_some_module():
    """The name-level walk, every package: a public function, class,
    method or property is read by a module of the repo, or it is listed
    with its reason, or it is an oracle and lives in ``tests/`` (as the
    one-pair aligners and the scalar shingle draw do)."""
    assert unreferenced_public_names() == set(UNREFERENCED)


def test_every_align_function_is_called_by_some_module():
    """The same walk seen from one package's ``__all__``: what
    ``repro.align`` exports and nothing calls is what the table says."""
    unreferenced = {name.rpartition(".")[2] for name in unreferenced_public_names()}
    functions = {name for name in repro.align.__all__
                 if inspect.isfunction(getattr(repro.align, name))}
    assert functions & unreferenced == {"identity_scheme"}


def test_help_names_exactly_the_verbs_readme_documents():
    usage = re.search(r"\{([a-z,-]+)\}", build_parser().format_help())
    verbs = set(usage.group(1).split(","))
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    # A documented verb is one README shows being typed: `repro VERB ...`
    # at the start of an inline code span or of a shell line.
    documented = set(re.findall(r"(?:`|^)repro ([a-z][a-z-]*)", readme, re.M))
    assert documented == verbs
