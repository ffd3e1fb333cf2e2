"""AST-walking rule framework behind ``repro lint``.

The pipeline's correctness rests on contracts the test suite can only
sample: cross-mode counter identity, seeded min-wise permutations,
picklable worker tasks, ``is None`` defaulting for falsy containers.
This module is the enforcement half — a small, repo-specific static
analyser that makes violating those contracts unshippable instead of
merely improbable.

Design:

* **One parse, one walk.**  Each file is parsed once; every rule
  registers interest in node types by defining ``visit_<NodeType>``
  methods, discovered by reflection, and the engine dispatches each
  node of the single :func:`ast.walk` pass to the interested rules.
* **Per-rule severity.**  Every :class:`Violation` carries ``error`` or
  ``warning``; the CLI's ``--fail-on`` decides which level fails the
  build (default: ``error``).
* **Inline suppressions.**  ``# repro-lint: disable=R1`` (or
  ``disable=R1,R4`` / ``disable=all``) on the flagged line silences
  that line; ``# repro-lint: disable-file=R3`` anywhere in a file
  silences the rule for the whole file.  Suppressions are deliberate,
  grep-able exemptions — the policy is documented in DESIGN.md.
* **Project hooks.**  Rules keep per-run state and may emit in
  ``finish_project`` — this is how the registry completeness half of
  R2 ("every declared counter is bumped somewhere") is checked across
  the whole tree.

IO failures and syntax errors are *not* violations: they surface as
:class:`LintError` records, which the CLI reports on stderr with exit
code 2 (distinct from exit 1 = contract violations found).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

#: Severity names in ascending order of seriousness.
SEVERITY_ORDER: dict[str, int] = {"warning": 0, "error": 1}


@dataclass(frozen=True)
class Violation:
    """One contract violation at a source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def formatted(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )


@dataclass(frozen=True)
class LintError:
    """A file the linter could not analyse (missing, unreadable,
    syntactically invalid).  Maps to CLI exit code 2, never to a
    violation — a broken input must not masquerade as a clean one."""

    path: str
    message: str


_SUPPRESS_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\- ]+)")


def _parse_rule_list(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


class FileContext:
    """Everything rules may inspect about one source file."""

    def __init__(self, path: Path, relpath: str, source: str, tree: ast.Module):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.violations: list[Violation] = []
        self.line_suppressions: dict[int, set[str]] = {}
        self.file_suppressions: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_LINE.search(line)
            if match:
                self.line_suppressions[lineno] = _parse_rule_list(match.group(1))
            match = _SUPPRESS_FILE.search(line)
            if match:
                self.file_suppressions |= _parse_rule_list(match.group(1))

    @property
    def parts(self) -> tuple[str, ...]:
        """Path components of the repo-relative posix path."""
        return PurePosixPath(self.relpath).parts

    def is_suppressed(self, rule_name: str, line: int) -> bool:
        if {"all", rule_name} & self.file_suppressions:
            return True
        tags = self.line_suppressions.get(line)
        return bool(tags and {"all", rule_name} & tags)

    def report(
        self,
        rule: "Rule",
        where: ast.AST | int,
        message: str,
        *,
        severity: str | None = None,
    ) -> None:
        """Record a violation at ``where`` (an AST node or a line number)
        unless an inline suppression covers it."""
        if isinstance(where, int):
            line, col = where, 0
        else:
            line = getattr(where, "lineno", 1)
            col = getattr(where, "col_offset", 0)
        if self.is_suppressed(rule.name, line):
            return
        self.violations.append(
            Violation(
                rule=rule.name,
                severity=severity or rule.severity,
                path=self.relpath,
                line=line,
                col=col,
                message=message,
            )
        )


@dataclass
class ProjectContext:
    """Cross-file state handed to ``Rule.finish_project``.

    ``index`` is the phase-one :class:`repro.analysis.project.
    ProjectIndex`, built once per run when any active rule sets
    ``needs_index`` (the engine shares the already-parsed ASTs with it,
    so indexing never re-parses).  ``artifacts`` collects
    machine-readable side outputs a rule wants the CLI to expose —
    R11 deposits the derived ``lock_order`` document here.
    """

    root: Path
    files: list[FileContext] = field(default_factory=list)
    index: object | None = None
    artifacts: dict[str, object] = field(default_factory=dict)

    def find_file(self, suffix: str) -> FileContext | None:
        """The first linted file whose relative path ends with ``suffix``."""
        for ctx in self.files:
            if ctx.relpath.endswith(suffix):
                return ctx
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` ("R1"..), ``slug`` (a stable kebab-case
    identifier), ``severity``, and ``description``; they receive AST
    nodes through ``visit_<NodeType>`` methods and may override the
    lifecycle hooks.  A rule instance lives for one engine run, so
    instance attributes are safe cross-file accumulators.
    """

    name: str = "R0"
    slug: str = "base"
    severity: str = "error"
    description: str = ""
    #: Cross-file rules set this; the engine then builds the phase-one
    #: :class:`~repro.analysis.project.ProjectIndex` before dispatch.
    needs_index: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule inspects ``ctx`` at all (path scoping)."""
        return True

    def start_file(self, ctx: FileContext) -> None:
        """Called before the AST walk of each applicable file."""

    def finish_file(self, ctx: FileContext) -> None:
        """Called after the AST walk of each applicable file."""

    def finish_project(self, project: ProjectContext) -> None:
        """Called once after every file has been visited."""


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class LintResult:
    """Outcome of one engine run."""

    violations: list[Violation]
    errors: list[LintError]
    files_checked: int
    rules: tuple[str, ...]
    #: number of ``ast.parse`` calls the run performed — exactly one
    #: per checked file (the project index reuses the engine's trees).
    parse_count: int = 0
    #: machine-readable side outputs deposited by rules (see
    #: :attr:`ProjectContext.artifacts`), e.g. ``lock_order``.
    artifacts: dict[str, object] = field(default_factory=dict)

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return dict(sorted(out.items()))

    def fails(self, fail_on: str) -> bool:
        """Whether this result should fail the build at ``fail_on``
        ("error", "warning", or "never")."""
        if fail_on == "never":
            return False
        threshold = SEVERITY_ORDER[fail_on]
        return any(
            SEVERITY_ORDER.get(v.severity, 0) >= threshold
            for v in self.violations
        )


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Yield every ``.py`` file under ``paths`` (files or directories),
    skipping caches and hidden directories, in deterministic order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in candidate.parts
            ):
                continue
            yield candidate


class LintEngine:
    """Run a set of rules over a file tree.

    ``rule_classes`` defaults to :func:`repro.analysis.rules.
    default_rules`; ``select``/``ignore`` filter by rule name *or*
    slug.  Each :meth:`run` instantiates fresh rule objects, so an
    engine is reusable.
    """

    def __init__(
        self,
        rule_classes: Sequence[type[Rule]] | None = None,
        *,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ):
        if rule_classes is None:
            from repro.analysis.rules import default_rules

            rule_classes = default_rules()
        wanted = set(select) if select else None
        unwanted = set(ignore) if ignore else set()
        self.rule_classes = [
            cls
            for cls in rule_classes
            if (wanted is None or {cls.name, cls.slug} & wanted)
            and not ({cls.name, cls.slug} & unwanted)
        ]
        if select:
            known = {n for cls in rule_classes for n in (cls.name, cls.slug)}
            unknown = set(select) - known
            if unknown:
                raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    def run(self, paths: Sequence[str | Path], *, root: str | Path | None = None) -> LintResult:
        root = Path(root) if root is not None else Path.cwd()
        rules = [cls() for cls in self.rule_classes]
        handlers: dict[str, list[tuple[Rule, str]]] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    handlers.setdefault(attr[len("visit_"):], []).append(
                        (rule, attr)
                    )

        project = ProjectContext(root=root)
        errors: list[LintError] = []
        resolved: list[Path] = []
        for path in paths:
            path = Path(path)
            if not path.exists():
                errors.append(LintError(str(path), "no such file or directory"))
                continue
            resolved.append(path)

        # Phase 1a: parse every file exactly once.  The resulting
        # FileContexts (with their ASTs) are shared by the project
        # index and by every rule's dispatch walk — nothing below this
        # loop ever calls ast.parse again.
        parse_count = 0
        for file_path in iter_python_files(resolved):
            rel = self._relpath(file_path, root)
            try:
                source = file_path.read_text(encoding="utf-8")
            except OSError as exc:
                errors.append(LintError(rel, f"unreadable: {exc}"))
                continue
            try:
                tree = ast.parse(source, filename=rel)
                parse_count += 1
            except SyntaxError as exc:
                errors.append(
                    LintError(rel, f"syntax error at line {exc.lineno}: {exc.msg}")
                )
                continue
            project.files.append(FileContext(file_path, rel, source, tree))

        # Phase 1b: cross-file index, only when an active rule needs it.
        if any(rule.needs_index for rule in rules):
            from repro.analysis.project import ProjectIndex

            project.index = ProjectIndex.build(project.files)

        # Phase 2: per-file node dispatch, then project-level hooks.
        for ctx in project.files:
            active = [rule for rule in rules if rule.applies_to(ctx)]
            for rule in active:
                rule.start_file(ctx)
            if active:
                active_set = set(active)
                for node in ast.walk(ctx.tree):
                    for rule, attr in handlers.get(type(node).__name__, ()):
                        if rule in active_set:
                            getattr(rule, attr)(ctx, node)
            for rule in active:
                rule.finish_file(ctx)

        for rule in rules:
            rule.finish_project(project)

        violations = sorted(
            (v for ctx in project.files for v in ctx.violations),
            key=Violation.sort_key,
        )
        return LintResult(
            violations=violations,
            errors=errors,
            files_checked=len(project.files),
            rules=tuple(rule.name for rule in rules),
            parse_count=parse_count,
            artifacts=dict(project.artifacts),
        )

    @staticmethod
    def _relpath(path: Path, root: Path) -> str:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()
