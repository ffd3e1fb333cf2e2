"""Static analysis: the AST-based invariant checker behind ``repro lint``.

The framework (:mod:`repro.analysis.framework`) walks each file's AST
once and dispatches nodes to repo-specific rules
(:mod:`repro.analysis.rules`, R1–R13) that enforce the pipeline's
correctness contracts — counter-registry closure, seed and clock
discipline, picklable worker tasks, ``is None`` defaulting and lock
hygiene.  Rules R11–R13 are
cross-file: they consume the whole-project index built by
:mod:`repro.analysis.project` (symbol table, call graph, lock model,
thread map) to check lock ordering, guarded state, and blocking calls
under locks.  Reporters (:mod:`repro.analysis.reporters`) render
results as text, the ``repro-lint/1`` JSON document, or SARIF 2.1.0
for code scanning.

DESIGN.md's "Invariants & static analysis" section documents what each
rule protects, how to add a rule, and the suppression policy.
"""

from repro.analysis.framework import (
    FileContext,
    LintEngine,
    LintError,
    LintResult,
    ProjectContext,
    Rule,
    Violation,
    dotted_name,
    iter_python_files,
)
from repro.analysis.project import ProjectIndex
from repro.analysis.reporters import (
    LINT_SCHEMA,
    describe_rules,
    json_report,
    sarif_report,
    text_report,
)
from repro.analysis.rules import default_rules

__all__ = [
    "FileContext",
    "LINT_SCHEMA",
    "ProjectIndex",
    "LintEngine",
    "LintError",
    "LintResult",
    "ProjectContext",
    "Rule",
    "Violation",
    "default_rules",
    "describe_rules",
    "dotted_name",
    "iter_python_files",
    "json_report",
    "sarif_report",
    "text_report",
]
