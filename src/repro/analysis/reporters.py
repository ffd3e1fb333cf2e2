"""Text and JSON reporters for :class:`~repro.analysis.framework.LintResult`.

The text form is the human/CI-log view; the JSON form
(``repro-lint/1``) is the machine view uploaded as a CI artifact and
diffable across runs.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.framework import LintResult, Rule

#: Schema tag of the JSON report.
LINT_SCHEMA = "repro-lint/1"


def text_report(result: LintResult) -> list[str]:
    """Human-readable report lines, one per violation plus a summary."""
    lines = [v.formatted() for v in result.violations]
    counts = result.counts_by_rule()
    if counts:
        per_rule = ", ".join(f"{rule}={n}" for rule, n in counts.items())
        lines.append(
            f"{len(result.violations)} violation(s) in "
            f"{result.files_checked} file(s) [{per_rule}]"
        )
    else:
        lines.append(
            f"0 violations in {result.files_checked} file(s) "
            f"[rules: {', '.join(result.rules)}]"
        )
    return lines


def json_report(result: LintResult) -> dict:
    """The ``repro-lint/1`` JSON document for a result."""
    return {
        "schema": LINT_SCHEMA,
        "files_checked": result.files_checked,
        "rules": list(result.rules),
        "counts": result.counts_by_rule(),
        "violations": [
            {
                "rule": v.rule,
                "severity": v.severity,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in result.violations
        ],
        "errors": [
            {"path": e.path, "message": e.message} for e in result.errors
        ],
    }


#: SARIF version emitted by :func:`sarif_report`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def sarif_report(result: LintResult) -> dict:
    """SARIF 2.1.0 document for ``result``.

    The shape GitHub code scanning ingests: one run, the rule catalog
    under ``tool.driver.rules``, one result per violation with a
    repo-relative ``artifactLocation`` — findings annotate PR diffs
    when CI uploads this via ``codeql-action/upload-sarif``.
    """
    from repro.analysis.rules import default_rules

    catalog = list(default_rules())
    rule_index = {cls.name: i for i, cls in enumerate(catalog)}
    return {
        "$schema": _SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro#design-7"
                        ),
                        "rules": [
                            {
                                "id": cls.name,
                                "name": cls.slug,
                                "shortDescription": {
                                    "text": cls.description
                                },
                                "defaultConfiguration": {
                                    "level": _SARIF_LEVELS.get(
                                        cls.severity, "warning"
                                    )
                                },
                            }
                            for cls in catalog
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": v.rule,
                        **(
                            {"ruleIndex": rule_index[v.rule]}
                            if v.rule in rule_index else {}
                        ),
                        "level": _SARIF_LEVELS.get(v.severity, "warning"),
                        "message": {"text": v.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": v.path,
                                        "uriBaseId": "%SRCROOT%",
                                    },
                                    "region": {
                                        "startLine": v.line,
                                        "startColumn": max(v.col, 0) + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for v in result.violations
                ],
            }
        ],
    }


def describe_rules(rules: Mapping[str, type[Rule]] | None = None) -> list[str]:
    """``--list-rules`` output: one aligned line per registered rule."""
    from repro.analysis.rules import default_rules

    classes = list(rules.values()) if rules is not None else list(default_rules())
    return [
        f"{cls.name:<4s} {cls.slug:<18s} {cls.severity:<8s} {cls.description}"
        for cls in classes
    ]
