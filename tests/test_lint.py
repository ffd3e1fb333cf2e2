"""Tests for ``repro lint``: the rule fixtures, the engine framework,
the reporters, and the CLI exit-code contract.

Layout of the fixture pairs is documented in
``tests/lint_fixtures/README.md``; every ``*_bad.py`` must trip the
rule named in its filename and every ``*_good.py`` must be clean under
the *full* default rule set.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    LINT_SCHEMA,
    LintEngine,
    default_rules,
    describe_rules,
    json_report,
    sarif_report,
    text_report,
)
from repro.analysis.framework import Rule
from repro.analysis.reporters import SARIF_VERSION
from repro.util.lockwatch import ORDER_SCHEMA
from repro.cli import main
from repro.obs import registry

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(repro.__file__).resolve().parents[2]

#: (rule name, fixture stem relative to the good/bad directory).
RULE_FIXTURES = [
    ("R1", "r1"),
    ("R2", "r2"),
    ("R3", "pace/r3"),
    ("R4", "r4"),
    ("R5", "r5"),
    ("R6", "r6"),
    ("R7", "obs/r7"),
    ("R9", "runtime/r9"),
    ("R10", "serve/r10"),
    ("R11", "serve/r11"),
    ("R12", "serve/r12"),
    ("R13", "serve/r13"),
]


def run_lint(paths, root, **engine_kwargs):
    return LintEngine(**engine_kwargs).run(paths, root=root)


def lint_source(tmp_path, source, name="sample.py", **engine_kwargs):
    """Lint a single inline source string in a scratch directory."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([path], root=tmp_path, **engine_kwargs)


class TestRuleFixtures:
    @pytest.mark.parametrize("rule,stem", RULE_FIXTURES)
    def test_bad_fixture_trips_its_rule(self, rule, stem):
        path = FIXTURES / "bad" / f"{stem}_bad.py"
        result = run_lint([path], root=FIXTURES / "bad")
        assert result.errors == []
        fired = [v for v in result.violations if v.rule == rule]
        assert fired, f"{path.name} produced no {rule} violations"

    @pytest.mark.parametrize("rule,stem", RULE_FIXTURES)
    def test_good_fixture_is_clean(self, rule, stem):
        path = FIXTURES / "good" / f"{stem}_good.py"
        result = run_lint([path], root=FIXTURES / "good")
        assert result.errors == []
        assert result.violations == [], [v.formatted() for v in result.violations]

    def test_bad_tree_counts_every_rule(self):
        """All twelve rules fire somewhere in the bad/ tree."""
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        assert set(result.counts_by_rule()) == {name for name, _ in RULE_FIXTURES}

    def test_r5_flags_each_bad_target_shape(self):
        result = run_lint(
            [FIXTURES / "bad" / "r5_bad.py"], root=FIXTURES / "bad"
        )
        messages = " ".join(v.message for v in result.violations if v.rule == "R5")
        assert "lambda" in messages
        assert "nested function" in messages
        assert "bound/attribute" in messages
        assert "module globals" in messages


class TestConcurrencyRules:
    """Whole-project behaviour of R11–R13 beyond the fixture pairs."""

    def test_cross_file_inversion_needs_the_whole_tree(self):
        """The r11_bad/r11_order_bad pair inverts lock order across two
        modules: the sibling is clean on its own, and the cycle only
        exists in the project view."""
        sibling = FIXTURES / "bad" / "serve" / "r11_order_bad.py"
        alone = run_lint([sibling], root=FIXTURES / "bad")
        assert alone.violations == [], \
            [v.formatted() for v in alone.violations]
        both = run_lint(
            [sibling, FIXTURES / "bad" / "serve" / "r11_bad.py"],
            root=FIXTURES / "bad",
        )
        cycles = [v for v in both.violations if "lock-order cycle" in v.message]
        assert len(cycles) == 1
        assert "r11_bad._state_lock" in cycles[0].message
        assert "r11_order_bad._flush_lock" in cycles[0].message

    def test_r11_reports_raw_lock_and_name_mismatch(self):
        result = run_lint(
            [FIXTURES / "bad" / "serve" / "r11_bad.py"],
            root=FIXTURES / "bad",
        )
        messages = " ".join(
            v.message for v in result.violations if v.rule == "R11"
        )
        assert "invisible to the lock-order watchdog" in messages
        assert "does not match the canonical name" in messages

    def test_lock_order_artifact_on_clean_tree(self):
        result = run_lint([FIXTURES / "good"], root=FIXTURES / "good")
        order = result.artifacts["lock_order"]
        assert order["schema"] == ORDER_SCHEMA
        assert "Coordinator._head_lock" in order["locks"]
        assert ["Coordinator._head_lock", "Coordinator._tail_lock"] \
            in order["edges"]
        # every edge endpoint is ranked, and ranks respect the edges
        rank = {name: i for i, name in enumerate(order["locks"])}
        for a, b in order["edges"]:
            assert rank[a] < rank[b]
        assert set(order["threads"]) == set(order["locks"])

    def test_no_artifact_when_bad_tree_has_a_cycle(self):
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        assert "lock_order" not in result.artifacts

    def test_r12_waives_thread_init_paths(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            from repro.util.lockwatch import named_lock

            class Box:
                def __init__(self):
                    self._lock = named_lock("Box._lock")
                    self.items = []  # guarded by _lock

                def stuff(self, item):
                    self.items.append(item)

            def build():  # repro-lint: thread=init
                box = Box()
                box.items.append(0)
                return box
            """,
            name="serve/box.py",
        )
        flagged = [v for v in result.violations if v.rule == "R12"]
        assert len(flagged) == 1  # stuff() only; build() is exempt
        assert flagged[0].line == 9


class TestFramework:
    def test_line_suppression_silences_one_line(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def f(x=None, y=None):
                x = x or {}  # repro-lint: disable=R1
                y = y or {}
                return x, y
            """,
        )
        assert [v.line for v in result.violations] == [3]

    def test_file_suppression_silences_whole_file(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro-lint: disable-file=R1
            def f(x=None, y=None):
                x = x or {}
                y = y or {}
                return x, y
            """,
        )
        assert result.violations == []

    def test_disable_all_covers_every_rule(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def f(x=[]):  # repro-lint: disable=all
                return x
            """,
        )
        assert result.violations == []

    def test_select_and_ignore_filter_rules(self, tmp_path):
        source = """\
            import time

            def f(x=None, acc=[]):
                x = x or {}
                return time.time(), x, acc
            """
        full = lint_source(tmp_path, source)
        assert set(full.counts_by_rule()) == {"R1", "R4", "R6"}
        only_r1 = lint_source(tmp_path, source, select=["R1"])
        assert set(only_r1.counts_by_rule()) == {"R1"}
        by_slug = lint_source(tmp_path, source, select=["clock-discipline"])
        assert set(by_slug.counts_by_rule()) == {"R4"}
        without_r4 = lint_source(tmp_path, source, ignore=["R4"])
        assert set(without_r4.counts_by_rule()) == {"R1", "R6"}

    def test_unknown_select_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintEngine(select=["R99"])

    def test_syntax_error_is_an_error_not_a_violation(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert result.violations == []
        assert len(result.errors) == 1
        assert "syntax error" in result.errors[0].message

    def test_missing_path_is_an_error(self, tmp_path):
        result = run_lint([tmp_path / "nope.py"], root=tmp_path)
        assert result.violations == []
        assert [e.message for e in result.errors] == ["no such file or directory"]

    def test_violations_sorted_by_location(self):
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        keys = [v.sort_key() for v in result.violations]
        assert keys == sorted(keys)

    def test_fail_on_thresholds(self, tmp_path):
        # No shipped rule reports below "error", so the thresholds are
        # exercised with a rule that does.
        class WarnOnPass(Rule):
            name, slug, severity = "W1", "warn-on-pass", "warning"
            description = "flags every pass statement"

            def visit_Pass(self, ctx, node):
                ctx.report(self, node, "pass statement")

        result = lint_source(
            tmp_path, "def main():\n    pass\n", rule_classes=[WarnOnPass]
        )
        assert {v.severity for v in result.violations} == {"warning"}
        assert not result.fails("error")
        assert result.fails("warning")
        assert not result.fails("never")

    def test_each_file_parsed_exactly_once(self):
        """The project index (R11–R13) reuses phase-one ASTs; adding the
        cross-file rules must not re-parse anything."""
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        assert result.parse_count == result.files_checked
        per_file = run_lint(
            [FIXTURES / "bad"], root=FIXTURES / "bad", select=["R1"]
        )
        assert per_file.parse_count == result.parse_count

    def test_index_build_does_not_call_ast_parse_again(self, monkeypatch):
        """Stronger than the counter: intercept ``ast.parse`` itself and
        prove the engine's count is the true number of parses."""
        import ast as ast_module

        from repro.analysis import framework

        calls = []
        real_parse = ast_module.parse

        def counting_parse(*args, **kwargs):
            calls.append(1)
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(framework.ast, "parse", counting_parse)
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        assert len(calls) == result.files_checked
        assert result.parse_count == len(calls)

    def test_r2_completeness_needs_registry_in_tree(self, tmp_path):
        """The 'every declared counter is bumped' half only runs when the
        linted tree contains obs/registry.py."""
        (tmp_path / "obs").mkdir()
        (tmp_path / "obs" / "registry.py").write_text(
            '"""stub registry for the completeness check."""\n',
            encoding="utf-8",
        )
        (tmp_path / "site.py").write_text(
            "from repro import obs\n"
            '\n'
            "def go():\n"
            '    obs.count("rr.pairs")\n',
            encoding="utf-8",
        )
        result = run_lint([tmp_path], root=tmp_path, select=["R2"])
        unbumped = {
            v.message.split("'")[1]
            for v in result.violations
            if "never bumped" in v.message
        }
        assert "rr.pairs" not in unbumped
        assert "ccd.pairs" in unbumped
        assert unbumped < set(registry.REGISTRY)


class TestReporters:
    def test_text_report_summarises_counts(self):
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        lines = text_report(result)
        assert len(lines) == len(result.violations) + 1
        assert "violation(s)" in lines[-1]
        assert "R1=" in lines[-1]

    def test_text_report_clean_lists_rules(self):
        result = run_lint([FIXTURES / "good"], root=FIXTURES / "good")
        lines = text_report(result)
        assert lines == [
            f"0 violations in {result.files_checked} file(s) "
            f"[rules: {', '.join(result.rules)}]"
        ]

    def test_json_report_schema(self):
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        doc = json.loads(json.dumps(json_report(result)))
        assert doc["schema"] == LINT_SCHEMA
        assert doc["files_checked"] == result.files_checked
        assert doc["counts"] == result.counts_by_rule()
        assert len(doc["violations"]) == len(result.violations)
        first = doc["violations"][0]
        assert set(first) == {"rule", "severity", "path", "line", "col", "message"}

    def test_sarif_report_shape(self):
        result = run_lint([FIXTURES / "bad"], root=FIXTURES / "bad")
        doc = json.loads(json.dumps(sarif_report(result)))
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [c.name for c in default_rules()]
        assert len(run["results"]) == len(result.violations)
        for res in run["results"]:
            assert rules[res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] in ("error", "warning", "note")
            (loc,) = res["locations"]
            phys = loc["physicalLocation"]
            uri = phys["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            assert phys["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
            assert phys["region"]["startLine"] >= 1
            assert phys["region"]["startColumn"] >= 1

    def test_sarif_clean_result_has_no_results(self):
        result = run_lint([FIXTURES / "good"], root=FIXTURES / "good")
        doc = sarif_report(result)
        assert doc["runs"][0]["results"] == []

    def test_describe_rules_covers_default_set(self):
        lines = describe_rules()
        assert len(lines) == len(default_rules())
        assert all(line.startswith("R") for line in lines)


class TestRepoIsClean:
    """The meta-test: the repo itself must pass its own linter."""

    def test_src_and_benchmarks_lint_clean(self):
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], root=REPO_ROOT
        )
        assert result.errors == []
        assert result.violations == [], [v.formatted() for v in result.violations]
        assert result.files_checked > 50

    def test_committed_lock_order_matches_derived(self):
        """`lock_order.json` at the repo root is the artifact the lint
        derives — regenerate with `repro lint --lock-order
        lock_order.json` when it drifts."""
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks"], root=REPO_ROOT
        )
        committed = json.loads(
            (REPO_ROOT / "lock_order.json").read_text(encoding="utf-8")
        )
        assert committed == result.artifacts["lock_order"]

    def test_lock_order_covers_the_concurrent_packages(self):
        result = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        order = result.artifacts["lock_order"]
        assert order["schema"] == ORDER_SCHEMA
        locks = set(order["locks"])
        assert {
            "ServeServer._lock",
            "ProcessBackend._ledger_lock",
            "Recorder._lock",
            "TelemetrySampler._write_lock",
        } <= locks


class TestLintCli:
    def test_exit_0_on_clean_tree(self, capsys):
        rc = main(["lint", str(FIXTURES / "good")])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_exit_1_on_violations(self, capsys):
        rc = main(["lint", str(FIXTURES / "bad")])
        assert rc == 1
        assert "violation(s)" in capsys.readouterr().out

    def test_exit_2_on_missing_path(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "missing")])
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    def test_exit_2_on_unknown_rule(self, capsys):
        rc = main(["lint", "--select", "R99", str(FIXTURES / "good")])
        assert rc == 2

    def test_json_output_file(self, tmp_path, capsys):
        report = tmp_path / "lint-report.json"
        rc = main(
            [
                "lint",
                "--format",
                "json",
                "--output",
                str(report),
                str(FIXTURES / "bad"),
            ]
        )
        assert rc == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["schema"] == LINT_SCHEMA
        assert doc["counts"]
        assert str(report) in capsys.readouterr().out

    def test_sarif_output_file(self, tmp_path, capsys):
        report = tmp_path / "lint.sarif"
        rc = main(
            [
                "lint",
                "--format",
                "sarif",
                "--output",
                str(report),
                str(FIXTURES / "bad"),
            ]
        )
        assert rc == 1
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["version"] == SARIF_VERSION
        assert doc["runs"][0]["results"]
        assert str(report) in capsys.readouterr().out

    def test_lock_order_option_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "lock_order.json"
        rc = main(["lint", "--lock-order", str(out), str(FIXTURES / "good")])
        assert rc == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == ORDER_SCHEMA
        assert "Coordinator._head_lock" in doc["locks"]
        assert str(out) in capsys.readouterr().out

    def test_lock_order_without_r11_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lock_order.json"
        rc = main(
            [
                "lint",
                "--select",
                "R1",
                "--lock-order",
                str(out),
                str(FIXTURES / "good"),
            ]
        )
        assert rc == 2
        assert not out.exists()
        assert "lock-order" in capsys.readouterr().err

    def test_fail_on_never_reports_but_passes(self):
        rc = main(["lint", "--fail-on", "never", str(FIXTURES / "bad")])
        assert rc == 0

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for cls in default_rules():
            assert cls.name in out
