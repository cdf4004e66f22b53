"""Rule-level tests: a seeded violation fires its rule, an intentional
pattern stays clean, and an inline pragma suppresses exactly what it
names on exactly its lines.
"""

import textwrap

import pytest

from repro.lint import lint_file

from .fixture_sources import rules_of


@pytest.fixture()
def lint_source(tmp_path):
    """Write a module and lint it, returning findings."""

    def _lint(source: str, name: str = "mod.py"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_file(str(path))

    return _lint


class TestShuffleFree:
    # SHF001 is no longer a path allowlist: it fires on anything the
    # call graph proves reachable from a paper-pipeline entry point
    # (frontends + shuffle-free plan stages), wherever it lives.

    def test_wide_api_reachable_from_entry(self, lint_source):
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    return rdd.reduce_by_key(lambda a, b: a + b)
            """,
            name="anywhere/stagelike.py",
        )
        assert any(f.rule == "SHF001" and "reduce_by_key" in f.message
                   for f in findings)

    def test_shuffle_import_in_entry_module(self, lint_source):
        findings = lint_source(
            """
            from repro.engine.shuffle import ShuffleManager

            class SparkDBSCAN:
                def fit(self, points):
                    return points
            """,
            name="anywhere/frontend.py",
        )
        assert "SHF001" in rules_of(findings)

    def test_wide_api_unreachable_is_fine(self, lint_source):
        # No entry point reaches this function: outside the contract.
        findings = lint_source(
            """
            def wordcount(rdd):
                return rdd.reduce_by_key(lambda a, b: a + b).collect()
            """,
            name="analysis/wordcount.py",
        )
        assert "SHF001" not in rules_of(findings)


class TestPragma:
    def test_same_line_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    return rdd.reduce_by_key(min)  # lint: allow[SHF001]
            """
        )
        assert findings == []

    def test_line_above_pragma_suppresses(self, lint_source):
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    # lint: allow[SHF001] seeded shuffle, test-only
                    return rdd.reduce_by_key(min)
            """
        )
        assert findings == []

    def test_module_level_statement_span(self, lint_source):
        # A multi-line module-level statement may carry the pragma on
        # any of its lines — here the finding is on the import's first
        # line, the pragma on its closing one.
        findings = lint_source(
            """
            from repro.engine.shuffle import (
                ShuffleManager,
            )  # lint: allow[SHF001] referenced by offline tooling only

            class SparkDBSCAN:
                def fit(self, points):
                    return points
            """,
            name="front.py",
        )
        assert "SHF001" not in rules_of(findings)

    def test_pragma_inside_class_body_does_not_leak(self, lint_source):
        # Compound statements are not pragma spans: an allow buried in
        # a class must not suppress findings elsewhere in the class.
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    x = 1  # lint: allow[SHF001] unrelated line
                    y = x + 1
                    return rdd.reduce_by_key(min)
            """,
            name="stage.py",
        )
        assert "SHF001" in rules_of(findings)

    def test_pragma_is_rule_specific(self, lint_source):
        findings = lint_source(
            """
            class LocalExpand:
                def run(self, rdd):
                    return rdd.reduce_by_key(min)  # lint: allow[SCL001]
            """
        )
        assert "SHF001" in rules_of(findings)


class TestSelfScan:
    def test_repo_src_is_clean(self, src_report):
        """The shipped code must satisfy its own analyzer."""
        assert src_report.findings == [], "\n" + src_report.render_text()
        assert src_report.files_scanned > 50

    def test_obs_telemetry_modules_scan_clean(self):
        """The telemetry modules scan clean on their own, with no pragma
        and no exclusion."""
        from repro.lint import run_lint

        report = run_lint(["src/repro/obs"])
        assert report.findings == [], "\n" + report.render_text()
