"""Driving the linter: file discovery, parsing, pragmas, reports.

`repro lint [paths]` funnels through `run_lint`, which parses every
``.py`` file, stitches the per-module analyses into one whole-program
`repro.lint.callgraph.Project`, runs every checker of the rule table
(`repro.lint.rules.RULE_TABLE`) once, and drops the findings covered by
an inline allow pragma.  What is left fails the run: the pragma is the
only exemption there is.

Allowlist pragma — on the finding's line or the line directly above::

    grid = CellGrid(points, eps)  # lint: allow[SCL001] central binning

For *module-level* statements the pragma may sit on any line of the
statement (or directly above it), so multi-line module-level constructs
— a parenthesized RDD chain, a long import list — can carry the pragma
on their trailing line::

    EDGES = (sc.parallelize(pairs)
             .reduce_by_key(min))  # lint: allow[SHF001] offline tooling

Multiple rules: ``# lint: allow[SCL001,SCL002]``.  Whole-rule
suppression is deliberately not offered, and a pragma that suppresses
nothing is itself an error (tests/lint/test_findings_golden.py).
"""

from __future__ import annotations

import ast
import os
import re

from .callgraph import Project, module_name_for
from .closures import ModuleAnalysis
from .dataflow import FixpointDiverged
from .findings import Finding, LintReport
from .rules import run_rules

_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9_,\s]+)\]")


class LintError(ValueError):
    """The input cannot be analysed (missing file, unreadable, bad
    syntax, or a function whose dataflow fixpoint diverged)."""


def discover_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d
                    for d in dirs
                    if d not in ("__pycache__",) and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise LintError(f"no such file or directory: {path!r}")
    return out


def build_project(files: list[str]) -> Project:
    """Parse every file and assemble the whole-program project."""
    units: list[tuple[str, ModuleAnalysis]] = []
    taken: set[str] = set()
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            raise LintError(f"cannot read {path!r}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(
                f"syntax error in {path!r}: {exc.msg} (line {exc.lineno})"
            ) from exc
        norm = path.replace(os.sep, "/")
        name = module_name_for(path)
        # Same-named modules from disjoint scan roots (bare fixture
        # files, conftest.py) must not shadow each other in the project.
        n = 0
        while name in taken:
            n += 1
            name = f"{module_name_for(path)}~{n}"
        taken.add(name)
        units.append((name, ModuleAnalysis(norm, source, tree)))
    return Project(units)


# Statement kinds whose whole span may carry a pragma.  Compound
# statements (class/def/if/for/...) are excluded on purpose: a pragma
# buried in a class body must not suppress findings across the class.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr,
    ast.Import, ast.ImportFrom, ast.Assert, ast.Delete,
)


def pragma_lines(analysis: ModuleAnalysis, line: int) -> set[int]:
    """Lines whose pragma covers a finding on 1-based ``line``: the line
    itself, the line above, and — when the line falls inside a simple
    module-level statement — any line of that statement (or the line
    above it)."""
    lines = {line, line - 1}
    for stmt in analysis.tree.body:
        end = getattr(stmt, "end_lineno", None) or stmt.lineno
        if isinstance(stmt, _SIMPLE_STMTS) and stmt.lineno <= line <= end:
            lines.update(range(stmt.lineno - 1, end + 1))
            break
    return lines


def pragma_rules(text: str) -> set[str]:
    """Rule ids allow-listed by the pragma in ``text`` (a source line or
    a comment token), if any."""
    m = _PRAGMA_RE.search(text)
    return {r.strip() for r in m.group(1).split(",")} if m else set()


def _collect_findings(project: Project) -> list[Finding]:
    """Every checker's findings, pragma-filtered, in (path, line) order."""
    by_path = {a.path: a for a in project.modules.values()}
    try:
        findings = run_rules(project)
    except FixpointDiverged as exc:
        raise LintError(str(exc)) from None
    kept: list[Finding] = []
    lines_of: dict[str, list[str]] = {}
    for f in findings:
        analysis = by_path[f.path]
        source = lines_of.setdefault(f.path, analysis.source.splitlines())
        allowed = set().union(*(
            pragma_rules(source[n - 1])
            for n in pragma_lines(analysis, f.line) if 1 <= n <= len(source)
        ))
        if f.rule not in allowed:
            kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def lint_file(path: str) -> list[Finding]:
    """Lint one file as a single-module project; pragma-allowed
    findings are dropped."""
    if not os.path.isfile(path):
        raise LintError(f"no such file or directory: {path!r}")
    return _collect_findings(build_project([path]))


def run_lint(paths: list[str], collect_stats: bool = False) -> LintReport:
    """Lint all paths; any finding left after the pragmas is a failure."""
    files = discover_files(paths)
    project = build_project(files)
    report = LintReport(
        findings=_collect_findings(project), files_scanned=len(files)
    )
    if collect_stats:
        report.stats = {
            "rules": report.rule_counts,
            "modules": len(project.modules),
            "cfg": project.flow.cfg_stats(),
            **project.flow.stats,
        }
    return report
