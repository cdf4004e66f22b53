"""Whole-program static analysis (``repro lint``).

Machine-checks the invariants the engine's correctness story rests on
(DESIGN.md §8; §8.2 is the rule catalogue, `repro.lint.rules.RULE_TABLE`
its executable form).  Scope and call-graph rules run over the
interprocedural `Project`; the flow-sensitive ones — lifecycle
typestate (`repro.lint.typestate`) and the driver size-class proof
(`repro.lint.sizeclass`) — are domains of the one flow engine
(`repro.lint.cfg` → `repro.lint.dataflow`).  A violation is a
`Finding`, any finding fails the run, and the only exemption is an
inline ``# lint: allow[RULE]`` pragma on the offending line.

    from repro.lint import run_lint
    report = run_lint(["src"])
    assert report.clean, report.render_text()
"""

from .analyzer import (
    LintError,
    build_project,
    discover_files,
    lint_file,
    run_lint,
)
from .callgraph import Project, module_name_for
from .cfg import CFG, Block, build_cfg
from .closures import ModuleAnalysis, TaskFunction
from .dataflow import FlowContext, ForwardAnalysis, solve
from .findings import Finding, LintReport
from .rules import RULE_TABLE, rule_catalogue, run_rules
from .sarif import render_sarif, to_sarif

__all__ = [
    "Block",
    "CFG",
    "Finding",
    "FlowContext",
    "ForwardAnalysis",
    "LintError",
    "LintReport",
    "ModuleAnalysis",
    "Project",
    "RULE_TABLE",
    "TaskFunction",
    "build_cfg",
    "build_project",
    "discover_files",
    "lint_file",
    "module_name_for",
    "render_sarif",
    "rule_catalogue",
    "run_lint",
    "run_rules",
    "solve",
    "to_sarif",
]
