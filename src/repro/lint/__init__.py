"""Whole-program static analysis (``repro lint``).

Machine-checks the invariants the engine's correctness story rests on
(DESIGN.md §8): task closures must not capture driver state or
unpicklable objects, task-reachable code must be deterministic, the
paper pipeline must stay shuffle-free — *proven* from the
interprocedural call graph and a static RDD-lineage pass rather than a
path allowlist — task code must not read accumulators, mutate
broadcasts, or invoke RDD actions, and every plan's stage contract
chain must be complete and acyclic.  A flow-sensitive layer
(`repro.lint.cfg` → `repro.lint.dataflow` → `repro.lint.typestate`)
builds a per-function CFG and runs typestate over it: no use of a
stopped context (LIF001), no action on an unpersisted RDD/Broadcast
(LIF003), no persisted RDD leaked past an exit path (RES001), and no
lock/context held across an escaping exception path (RES002).  A
size-class abstract
interpretation (`repro.lint.sizeclass`) over the O(1) ⊑ O(cells) ⊑
O(partials) ⊑ O(edges) ⊑ O(points) lattice proves the driver stays
sub-O(points) outside the sanctioned stages (SCL001–SCL004), seeded
from the pure-literal ``SIZE_MANIFEST`` next to ``STAGE_MANIFEST``.
Violations are `Finding`s; a
committed baseline (`lint-baseline.json`) grandfathers known ones, and
CI fails on anything new (uploading SARIF so findings annotate diffs).

    from repro.lint import run_lint
    report = run_lint(["src"], baseline_path="lint-baseline.json")
    assert report.clean, report.render_text()
"""

from .analyzer import (
    LintError,
    build_project,
    discover_files,
    lint_file,
    run_lint,
)
from .baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    load_baseline,
    new_findings,
    write_baseline,
)
from .callgraph import Project, module_name_for
from .closures import ModuleAnalysis, TaskFunction
from .findings import Finding, LintReport
from .rules import (
    PROJECT_RULES,
    RULES,
    rule_catalogue,
    run_project_rules,
    run_rules,
)
from .cfg import CFG, Block, build_cfg
from .dataflow import BlockStates, ForwardAnalysis, solve
from .sarif import render_sarif, to_sarif
from .sizeclass import SIZECLASS_RULES, check_sizeclass, sizeclass_stats
from .typestate import TYPESTATE_RULES, check_typestate, flow_stats

__all__ = [
    "DEFAULT_BASELINE",
    "BaselineError",
    "Block",
    "BlockStates",
    "CFG",
    "Finding",
    "ForwardAnalysis",
    "TYPESTATE_RULES",
    "LintError",
    "LintReport",
    "ModuleAnalysis",
    "PROJECT_RULES",
    "Project",
    "RULES",
    "SIZECLASS_RULES",
    "TaskFunction",
    "build_cfg",
    "build_project",
    "check_sizeclass",
    "check_typestate",
    "discover_files",
    "flow_stats",
    "lint_file",
    "load_baseline",
    "module_name_for",
    "new_findings",
    "render_sarif",
    "rule_catalogue",
    "run_lint",
    "run_project_rules",
    "run_rules",
    "sizeclass_stats",
    "solve",
    "to_sarif",
    "write_baseline",
]
