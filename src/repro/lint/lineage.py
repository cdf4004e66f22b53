"""Static RDD-lineage dataflow rules: the whole-program half of §8.

The paper's headline property — zero shuffles, driver-only merge via an
accumulator (Algorithms 3-4) — used to be enforced by a hand-maintained
path allowlist.  This module replaces that with a *proof obligation*
discharged from the program itself:

- ``SHF001`` shuffle-free — starting from the paper-pipeline entry
  points (the `SparkDBSCAN`/`SpatialSparkDBSCAN` frontends plus every
  stage class of the manifest's shuffle-free plans), close over the
  interprocedural call graph (`repro.lint.callgraph.Project`) and flag
  any wide-dependency RDD API in reachable code, and any import of the
  shuffle subsystem in a module hosting reachable code.  The engine
  package legitimately *contains* shuffle machinery (the naive baseline
  uses it) — what the proof shows is that no path from the paper
  pipeline ever reaches it, the same way a PySpark job proves nothing
  about pyspark's own internals.

Three task-dataflow rules ride on the same machinery, scanning every
function transitively reachable from a task closure (across modules,
engine substrate excluded — the engine polices itself at runtime via
``--sanitize``):

- ``ACC001`` accumulator-read-in-task — reading ``acc.value`` in task
  code races the driver-side merge; the paper's accumulator is
  write-only on executors (``add``), readable only after the action.
- ``BRD001`` broadcast-mutation-in-task — mutating ``b.value`` in task
  code diverges per executor and silently disappears on the processes
  backend; broadcasts are immutable reference data.
- ``ACT001`` action-in-task — invoking an RDD action inside a task
  closure would nest a job inside a task; the lineage handle is driver
  state and the call deadlocks or diverges under retries.

Every rule fires only on *positively identified* hazards (typed
receivers, resolved reachability); an unknown type stays silent.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from .callgraph import is_substrate
from .closures import RDD_ACTIONS, by_position
from .findings import Finding, Reporter
from .plans import shuffle_free_stage_classes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project

# Paper-pipeline frontends; the stage classes of the shuffle-free plans
# are added from the STAGE_MANIFEST at check time.
BASE_ENTRY_CLASSES = frozenset({
    "SparkDBSCAN",
    "SpatialSparkDBSCAN",
    "LocalExpand",
    "CollectPartials",
})

# RDD APIs introducing a wide dependency (a shuffle stage): exactly the
# `repro.engine.RDD` methods that build a `ShuffledRDD`.
WIDE_DEP_METHODS = frozenset({"reduce_by_key"})

# Methods that mutate their receiver in place (BRD001).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
})


def entry_classes(project: "Project") -> set[str]:
    """SHF001 entry points: frontends + shuffle-free plan stages."""
    return set(BASE_ENTRY_CLASSES) | shuffle_free_stage_classes(project)


def _each_reachable(
    project: "Project", reached: dict[str, set[ast.AST]]
) -> Iterable[tuple[str, "ast.AST", object, object]]:
    """(module, node, analysis, scope) per reachable application
    function, in a deterministic order."""
    for module in sorted(reached):
        if is_substrate(module):
            continue
        analysis = project.modules[module]
        for node in by_position(reached[module]):
            yield module, node, analysis, analysis.scope_of(node)


def _walk_body(node: ast.AST) -> Iterable[ast.AST]:
    """Every AST node lexically inside a function, the function's own
    header excluded.  Nested defs are *included*: code written inside a
    reachable function runs (or is shipped) with it, and findings are
    deduplicated by location across overlapping walks."""
    roots = [node.body] if isinstance(node, ast.Lambda) else list(
        getattr(node, "body", [])
    )
    for root in roots:
        yield from ast.walk(root)


def check_shuffle_free(project: "Project") -> list[Finding]:
    """SHF001: prove the paper pipeline shuffle-free from the graph."""
    entries = entry_classes(project)
    reached = project.reachable_from(entries)
    reporter = Reporter()

    # (a) wide-dependency APIs in entry-reachable code.
    for _module, node, analysis, scope in _each_reachable(project, reached):
        for sub in _walk_body(node):
            if not (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)):
                continue
            attr = sub.func.attr
            if attr in WIDE_DEP_METHODS:
                reporter.report(
                    "SHF001", analysis.path, sub.lineno, sub.col_offset,
                    f".{attr}() introduces a wide dependency (a shuffle "
                    "stage) and is reachable from the paper pipeline, "
                    "which is shuffle-free by construction "
                    "(Algorithms 3-4)",
                    symbol=scope.name,
                )

    # (b) shuffle-subsystem imports in any module hosting reachable
    # code or defining an entry-point class.
    hosting = (set(reached) | project.entry_modules(entries))
    for module in sorted(hosting):
        if is_substrate(module):
            continue
        analysis = project.modules[module]
        for node in ast.walk(analysis.tree):
            names: list[str] = []
            if isinstance(node, ast.ImportFrom):
                names = [
                    f"{node.module}.{alias.name}" if node.module else alias.name
                    for alias in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            dotted = next(
                (n for n in names if "shuffle" in n.split(".")), None
            )
            if dotted is not None:
                reporter.report(
                    "SHF001", analysis.path, node.lineno, node.col_offset,
                    f"import of {dotted!r} in a module hosting "
                    "paper-pipeline code: the pipeline is "
                    "shuffle-free by construction (Algorithms 3-4); "
                    "no shuffle code may enter it",
                )
    return reporter.findings


def _broadcast_value_root(
    expr: ast.AST, analysis, scope
) -> ast.Name | None:
    """The Broadcast-typed Name under a ``b.value[...]...`` chain."""
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr == "value" and isinstance(node.value, ast.Name):
                if analysis.expr_type(node.value, scope) == "Broadcast":
                    return node.value
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            return None


def check_task_dataflow(project: "Project") -> list[Finding]:
    """ACC001/BRD001/ACT001 over all task-reachable application code."""
    reporter = Reporter()
    reached = project.task_reachable_by_module()
    for _module, node, analysis, scope in _each_reachable(project, reached):

        def emit(rule: str, at: ast.AST, message: str) -> None:
            reporter.report(rule, analysis.path, at.lineno, at.col_offset,
                            message, symbol=scope.name)

        def mutation(at: ast.AST, target: ast.AST, how: str) -> None:
            root = _broadcast_value_root(target, analysis, scope)
            if root is not None:
                emit(
                    "BRD001", at,
                    f"{how} {root.id!r}.value in task code: broadcasts "
                    "are immutable reference data; executor-local writes "
                    "diverge per attempt and never reach the driver",
                )

        for sub in _walk_body(node):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "value"
                and isinstance(sub.ctx, ast.Load)
                and isinstance(sub.value, ast.Name)
                and analysis.expr_type(sub.value, scope) == "Accumulator"
            ):
                emit(
                    "ACC001", sub,
                    f"reads {sub.value.id!r}.value in task code: accumulators "
                    "are write-only on executors (add) and merged on the "
                    "driver; the value here is a partial, attempt-dependent "
                    "snapshot",
                )
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.Delete)):
                how = "deletes from" if isinstance(sub, ast.Delete) else "assigns into"
                for target in getattr(sub, "targets", None) or [sub.target]:
                    mutation(sub, target, how)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                if sub.func.attr in _MUTATOR_METHODS:
                    mutation(sub, sub.func.value, f"calls .{sub.func.attr}() on")
                if sub.func.attr in RDD_ACTIONS and analysis.receiver_is_rdd(sub, scope):
                    emit(
                        "ACT001", sub,
                        f".{sub.func.attr}() is an RDD action invoked inside "
                        "task code: it would nest a job in a task; the lineage "
                        "handle is driver state (collect on the driver, ship "
                        "data into the closure instead)",
                    )
    return reporter.findings
