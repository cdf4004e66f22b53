"""The shuffle-free proof (``SHF001``): the whole-program half of §8.

The paper's headline property — zero shuffles, driver-only merge via an
accumulator (Algorithms 3-4) — used to be enforced by a hand-maintained
path allowlist.  This module replaces that with a *proof obligation*
discharged from the program itself: starting from the paper-pipeline
entry points (the `SparkDBSCAN`/`SpatialSparkDBSCAN` frontends plus
every stage class of the manifest's shuffle-free plans), close over the
interprocedural call graph (`repro.lint.callgraph.Project`) and flag
any wide-dependency RDD API in reachable code, and any import of the
shuffle subsystem in a module hosting reachable code.  The engine
package legitimately *contains* shuffle machinery (the naive baseline
uses it) — what the proof shows is that no path from the paper pipeline
ever reaches it, the same way a PySpark job proves nothing about
pyspark's own internals.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from .callgraph import is_substrate
from .closures import by_position
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


def entry_classes(project: "Project") -> set[str]:
    """SHF001 entry points: frontends + shuffle-free plan stages."""
    return set(BASE_ENTRY_CLASSES) | shuffle_free_stage_classes(project)


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

    # (a) wide-dependency APIs in entry-reachable application code.
    for module in sorted(m for m in reached if not is_substrate(m)):
        analysis = project.modules[module]
        for node in by_position(reached[module]):
            for sub in _walk_body(node):
                if not (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)):
                    continue
                attr = sub.func.attr
                if attr in WIDE_DEP_METHODS:
                    reporter.report(
                        "SHF001", analysis.path, sub.lineno, sub.col_offset,
                        f".{attr}() introduces a wide dependency (a shuffle "
                        "stage) and is reachable from the paper pipeline, "
                        "which is shuffle-free by construction "
                        "(Algorithms 3-4)",
                        symbol=analysis.scope_of(node).name,
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
