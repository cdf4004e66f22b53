"""Whole-program layer: modules, imports, and the interprocedural call graph.

`Project` stitches the per-file `ModuleAnalysis` objects into one
program: it names modules (package-aware, so relative imports resolve),
absolutizes every import binding, resolves calls *across* modules —
through ``from``-imports, module aliases, ``self`` dispatch,
constructor-typed receivers, and package ``__init__`` re-exports — and
exposes the two reachability queries the rules are built on:

- **task reachability** (`task_reachable_by_module`): every function
  transitively callable from a task closure, across module boundaries,
  so CAP001/PCK001/DET001 fire through helper modules;
- **entry reachability** (`reachable_from`): every function transitively
  callable from a set of entry-point classes — the raw material of the
  SHF001 lineage proof (`repro.lint.lineage`).

The engine package is the *substrate boundary*: modules with an
``engine`` path component implement the RDD machinery itself (including
the shuffle subsystem the naive baseline uses), so reachability never
crosses from application code into them.  Calls on engine-API-typed
receivers (`RDD`, `SparkContext`, `Broadcast`, `Accumulator`) are
*lineage operations* interpreted by the dataflow rules, not call edges.
"""

from __future__ import annotations

import ast
import os

from .closures import ModuleAnalysis, Scope, TaskFunction, _calls_in, dotted_name
from .dataflow import FlowContext

# Receiver type tags that mark the application/engine API boundary:
# method calls on these are lineage operations, never call edges.
ENGINE_API_TAGS = frozenset({
    "RDD", "SparkContext", "Broadcast", "Accumulator",
    "BlockManager", "ShuffleManager",
    "Lock", "File", "Thread", "Socket",
})


def module_name_for(path: str) -> str:
    """Dotted module name for a file, walking up while ``__init__.py``
    marks the parent as a package (``src/repro/dbscan/core.py`` →
    ``repro.dbscan.core``; a bare fixture file → its stem)."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    d = os.path.dirname(path)
    while d and os.path.isfile(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        d = os.path.dirname(d)
    name = ".".join(reversed(parts))
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


def is_substrate(module: str) -> bool:
    """True for engine-substrate modules (reachability never enters)."""
    return "engine" in module.split(".")


class Project:
    """All scanned modules plus the interprocedural call graph."""

    def __init__(self, units: list[tuple[str, ModuleAnalysis]]):
        self.modules: dict[str, ModuleAnalysis] = {}
        for name, analysis in units:
            analysis.module_name = name
            self.modules[name] = analysis
        # local name -> absolute dotted origin, per module
        self.abs_aliases: dict[str, dict[str, str]] = {
            name: self._absolutize(name, analysis)
            for name, analysis in self.modules.items()
        }
        self._inject_cross_module_task_args()
        self._task_reachable: dict[str, set[ast.AST]] | None = None
        #: the one flow engine every flow-sensitive rule module runs on
        self.flow = FlowContext(self)

    # -- import absolutization ----------------------------------------------
    @staticmethod
    def _resolve_relative(module: str, base: str, level: int) -> str | None:
        """Absolute module for a ``from``-import with ``level`` dots."""
        if level == 0:
            return base
        parts = module.split(".")
        if level > len(parts):
            return None
        head = parts[: len(parts) - level]
        return ".".join(head + base.split(".")) if base else ".".join(head)

    def _absolutize(self, name: str, analysis: ModuleAnalysis) -> dict[str, str]:
        out: dict[str, str] = {}
        for local, (module, symbol, level) in analysis.import_bindings.items():
            if symbol is None:                     # plain ``import x.y [as z]``
                out[local] = module
                continue
            base = self._resolve_relative(name, module, level)
            if base is None:
                continue
            out[local] = f"{base}.{symbol}" if base else symbol
        return out

    # -- symbol lookup -------------------------------------------------------
    def lookup(self, dotted: str, _depth: int = 0) -> tuple[str, str, ast.AST] | None:
        """Resolve an absolute dotted path to ``(module, qualname, node)``.

        Follows package ``__init__`` re-exports (``repro.kdtree.KDTree``
        → ``repro.kdtree.kdtree.KDTree``) up to a small depth.  A class
        resolves to its definition marker: qualname is the class name and
        the node is its ``__init__`` (or ``__post_init__``) when present.
        """
        if _depth > 8:
            return None
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            analysis = self.modules.get(mod)
            if analysis is None:
                continue
            rest = parts[i:]
            if len(rest) == 1:
                sym = rest[0]
                if sym in analysis.functions and "." not in sym:
                    return (mod, sym, analysis.functions[sym])
                if sym in analysis.classes:
                    ctor = analysis.classes[sym].get("__init__") \
                        or analysis.classes[sym].get("__post_init__")
                    return (mod, sym, ctor) if ctor is not None else (mod, sym, None)
                # re-export: ``from .kdtree import KDTree`` in __init__
                target = self.abs_aliases.get(mod, {}).get(sym)
                if target is not None and target != dotted:
                    return self.lookup(target, _depth + 1)
                return None
            if len(rest) == 2:
                cls, meth = rest
                node = analysis.classes.get(cls, {}).get(meth)
                if node is not None:
                    return (mod, f"{cls}.{meth}", node)
                target = self.abs_aliases.get(mod, {}).get(cls)
                if target is not None:
                    return self.lookup(f"{target}.{meth}", _depth + 1)
                return None
            return None
        return None

    def find_class(
        self, analysis: ModuleAnalysis, class_name: str
    ) -> tuple[str, dict[str, ast.AST]] | None:
        """Locate a class by name as seen *from* ``analysis``'s module:
        defined locally, imported (following re-exports), or — as a last
        resort — defined in exactly one scanned module."""
        if class_name in analysis.classes:
            return (analysis.module_name, analysis.classes[class_name])
        target = self.abs_aliases.get(analysis.module_name, {}).get(class_name)
        if target is not None:
            hit = self.lookup(target)
            if hit is not None:
                mod, qual, _node = hit
                if qual == class_name and class_name in self.modules[mod].classes:
                    return (mod, self.modules[mod].classes[class_name])
        owners = [
            name for name, a in self.modules.items() if class_name in a.classes
        ]
        if len(owners) == 1:
            return (owners[0], self.modules[owners[0]].classes[class_name])
        return None

    # -- call-edge resolution ------------------------------------------------
    def resolve_call(
        self, analysis: ModuleAnalysis, scope: Scope, call: ast.Call
    ) -> tuple[str, ast.AST] | None:
        """The (module, function node) a call positively targets, if any."""
        func = call.func
        if isinstance(func, ast.Name):
            local = analysis._resolve_function(func.id, scope)
            if local is not None:
                return (analysis.module_name, local)
            if func.id in analysis.classes:          # local constructor call
                methods = analysis.classes[func.id]
                ctor = methods.get("__init__") or methods.get("__post_init__")
                if ctor is not None:
                    return (analysis.module_name, ctor)
                return None
            dotted = self.abs_aliases.get(analysis.module_name, {}).get(func.id)
            if dotted is not None:
                hit = self.lookup(dotted)
                if hit is not None and hit[2] is not None:
                    return (hit[0], hit[2])
            return None
        if not isinstance(func, ast.Attribute):
            return None
        # self.method() inside a class body
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and scope.class_name
        ):
            target = analysis._methods.get((scope.class_name, func.attr))
            if target is not None:
                return (analysis.module_name, target)
            return None
        # module-qualified call: helpers.work(...), pkg.mod.fn(...)
        dotted = dotted_name(func)
        if dotted is not None:
            base, rest = dotted.split(".", 1)
            origin = self.abs_aliases.get(analysis.module_name, {}).get(base)
            if origin is not None:
                hit = self.lookup(f"{origin}.{rest}")
                if hit is not None and hit[2] is not None:
                    return (hit[0], hit[2])
        # constructor-typed receiver: runner = PipelineRunner(...);
        # runner.run(...) — engine-API receivers are lineage ops, not edges.
        recv_type = analysis.expr_type(func.value, scope)
        if recv_type is not None and recv_type not in ENGINE_API_TAGS:
            owner = self.find_class(analysis, recv_type)
            if owner is not None:
                mod, methods = owner
                target = methods.get(func.attr)
                if target is not None:
                    return (mod, target)
        return None

    # -- cross-module task-argument injection --------------------------------
    def _inject_cross_module_task_args(self) -> None:
        """Resolve names passed to RDD ops that weren't same-module defs.

        An imported helper handed to ``.map`` becomes a task function of
        its defining module (`extra_task_functions`), so capture and
        determinism rules see it exactly like a locally-defined one.
        """
        for analysis in self.modules.values():
            aliases = self.abs_aliases.get(analysis.module_name, {})
            for arg in analysis.unresolved_task_args:
                base, _, rest = arg.name.partition(".")
                origin = aliases.get(base)
                if origin is None:
                    continue
                hit = self.lookup(f"{origin}.{rest}" if rest else origin)
                if hit is None or hit[2] is None:
                    continue
                mod, _qual, node = hit
                if is_substrate(mod):
                    continue
                owner = self.modules[mod]
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                owner.extra_task_functions.append(
                    TaskFunction(owner.scope_of(node), node, arg.via, node.lineno)
                )

    # -- reachability ---------------------------------------------------------
    def _successors(
        self, analysis: ModuleAnalysis, node: ast.AST
    ) -> list[tuple[str, ast.AST]]:
        scope = analysis.scope_of(node)
        out: list[tuple[str, ast.AST]] = []
        for call in _calls_in(node):
            hit = self.resolve_call(analysis, scope, call)
            if hit is not None:
                out.append(hit)
        return out

    def _close(
        self, seeds: list[tuple[str, ast.AST]], cross_into_substrate: bool = False
    ) -> dict[str, set[ast.AST]]:
        """BFS closure over call edges, grouped per module."""
        reached: dict[str, set[ast.AST]] = {}
        frontier = list(seeds)
        seen: set[tuple[str, int]] = set()
        while frontier:
            mod, node = frontier.pop()
            key = (mod, id(node))
            if key in seen:
                continue
            seen.add(key)
            reached.setdefault(mod, set()).add(node)
            analysis = self.modules[mod]
            for tmod, tnode in self._successors(analysis, node):
                if tmod != mod and is_substrate(tmod) and not cross_into_substrate:
                    continue   # application code never enters the engine
                frontier.append((tmod, tnode))
        return reached

    def task_reachable_by_module(self) -> dict[str, set[ast.AST]]:
        """Task functions plus everything they call, across modules
        (computed once per project)."""
        if self._task_reachable is None:
            self._task_reachable = self._close([
                (name, tf.node)
                for name, analysis in self.modules.items()
                for tf in analysis.task_functions + analysis.extra_task_functions
            ])
        return self._task_reachable

    def reachable_from(
        self, entry_classes: set[str]
    ) -> dict[str, set[ast.AST]]:
        """Everything callable from the methods of the named classes
        (application layer only — the engine boundary is not crossed)."""
        seeds: list[tuple[str, ast.AST]] = []
        for name, analysis in self.modules.items():
            if is_substrate(name):
                continue
            for cls, methods in analysis.classes.items():
                if cls in entry_classes:
                    seeds.extend((name, node) for node in methods.values())
        return self._close(seeds)

    def entry_modules(self, entry_classes: set[str]) -> set[str]:
        """Modules defining at least one entry-point class."""
        return {
            name
            for name, analysis in self.modules.items()
            if any(cls in entry_classes for cls in analysis.classes)
        }
