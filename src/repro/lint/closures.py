"""AST scope & closure analysis underpinning the task-closure linter.

The engine's correctness story (retry/speculation safety, cloudpickle
shipping to the processes backend) hinges on what functions handed to
RDD operations *capture* and *call*.  This module computes, for one
source file:

- a scope tree (module / def / lambda) with per-scope local names and a
  heuristic type environment (``sc = SparkContext(...)`` binds ``sc``
  to ``SparkContext``; ``b = sc.broadcast(x)`` binds ``b`` to
  ``Broadcast``; chains like ``sc.parallelize(...).map(f)`` stay RDD);
- the set of *task functions*: lambdas and local defs passed to RDD
  operations (``.map``/``.foreach_partition_with_index``/…) or to
  ``run_job``;
- free-variable (capture) analysis: names a function reads that are
  bound in an enclosing function or module scope, with their inferred
  types;
- the raw material the whole-program layer (`repro.lint.callgraph`)
  builds on: a function table keyed by qualname, a class/method table,
  import bindings that keep their relative-import level, and the task
  arguments that could not be resolved inside this module (imported
  functions handed straight to an RDD op).

Everything here is a heuristic over a single file — cross-module
resolution lives in `repro.lint.callgraph.Project` — and the
heuristics are tuned to this repo's idioms and err toward silence on
unknown types (rules only fire on *positively identified* hazards).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

# RDD methods whose function argument executes inside tasks.  Generic
# names ("map", "foreach") only count when the receiver is positively
# RDD-typed, to avoid flagging e.g. ThreadPoolExecutor.map; the
# distinctive names always count.
RDD_OP_METHODS_DISTINCTIVE = {
    "flat_map",
    "map_partitions",
    "map_partitions_with_index",
    "foreach_partition_with_index",
    "_run",   # repo idiom: RDD._run(func) submits func as the action body
}
RDD_OP_METHODS_GENERIC = {"map", "foreach"}
RDD_OP_METHODS = RDD_OP_METHODS_DISTINCTIVE | RDD_OP_METHODS_GENERIC

# Methods returning an RDD when invoked on an RDD (for chain typing).
RDD_CHAIN_METHODS = RDD_OP_METHODS | {
    "cache",
    "persist",
    "unpersist",
    "reduce_by_key",
}

# RDD methods that launch a job (actions): fatal inside task code
# (ACT001), and the uses of a live RDD (LIF003).
RDD_ACTIONS = frozenset({
    "collect", "count", "foreach", "foreach_partition_with_index",
})

# Context methods creating RDDs.
RDD_FACTORY_METHODS = {"parallelize", "text_file"}

# Constructor / call → inferred type tag.
_CTOR_TYPES = {
    "SparkContext": "SparkContext",
    "BlockManager": "BlockManager",
    "ShuffleManager": "ShuffleManager",
    "Lock": "Lock",
    "RLock": "Lock",
    "Condition": "Lock",
    "Semaphore": "Lock",
    "BoundedSemaphore": "Lock",
    "Event": "Lock",
    "Barrier": "Lock",
    "Thread": "Thread",
    "open": "File",
    "socket": "Socket",
}

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass
class Scope:
    """One lexical scope: module, function def, or lambda."""

    node: ast.AST
    name: str                       # dotted-ish display name
    parent: "Scope | None"
    locals: set[str] = field(default_factory=set)
    globals_decl: set[str] = field(default_factory=set)
    types: dict[str, str] = field(default_factory=dict)   # name -> type tag
    children: list["Scope"] = field(default_factory=list)
    class_name: str = ""            # enclosing class, for self-call resolution

    @property
    def is_module(self) -> bool:
        return isinstance(self.node, ast.Module)

    def lookup_type(self, name: str) -> str | None:
        """Inferred type of ``name``, searching enclosing scopes."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.types:
                return scope.types[name]
            scope = scope.parent
        return None

    def binding_scope(self, name: str) -> "Scope | None":
        """Nearest enclosing scope (including self) declaring ``name``."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.locals:
                return scope
            scope = scope.parent
        return None


@dataclass
class TaskFunction:
    """A function positively identified as executing inside tasks."""

    scope: Scope                    # the function's own scope
    node: ast.AST                   # FunctionDef | AsyncFunctionDef | Lambda
    via: str                        # RDD op that received it ("map", ...)
    call_line: int                  # line of the receiving call


@dataclass
class UnresolvedTaskArg:
    """A name passed to an RDD op that is not a same-module function.

    `repro.lint.callgraph.Project` retries the resolution with the
    cross-module import table: an imported helper handed straight to
    ``.map`` becomes a task function of its *defining* module.
    """

    name: str                       # dotted reference as written
    via: str                        # RDD op that received it
    call_line: int
    scope: Scope                    # scope the call appears in


class ModuleAnalysis:
    """Scope tree + task-function extraction for one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.import_aliases: dict[str, str] = {}   # local name -> dotted origin
        # local name -> (module, symbol | None, relative level); symbol is
        # None for plain ``import x.y`` bindings.  The level survives so
        # the project layer can absolutize relative imports.
        self.import_bindings: dict[str, tuple[str, str | None, int]] = {}
        self.module_scope = Scope(tree, "<module>", None)
        self._scope_of_node: dict[ast.AST, Scope] = {tree: self.module_scope}
        self._functions_by_scope: dict[ast.AST, Scope] = {}
        self._methods: dict[tuple[str, str], ast.AST] = {}  # (class, name) -> def
        self.functions: dict[str, ast.AST] = {}    # qualname -> def node
        self.classes: dict[str, dict[str, ast.AST]] = {}   # class -> methods
        self._collected: set[int] = set()          # scopes with bindings done
        self._return_memo: dict[ast.AST, str | None] = {}
        self._return_guard: set[ast.AST] = set()
        self._build(tree, self.module_scope, class_name="")
        # Bindings are collected *after* the whole scope tree exists so
        # forward references (a function defined later in the file)
        # still contribute call-return types.
        self._ensure_bindings(self.module_scope)
        for scope in self._functions_by_scope.values():
            self._ensure_bindings(scope)
        self.task_functions: list[TaskFunction] = []
        self.unresolved_task_args: list[UnresolvedTaskArg] = []
        # Cross-module task functions injected by the project layer:
        # functions of this module passed to RDD ops elsewhere.
        self.extra_task_functions: list[TaskFunction] = []
        self._find_task_functions()

    # -- scope construction -------------------------------------------------
    def _build(self, node: ast.AST, scope: Scope, class_name: str) -> None:
        for child in ast.iter_child_nodes(node):
            self._dispatch(child, scope, class_name)

    def _dispatch(self, node: ast.AST, scope: Scope, class_name: str) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._record_import(node, scope)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.locals.add(node.name)
            display = node.name if scope.is_module else f"{scope.name}.{node.name}"
            if class_name:
                display = f"{class_name}.{node.name}"
            sub = Scope(node, display, scope, class_name=class_name)
            self._add_args(node.args, sub)
            scope.children.append(sub)
            self._scope_of_node[node] = sub
            self._functions_by_scope[node] = sub
            self.functions[display] = node
            if class_name:
                self._methods[(class_name, node.name)] = node
                self.classes.setdefault(class_name, {})[node.name] = node
            for stmt in node.body:
                self._dispatch(stmt, sub, "")
        elif isinstance(node, ast.Lambda):
            self._build_lambda(node, scope)
        elif isinstance(node, ast.ClassDef):
            scope.locals.add(node.name)
            self.classes.setdefault(node.name, {})
            self._build(node, scope, class_name=node.name)
        else:
            self._build(node, scope, class_name=class_name)

    def _build_lambda(self, node: ast.Lambda, scope: Scope) -> None:
        if node in self._scope_of_node:
            return
        sub = Scope(node, f"{scope.name}.<lambda>", scope, class_name=scope.class_name)
        self._add_args(node.args, sub)
        scope.children.append(sub)
        self._scope_of_node[node] = sub
        self._functions_by_scope[node] = sub
        self._dispatch(node.body, sub, class_name="")

    def _add_args(self, args: ast.arguments, scope: Scope) -> None:
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            scope.locals.add(a.arg)
            if a.annotation is not None:
                tag = self._annotation_type(a.annotation)
                if tag:
                    scope.types[a.arg] = tag

    def _record_import(self, node: ast.AST, scope: Scope) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                scope.locals.add(local)
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                self.import_aliases[local] = origin
                self.import_bindings[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0],
                    None,
                    0,
                )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                scope.locals.add(local)
                self.import_aliases[local] = (
                    f"{module}.{alias.name}" if module else alias.name
                )
                self.import_bindings[local] = (module, alias.name, node.level)

    def _ensure_bindings(self, scope: Scope) -> None:
        """Collect a scope's bindings once; safe to call out of order."""
        if id(scope) in self._collected:
            return
        self._collected.add(id(scope))
        self._collect_bindings(scope.node, scope)

    def _collect_bindings(self, func: ast.AST, scope: Scope) -> None:
        """Locals + heuristic types for one function scope (non-nested part)."""

        class Collector(ast.NodeVisitor):
            def __init__(self, analysis: "ModuleAnalysis"):
                self.analysis = analysis

            # Do not descend into nested scopes — they bind their own.
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                pass

            visit_AsyncFunctionDef = visit_FunctionDef

            def visit_Lambda(self, node: ast.Lambda) -> None:
                pass

            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                scope.locals.add(node.name)

            def visit_Global(self, node: ast.Global) -> None:
                scope.globals_decl.update(node.names)

            def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
                scope.globals_decl.update(node.names)

            def visit_Import(self, node: ast.Import) -> None:
                self.analysis._record_import(node, scope)

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                self.analysis._record_import(node, scope)

            def visit_Assign(self, node: ast.Assign) -> None:
                tag = self.analysis.expr_type(node.value, scope)
                for target in node.targets:
                    for name in _target_names(target):
                        scope.locals.add(name)
                        if tag:
                            scope.types[name] = tag
                self.generic_visit(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                if isinstance(node.target, ast.Name):
                    scope.locals.add(node.target.id)
                    tag = self.analysis._annotation_type(node.annotation)
                    if not tag and node.value is not None:
                        tag = self.analysis.expr_type(node.value, scope)
                    if tag:
                        scope.types[node.target.id] = tag
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                for name in _target_names(node.target):
                    scope.locals.add(name)
                self.generic_visit(node)

            def visit_For(self, node: ast.For) -> None:
                for name in _target_names(node.target):
                    scope.locals.add(name)
                self.generic_visit(node)

            visit_AsyncFor = visit_For

            def visit_With(self, node: ast.With) -> None:
                for item in node.items:
                    if item.optional_vars is not None:
                        tag = self.analysis.expr_type(item.context_expr, scope)
                        for name in _target_names(item.optional_vars):
                            scope.locals.add(name)
                            if tag:
                                scope.types[name] = tag
                self.generic_visit(node)

            visit_AsyncWith = visit_With

            def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
                if node.name:
                    scope.locals.add(node.name)
                self.generic_visit(node)

            def visit_comprehension(self, node: ast.comprehension) -> None:
                # Comprehension targets live in a nested scope in py3;
                # registering them as locals here only prevents false
                # capture reports, never causes one.
                for name in _target_names(node.target):
                    scope.locals.add(name)
                self.generic_visit(node)

            def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
                if isinstance(node.target, ast.Name):
                    scope.locals.add(node.target.id)
                self.generic_visit(node)

        collector = Collector(self)
        body = [func.body] if isinstance(func, ast.Lambda) else getattr(func, "body", [])
        for stmt in body:
            collector.visit(stmt)

    # -- type inference ------------------------------------------------------
    def _annotation_type(self, annotation: ast.AST) -> str | None:
        name = _tail_name(annotation)
        if name in _CTOR_TYPES:
            return _CTOR_TYPES[name]
        if name in ("RDD", "Broadcast", "Accumulator"):
            return name
        return None

    def expr_type(self, expr: ast.AST, scope: Scope) -> str | None:
        """Heuristic type tag of an expression, or None when unknown."""
        if isinstance(expr, ast.Name):
            tag = scope.lookup_type(expr.id)
            if tag is None and (expr.id == "sc" or expr.id.endswith("_sc")):
                # Untyped parameters named like contexts: this codebase's
                # pervasive convention (fit(self, sc), _run_job(self, sc)).
                return "SparkContext"
            return tag
        if isinstance(expr, ast.Await):
            return self.expr_type(expr.value, scope)
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            resolved = self.import_aliases.get(func.id, func.id)
            tail = resolved.split(".")[-1]
            if tail in _CTOR_TYPES:
                return _CTOR_TYPES[tail]
            # Call-return typing: ``make_rdd(sc).map(f)`` — the chain
            # starts at whatever the same-module function returns.
            target = self._resolve_function(func.id, scope)
            if target is not None:
                return self._return_type(target)
            if tail[:1].isupper() and tail not in _BUILTIN_NAMES:
                # Instance of a (possibly imported) class: tag it with
                # the class name so method calls on it can be resolved
                # by the project-level call graph.
                return tail
            return None
        if isinstance(func, ast.Attribute):
            attr = func.attr
            root = (dotted_name(func.value) or "").partition(".")[0]
            if attr in _CTOR_TYPES and self.import_aliases.get(root, root) in (
                "threading",
                "socket",
                "builtins",
                "io",
                "multiprocessing",
            ):
                return _CTOR_TYPES[attr]
            recv_type = self.expr_type(func.value, scope)
            if attr == "broadcast" and recv_type in ("SparkContext", None):
                # sc.broadcast(...) — only trust a known context receiver
                return "Broadcast" if recv_type == "SparkContext" else None
            if attr == "accumulator" and recv_type == "SparkContext":
                return "Accumulator"
            if attr in RDD_FACTORY_METHODS and recv_type == "SparkContext":
                return "RDD"
            if attr in RDD_CHAIN_METHODS and recv_type == "RDD":
                return "RDD"
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and scope.class_name
            ):
                target = self._methods.get((scope.class_name, attr))
                if target is not None:
                    return self._return_type(target)
        return None

    def _return_type(self, func_node: ast.AST) -> str | None:
        """Inferred type of a same-module function's return value.

        The single tag every ``return`` expression agrees on, or None
        when returns disagree or nothing is positively typed.  Memoized;
        recursion (mutual or self) resolves to None.
        """
        if func_node in self._return_memo:
            return self._return_memo[func_node]
        if func_node in self._return_guard:
            return None
        self._return_guard.add(func_node)
        try:
            scope = self._scope_of_node.get(func_node)
            if scope is None:
                return None
            self._ensure_bindings(scope)
            if isinstance(func_node, ast.Lambda):
                tags = {self.expr_type(func_node.body, scope)}
            else:
                tags = set()
                stack: list[ast.AST] = list(getattr(func_node, "body", []))
                while stack:
                    sub = stack.pop()
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda)):
                        continue   # nested scope: its returns are not ours
                    if isinstance(sub, ast.Return) and sub.value is not None:
                        tags.add(self.expr_type(sub.value, scope))
                    stack.extend(ast.iter_child_nodes(sub))
            tags.discard(None)
            tag = tags.pop() if len(tags) == 1 else None
            self._return_memo[func_node] = tag
            return tag
        finally:
            self._return_guard.discard(func_node)

    def receiver_is_rdd(self, call: ast.Call, scope: Scope) -> bool:
        """True when the call's receiver is positively RDD-typed."""
        if not isinstance(call.func, ast.Attribute):
            return False
        recv = call.func.value
        if self.expr_type(recv, scope) == "RDD":
            return True
        # Heuristic of last resort: receivers literally named like RDDs.
        if isinstance(recv, ast.Name) and recv.id.lower().endswith("rdd"):
            return True
        return False

    # -- task-function extraction -------------------------------------------
    def scope_of(self, node: ast.AST) -> Scope:
        """The Scope object owning ``node`` (nearest enclosing function)."""
        return self._scope_of_node[node]

    def enclosing_scope(self, node: ast.AST) -> Scope:
        """Scope in which ``node`` appears (found by containment walk)."""
        best = self.module_scope
        for func_node, scope in self._functions_by_scope.items():
            if _contains(func_node, node) and func_node is not node:
                if _contains(best.node, func_node) or best.is_module:
                    best = scope
        return best

    def _find_task_functions(self) -> None:
        analysis = self

        class Finder(ast.NodeVisitor):
            def visit_Call(self, node: ast.Call) -> None:
                analysis._maybe_task_call(node)
                self.generic_visit(node)

        Finder().visit(self.tree)

    def _maybe_task_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr not in RDD_OP_METHODS and attr != "run_job":
            return
        scope = self.enclosing_scope(call)
        is_rdd_op = attr in RDD_OP_METHODS_DISTINCTIVE or (
            attr in RDD_OP_METHODS_GENERIC and self.receiver_is_rdd(call, scope)
        )
        is_run_job = attr == "run_job" and len(call.args) >= 2
        if not (is_rdd_op or is_run_job):
            return
        candidates = list(call.args[1:] if is_run_job else call.args)
        for arg in candidates:
            self._register_task_arg(arg, attr, call.lineno, scope)

    def _register_task_arg(
        self, arg: ast.AST, via: str, line: int, scope: Scope
    ) -> None:
        if isinstance(arg, ast.Lambda):
            self.task_functions.append(
                TaskFunction(self._scope_of_node[arg], arg, via, line)
            )
        elif isinstance(arg, ast.Name):
            target = self._resolve_function(arg.id, scope)
            if target is not None:
                self.task_functions.append(
                    TaskFunction(self._scope_of_node[target], target, via, line)
                )
            else:
                self.unresolved_task_args.append(
                    UnresolvedTaskArg(arg.id, via, line, scope)
                )
        elif isinstance(arg, ast.Attribute):
            dotted = dotted_name(arg)
            if dotted is not None:
                self.unresolved_task_args.append(
                    UnresolvedTaskArg(dotted, via, line, scope)
                )

    def _resolve_function(self, name: str, scope: Scope) -> ast.AST | None:
        """Find the def bound to ``name`` in enclosing scopes (same module)."""
        s: Scope | None = scope
        while s is not None:
            for child in s.children:
                node = child.node
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == name
                ):
                    return node
            s = s.parent
        return None

    # -- capture analysis ----------------------------------------------------
    def captures(self, func_node: ast.AST) -> list[tuple[str, ast.Name, Scope]]:
        """Free variables of a function: (name, first-load node, binding scope).

        Only names bound in an *enclosing* scope are returned; builtins
        and genuinely-global unknowns are skipped.
        """
        scope = self._scope_of_node[func_node]
        own = scope.locals | scope.globals_decl
        nested_locals = _all_nested_locals(scope)
        seen: dict[str, ast.Name] = {}
        for name_node in _loads_in(func_node):
            nid = name_node.id
            if nid in own or nid in nested_locals or nid in _BUILTIN_NAMES:
                continue
            if nid not in seen:
                seen[nid] = name_node
        out: list[tuple[str, ast.Name, Scope]] = []
        for nid, node in seen.items():
            binder = scope.parent.binding_scope(nid) if scope.parent else None
            if binder is not None:
                out.append((nid, node, binder))
        return out

    def resolve_dotted(self, expr: ast.AST) -> str | None:
        """Dotted call-target path with import aliases expanded.

        ``np.random.rand`` → ``numpy.random.rand`` (given ``import numpy
        as np``); ``time()`` → ``time.time`` (given ``from time import
        time``).  Returns None for non-name bases (method calls etc.).
        """
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        base, dot, rest = dotted.partition(".")
        return self.import_aliases.get(base, base) + dot + rest


# -- small AST helpers -------------------------------------------------------

def dotted_name(expr: ast.AST) -> str | None:
    """A name-rooted attribute chain exactly as written (``sc``,
    ``self.sc``, ``helpers.work``), or None for any other expression.
    No alias expansion — `ModuleAnalysis.resolve_dotted` and the project
    layer absolutize the base themselves."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def by_position(nodes) -> list:
    """AST nodes in source order."""
    return sorted(nodes, key=lambda n: (n.lineno, n.col_offset))


def _target_names(target: ast.AST) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _tail_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].split("[")[0]
    if isinstance(node, ast.Subscript):
        return _tail_name(node.value)
    return None


def _contains(outer: ast.AST, inner: ast.AST) -> bool:
    if outer is inner:
        return True
    for node in ast.walk(outer):
        if node is inner:
            return True
    return False


def _calls_in(func_node: ast.AST) -> list[ast.Call]:
    body = func_node.body if isinstance(func_node, ast.Lambda) else func_node
    nodes = [body] if isinstance(func_node, ast.Lambda) else list(
        getattr(func_node, "body", [])
    )
    out: list[ast.Call] = []
    for n in nodes:
        for sub in ast.walk(n):
            if isinstance(sub, ast.Call):
                out.append(sub)
    return out


def _loads_in(func_node: ast.AST) -> list[ast.Name]:
    nodes = (
        [func_node.body]
        if isinstance(func_node, ast.Lambda)
        else list(getattr(func_node, "body", []))
    )
    out: list[ast.Name] = []
    for n in nodes:
        for sub in ast.walk(n):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.append(sub)
    return out


def _all_nested_locals(scope: Scope) -> set[str]:
    """Locals of nested scopes — names a nested def binds are not captures
    of the outer function *through* this function."""
    out: set[str] = set()
    stack = list(scope.children)
    while stack:
        s = stack.pop()
        out |= s.locals
        stack.extend(s.children)
    return out
