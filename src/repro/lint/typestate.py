"""Flow-sensitive lifecycle rules over engine objects (LIF*/RES*).

Tracks abstract lifecycle states of driver-side engine objects through
each function's CFG (`repro.lint.cfg`) with the forward fixpoint solver
(`repro.lint.dataflow`):

- ``SparkContext``/``StreamingContext``: *open* → *stopped* (``stop()``
  or leaving a ``with`` block);
- ``RDD``: *live* → *persisted* (``persist()``/``cache()``) →
  *unpersisted*;
- ``Broadcast``: *live* → *unpersisted* (``unpersist()``/``destroy()``);
- ``TrackedLock`` and the ``threading`` lock family: *released* ⇄
  *held* (``acquire()``/``release()`` or ``with``).

A variable's abstract value is the *set* of (state, site) pairs over
all paths reaching a program point; the join is set union.  The
use-after rules fire only when the set is non-empty and every entry is
dead — i.e. the object is stopped/closed/unpersisted on **all** paths
(a release in just one branch joins to a mixed set and stays silent).
The leak rules are may-analyses over the CFG's two exit blocks: RES001
fires when a *persisted* entry survives to the normal exit without the
RDD escaping the function, RES002 when a *held* lock or *open* locally
created context reaches the raise exit (the ``with``-less pattern —
``with`` blocks and ``try/finally`` releases are modelled by the CFG's
cleanup duplication, so they never fire).

Interprocedural layer: calls into same-project functions (resolved via
`repro.lint.callgraph.Project`) are summarised — which methods a callee
surely/possibly applies to each parameter, and whether the parameter
escapes — so ``shutdown(sc)`` followed by ``sc.parallelize(...)`` is a
use-after-stop, and a helper that unpersists its argument discharges
RES001 at the call site.

Rules (each finding carries the acquire/transition site as a SARIF
``relatedLocation``):

- ``LIF001`` use-after-stop (SparkContext/StreamingContext)
- ``LIF003`` action-after-unpersist (RDD actions, ``Broadcast.value``)
- ``RES001`` persist/cache with no unpersist on some exit path
- ``RES002`` lock/context acquired but not released on an exception path
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .cfg import CFG, ExceptBind, ForBind, WithEnter, WithExit, build_cfg
from .closures import ModuleAnalysis, Scope, _loads_in, _target_names
from .dataflow import ForwardAnalysis, solve
from .findings import Finding

# -- lifecycle tables ---------------------------------------------------------

#: type tag (from closures' inference) -> resource kind
KIND_OF_TAG = {
    "SparkContext": "context",
    "StreamingContext": "context",
    "RDD": "rdd",
    "Broadcast": "broadcast",
    "Lock": "lock",
}

#: kind -> state a fresh constructor call starts in
INIT_STATE = {
    "context": "open",
    "rdd": "live",
    "broadcast": "live",
    "lock": "released",
}

#: kind -> {method: state} transitions that *release* (safe to assume
#: done when the instruction raises mid-flight)
RELEASE = {
    "context": {"stop": "stopped"},
    "rdd": {"unpersist": "unpersisted"},
    "broadcast": {"unpersist": "unpersisted", "destroy": "unpersisted"},
    "lock": {"release": "released"},
}

#: kind -> {method: state} transitions that *acquire* (assumed NOT done
#: when the instruction raises)
ACQUIRE = {
    "rdd": {"persist": "persisted", "cache": "persisted"},
    "lock": {"acquire": "held"},
}

#: kind -> state applied when a ``with`` block over the object exits
WITH_EXIT_STATE = {"context": "stopped", "lock": "released"}

#: kind -> state applied when a ``with`` block over the object enters
WITH_ENTER_STATE = {"lock": "held"}

#: kind -> states in which the object is dead for its use-set
DEAD_STATES = {
    "context": {"stopped"},
    "rdd": {"unpersisted"},
    "broadcast": {"unpersisted"},
}

#: kind -> methods that *use* the live object (LIF rules fire on these)
USES = {
    "context": {
        "parallelize", "text_file", "from_source", "broadcast",
        "accumulator", "list_accumulator", "run_job",
    },
    "rdd": {
        "collect", "count", "reduce", "take", "take_ordered", "first",
        "sum", "fold", "aggregate", "foreach", "foreach_partition",
        "foreach_partition_with_index",
    },
    "broadcast": set(),     # uses are ``.value`` reads, handled separately
}

#: kind -> LIF rule id for a use of a definitely-dead object
USE_RULE = {"context": "LIF001", "rdd": "LIF003", "broadcast": "LIF003"}

#: kind -> past-tense transition verb for related-location messages
DEAD_VERB = {"context": "stopped", "rdd": "unpersisted",
             "broadcast": "unpersisted"}

TYPESTATE_RULES = ("LIF001", "LIF003", "RES001", "RES002")


# -- abstract state -----------------------------------------------------------

#: one abstract fact about a variable: (kind, state, transition line)
Entry = tuple  # (str, str, int)


@dataclass(eq=True)
class TState:
    """Lattice value: per-variable entry sets plus the escaped-name set."""

    vars: dict = field(default_factory=dict)       # key -> frozenset[Entry]
    escaped: frozenset = frozenset()

    def copy(self) -> "TState":
        return TState(vars=dict(self.vars), escaped=self.escaped)


def _var_key(expr: ast.AST) -> str | None:
    """Stable key for a trackable reference: a bare name (``sc``) or a
    name-rooted attribute chain (``self.sc``, ``state.sc``)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _definitely(entries: frozenset, kind: str) -> bool:
    """True when every fact says the object is dead for ``kind``."""
    dead = DEAD_STATES.get(kind, set())
    return bool(entries) and all(
        k == kind and s in dead for (k, s, _line) in entries
    )


def _dead_sites(entries: frozenset) -> list[int]:
    return sorted({line for (_k, _s, line) in entries})


# -- interprocedural summaries ------------------------------------------------

@dataclass
class Summary:
    """What a callee does to each of its parameters, by name."""

    must: dict = field(default_factory=dict)   # param -> frozenset[methods]
    may: dict = field(default_factory=dict)    # param -> frozenset[methods]
    escapes: frozenset = frozenset()           # params that escape the callee


class _SummaryAnalysis(ForwardAnalysis):
    """Per-path set of methods applied to each parameter.

    State: ``None`` (top / unreached on this path — identity of join)
    or a dict param -> frozenset of method names applied so far.  The
    *may* side is accumulated separately as a plain union during the
    emission walk; the solver's intersection-join over normal-exit
    paths yields *must*.
    """

    def __init__(self, checker: "_FunctionChecker", params: list[str]):
        self.checker = checker
        self.params = params

    def initial_state(self):
        return {p: frozenset() for p in self.params}

    def bottom(self):
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return {p: a[p] & b[p] for p in self.params}

    def transfer(self, state, instr):
        if state is None:
            return None
        methods = self.checker.param_methods(instr, set(self.params))
        if not methods:
            return state
        out = dict(state)
        for p, ms in methods.items():
            out[p] = out[p] | ms
        return out

    def exc_state(self, state, instr):
        return state


# -- the lifecycle analysis ---------------------------------------------------

class _LifecycleAnalysis(ForwardAnalysis):
    def __init__(self, checker: "_FunctionChecker"):
        self.checker = checker

    def initial_state(self) -> TState:
        return TState(escaped=frozenset(self.checker.pre_escaped))

    def bottom(self) -> TState | None:
        return None

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        vars_out = dict(a.vars)
        for key, entries in b.vars.items():
            vars_out[key] = vars_out.get(key, frozenset()) | entries
        return TState(vars=vars_out, escaped=a.escaped | b.escaped)

    def transfer(self, state, instr):
        if state is None:
            return None
        return self.checker.apply(state, instr, exceptional=False)

    def exc_state(self, state, instr):
        if state is None:
            return None
        return self.checker.apply(state, instr, exceptional=True)


class _FunctionChecker:
    """Typestate pass over one function: transfer semantics, the check
    walk, and the summary hooks."""

    def __init__(self, cache: "_FlowCache", analysis: ModuleAnalysis,
                 func_node: ast.AST):
        self.cache = cache
        self.project = cache.project
        self.analysis = analysis
        self.func = func_node
        self.scope: Scope = analysis.scope_of(func_node)
        # Names read by nested defs/lambdas escape this function's
        # flow-sensitive view from the start.
        self.pre_escaped: set[str] = set()
        for stmt in getattr(func_node, "body", []):
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                    self.pre_escaped.update(n.id for n in _loads_in(sub))

    # -- kind resolution ------------------------------------------------------
    def _kind_of(self, state: TState, key: str, expr: ast.AST) -> str | None:
        entries = state.vars.get(key)
        if entries:
            kinds = {k for (k, _s, _l) in entries}
            if len(kinds) == 1:
                return next(iter(kinds))
        tag = self.analysis.expr_type(expr, self.scope)
        return KIND_OF_TAG.get(tag) if tag else None

    def _fresh_entries(self, value: ast.AST, line: int) -> frozenset | None:
        """Entries for a binding from a constructor/factory call."""
        if not isinstance(value, ast.Call):
            return None
        tag = self.analysis.expr_type(value, self.scope)
        kind = KIND_OF_TAG.get(tag) if tag else None
        if kind is None:
            return None
        return frozenset({(kind, INIT_STATE[kind], line)})

    # -- transfer -------------------------------------------------------------
    def apply(self, state: TState, instr, exceptional: bool) -> TState:
        out = state.copy()
        if isinstance(instr, ForBind):
            for name in _target_names(instr.target):
                out.vars.pop(name, None)
            return out
        if isinstance(instr, ExceptBind):
            if instr.name:
                out.vars.pop(instr.name, None)
            return out
        if isinstance(instr, WithEnter):
            return self._with_enter(out, instr)
        if isinstance(instr, WithExit):
            return self._with_exit(out, instr)
        if not isinstance(instr, ast.AST):
            return out
        if isinstance(instr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.vars.pop(getattr(instr, "name", ""), None)
            return out
        for call in _calls_within(instr):
            self._apply_call(out, call, exceptional)
        self._apply_escapes(out, instr)
        if not exceptional:
            self._apply_binding(out, instr)
        return out

    def _with_enter(self, out: TState, instr: WithEnter) -> TState:
        item = instr.item
        ctx_key = _var_key(item.context_expr)
        target = None
        if item.optional_vars is not None and isinstance(item.optional_vars, ast.Name):
            target = item.optional_vars.id
        fresh = self._fresh_entries(item.context_expr, instr.lineno)
        if fresh is not None:
            key = target or ctx_key
            if key:
                out.vars[key] = fresh
        elif ctx_key is not None:
            kind = self._kind_of(out, ctx_key, item.context_expr)
            if kind in WITH_ENTER_STATE:
                out.vars[ctx_key] = frozenset(
                    {(kind, WITH_ENTER_STATE[kind], instr.lineno)}
                )
            if target and ctx_key in out.vars:
                out.vars[target] = out.vars[ctx_key]
        return out

    def _with_exit(self, out: TState, instr: WithExit) -> TState:
        for item in instr.items:
            keys = []
            if item.optional_vars is not None and isinstance(item.optional_vars, ast.Name):
                keys.append(item.optional_vars.id)
            ctx_key = _var_key(item.context_expr)
            if ctx_key is not None:
                keys.append(ctx_key)
            for key in keys:
                entries = out.vars.get(key)
                if not entries:
                    continue
                kinds = {k for (k, _s, _l) in entries}
                if len(kinds) == 1:
                    kind = next(iter(kinds))
                    if kind in WITH_EXIT_STATE:
                        out.vars[key] = frozenset(
                            {(kind, WITH_EXIT_STATE[kind], instr.lineno)}
                        )
        return out

    def _apply_call(self, out: TState, call: ast.Call, exceptional: bool) -> None:
        recv_key = None
        if isinstance(call.func, ast.Attribute):
            recv_key = _var_key(call.func.value)
            if recv_key is not None:
                method = call.func.attr
                kind = self._kind_of(out, recv_key, call.func.value)
                if kind is not None:
                    if method in RELEASE.get(kind, {}):
                        out.vars[recv_key] = frozenset(
                            {(kind, RELEASE[kind][method], call.lineno)}
                        )
                        return
                    if method in ACQUIRE.get(kind, {}):
                        if not exceptional:
                            out.vars[recv_key] = frozenset(
                                {(kind, ACQUIRE[kind][method], call.lineno)}
                            )
                        return
        # Same-project callee: apply its parameter summary to tracked
        # arguments; unresolved callees make tracked arguments escape.
        resolved = self.cache.resolve(self.analysis, self.scope, call)
        summary = None
        offset = 0
        if resolved is not None:
            mod, node = resolved
            summary = self.cache.summary(mod, node)
            offset = _self_offset(node, call)
        for name, arg in _tracked_args(call, resolved, offset):
            if arg is None or arg not in out.vars:
                continue
            if summary is None or name is None:
                out.escaped = out.escaped | {arg}
                continue
            if name in summary.escapes:
                out.escaped = out.escaped | {arg}
            entries = out.vars[arg]
            kinds = {k for (k, _s, _l) in entries}
            kind = next(iter(kinds)) if len(kinds) == 1 else None
            if kind is None:
                continue
            must = summary.must.get(name, frozenset())
            may = summary.may.get(name, frozenset())
            for m in sorted(may):
                table = RELEASE.get(kind, {})
                atable = ACQUIRE.get(kind, {})
                new_state = table.get(m) or (
                    None if exceptional else atable.get(m)
                )
                if new_state is None:
                    continue
                transitioned = frozenset({(kind, new_state, call.lineno)})
                if m in must:
                    entries = transitioned
                else:
                    entries = entries | transitioned
            out.vars[arg] = entries

    def _apply_escapes(self, out: TState, instr: ast.AST) -> None:
        values: list[ast.AST] = []
        if isinstance(instr, ast.Return) and instr.value is not None:
            values.append(instr.value)
        for sub in ast.walk(instr):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
                values.append(sub.value)
        if isinstance(instr, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript, ast.Tuple, ast.List))
                for t in instr.targets
            ):
                values.append(instr.value)
            elif isinstance(instr.value, (ast.Tuple, ast.List, ast.Dict, ast.Set)):
                values.append(instr.value)
        names: set[str] = set()
        for value in values:
            names |= _value_names(value)
        tracked = {n for n in names if n in out.vars}
        if tracked:
            out.escaped = out.escaped | frozenset(tracked)

    def _apply_binding(self, out: TState, instr: ast.AST) -> None:
        target_names: list[str] = []
        value: ast.AST | None = None
        if isinstance(instr, ast.Assign):
            value = instr.value
            for t in instr.targets:
                if isinstance(t, ast.Name):
                    target_names.append(t.id)
                elif isinstance(t, ast.Attribute):
                    key = _var_key(t)
                    if key:
                        target_names.append(key)
        elif isinstance(instr, ast.AnnAssign) and instr.value is not None:
            value = instr.value
            if isinstance(instr.target, ast.Name):
                target_names.append(instr.target.id)
            elif isinstance(instr.target, ast.Attribute):
                key = _var_key(instr.target)
                if key:
                    target_names.append(key)
        elif isinstance(instr, ast.Delete):
            for t in instr.targets:
                key = _var_key(t)
                if key:
                    out.vars.pop(key, None)
            return
        if not target_names or value is None:
            return
        entries = self._binding_entries(out, value)
        for name in target_names:
            if entries is not None:
                out.vars[name] = entries
            else:
                out.vars.pop(name, None)
        # Attribute-rooted targets outlive the function; the RES rules
        # must not claim ownership of them (LIF ordering still applies).
        dotted = [n for n in target_names if "." in n]
        if dotted:
            out.escaped = out.escaped | frozenset(dotted)

    def _binding_entries(self, state: TState, value: ast.AST) -> frozenset | None:
        key = _var_key(value)
        if key is not None:
            return state.vars.get(key)    # alias copies the facts
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            recv_key = _var_key(value.func.value)
            method = value.func.attr
            if recv_key is not None and (
                method in ("persist", "cache", "unpersist")
            ):
                return state.vars.get(recv_key)   # chain returns receiver
        return self._fresh_entries(value, getattr(value, "lineno", 0))

    # -- summary hooks --------------------------------------------------------
    def param_methods(self, instr, params: set[str]) -> dict:
        """{param: methods applied by this instruction} (incl. through
        resolved callees), plus escape recording via the summary cache."""
        out: dict[str, frozenset] = {}
        if isinstance(instr, (WithEnter, WithExit, ForBind, ExceptBind)):
            if isinstance(instr, WithExit):
                for item in instr.items:
                    key = _var_key(item.context_expr)
                    if key in params:
                        out[key] = out.get(key, frozenset()) | {"__with_exit__"}
            return out
        if not isinstance(instr, ast.AST):
            return out
        for call in _calls_within(instr):
            if isinstance(call.func, ast.Attribute):
                key = _var_key(call.func.value)
                if key in params:
                    out[key] = out.get(key, frozenset()) | {call.func.attr}
                    continue
            resolved = self.cache.resolve(self.analysis, self.scope, call)
            summary = None
            offset = 0
            if resolved is not None:
                mod, node = resolved
                summary = self.cache.summary(mod, node)
                offset = _self_offset(node, call)
            for name, arg in _tracked_args(call, resolved, offset):
                if arg not in params:
                    continue
                if summary is None or name is None:
                    out[arg] = out.get(arg, frozenset()) | {"__escape__"}
                    continue
                methods = summary.may.get(name, frozenset())
                if name in summary.escapes:
                    methods = methods | {"__escape__"}
                if methods:
                    out[arg] = out.get(arg, frozenset()) | methods
        for name in _escaping_names(instr):
            if name in params:
                out[name] = out.get(name, frozenset()) | {"__escape__"}
        return out

    # -- the check walk -------------------------------------------------------
    def check(self) -> list[Finding]:
        cfg = self.cache.cfg(self.func)
        analysis = _LifecycleAnalysis(self)
        states = solve(cfg, analysis)
        findings: list[Finding] = []
        seen: set[tuple] = set()

        def emit(rule: str, line: int, col: int, message: str,
                 related: list[tuple[int, str]]) -> None:
            key = (rule, line, col, message)
            if key in seen:
                return
            seen.add(key)
            findings.append(Finding(
                rule=rule,
                path=self.analysis.path,
                line=line,
                col=col,
                message=message,
                symbol=self.scope.name,
                related=tuple(
                    (self.analysis.path, rline, rmsg) for rline, rmsg in related
                ),
            ))

        for bid in sorted(cfg.blocks):
            if bid not in states.in_states:
                continue
            st = states.in_states[bid]
            if st is None:
                continue
            for instr in cfg.blocks[bid].instrs:
                self._check_instr(st, instr, emit)
                st = self.apply(st, instr, exceptional=False)

        exit_st = states.in_states.get(cfg.exit)
        if exit_st is not None:
            self._check_normal_exit(exit_st, emit)
        raise_st = states.in_states.get(cfg.raise_exit)
        if raise_st is not None:
            self._check_raise_exit(raise_st, emit)
        return findings

    def _check_instr(self, st: TState, instr, emit) -> None:
        if not isinstance(instr, ast.AST):
            return
        for call in _calls_within(instr):
            if isinstance(call.func, ast.Attribute):
                recv_key = _var_key(call.func.value)
                if recv_key is not None:
                    entries = st.vars.get(recv_key, frozenset())
                    kinds = {k for (k, _s, _l) in entries}
                    kind = next(iter(kinds)) if len(kinds) == 1 else None
                    if (
                        kind is not None
                        and call.func.attr in USES.get(kind, set())
                        and _definitely(entries, kind)
                    ):
                        self._emit_use(
                            emit, kind, recv_key, call.func.attr,
                            call.lineno, call.col_offset, entries,
                        )
                        continue
            self._check_summary_use(st, call, emit)
        # Broadcast uses are ``.value`` reads, not method calls.
        for sub in ast.walk(instr):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "value"
                and isinstance(sub.ctx, ast.Load)
            ):
                key = _var_key(sub.value)
                if key is None:
                    continue
                entries = st.vars.get(key, frozenset())
                if _definitely(entries, "broadcast"):
                    emit(
                        "LIF003", sub.lineno, sub.col_offset,
                        f"'{key}'.value read after unpersist(); the broadcast "
                        "payload is released on every executor",
                        [(line, "unpersisted here") for line in _dead_sites(entries)],
                    )

    def _check_summary_use(self, st: TState, call: ast.Call, emit) -> None:
        resolved = self.cache.resolve(self.analysis, self.scope, call)
        if resolved is None:
            return
        mod, node = resolved
        summary = self.cache.summary(mod, node)
        offset = _self_offset(node, call)
        callee = getattr(node, "name", "<callee>")
        for name, arg in _tracked_args(call, resolved, offset):
            if name is None or arg is None:
                continue
            entries = st.vars.get(arg, frozenset())
            kinds = {k for (k, _s, _l) in entries}
            kind = next(iter(kinds)) if len(kinds) == 1 else None
            if kind is None or not _definitely(entries, kind):
                continue
            used = (summary.may.get(name, frozenset())) & USES.get(kind, set())
            if used:
                method = sorted(used)[0]
                self._emit_use(
                    emit, kind, arg, method, call.lineno, call.col_offset,
                    entries, via=callee,
                )

    def _emit_use(self, emit, kind: str, var: str, method: str,
                  line: int, col: int, entries: frozenset,
                  via: str | None = None) -> None:
        verb = DEAD_VERB[kind]
        related = [(site, f"{verb} here") for site in _dead_sites(entries)]
        where = f"helper '{via}' calls .{method}() on it" if via else \
            f".{method}() called on it"
        noun = {
            "context": "a definitely-stopped SparkContext",
            "rdd": "an unpersisted RDD",
            "broadcast": "an unpersisted Broadcast",
        }[kind]
        emit(
            USE_RULE[kind], line, col,
            f"'{var}' is {noun} on every path here, but {where}",
            related,
        )

    def _check_normal_exit(self, st: TState, emit) -> None:
        for key, entries in sorted(st.vars.items()):
            if "." in key or key in st.escaped:
                continue
            persisted = [(k, s, line) for (k, s, line) in entries
                         if k == "rdd" and s == "persisted"]
            for _k, _s, line in sorted(set(persisted)):
                emit(
                    "RES001", line, 0,
                    f"'{key}' is persisted/cached but some exit path leaves "
                    "it resident with no unpersist()",
                    [(line, "persisted here")],
                )

    def _check_raise_exit(self, st: TState, emit) -> None:
        for key, entries in sorted(st.vars.items()):
            if "." in key or key in st.escaped:
                continue
            for k, s, line in sorted(set(entries)):
                if k == "lock" and s == "held":
                    emit(
                        "RES002", line, 0,
                        f"'{key}' is acquired but an exception path escapes "
                        "without release(); use try/finally or with",
                        [(line, "acquired here")],
                    )
                elif k == "context" and s == "open":
                    emit(
                        "RES002", line, 0,
                        f"'{key}' (SparkContext) is left running on an "
                        "exception path; stop it in try/finally or use with",
                        [(line, "created here")],
                    )


# -- project-level driver -----------------------------------------------------

class _FlowCache:
    """Per-project cache of CFGs, callee summaries, and findings."""

    def __init__(self, project):
        self.project = project
        self._cfgs: dict[int, CFG] = {}
        self._summaries: dict[int, Summary] = {}
        self._in_progress: set[int] = set()
        self._node_owner: dict[int, tuple] = {}
        self.findings: list[Finding] | None = None
        for name, analysis in project.modules.items():
            for node in analysis._functions_by_scope:
                self._node_owner[id(node)] = (name, analysis)

    def cfg(self, func_node: ast.AST) -> CFG:
        key = id(func_node)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(func_node)
        return self._cfgs[key]

    def resolve(self, analysis: ModuleAnalysis, scope: Scope, call: ast.Call):
        hit = self.project.resolve_call(analysis, scope, call)
        if hit is None:
            return None
        mod, node = hit
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        return (mod, node)

    def summary(self, module: str, func_node: ast.AST) -> Summary:
        key = id(func_node)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:      # recursion: assume no effect
            return Summary()
        self._in_progress.add(key)
        try:
            summary = self._compute_summary(module, func_node)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def _compute_summary(self, module: str, func_node: ast.AST) -> Summary:
        analysis = self.project.modules.get(module)
        if analysis is None:
            return Summary()
        args = getattr(func_node, "args", None)
        if args is None:
            return Summary()
        params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        if not params:
            return Summary()
        checker = _FunctionChecker(self, analysis, func_node)
        cfg = self.cfg(func_node)
        sa = _SummaryAnalysis(checker, params)
        states = solve(cfg, sa)
        exit_state = states.in_states.get(cfg.exit)
        must = {}
        if isinstance(exit_state, dict):
            must = {p: ms - {"__escape__", "__with_exit__"}
                    for p, ms in exit_state.items()}
        may: dict[str, set] = {p: set() for p in params}
        escapes: set[str] = set()
        for bid, st in states.out_states.items():
            if not isinstance(st, dict):
                continue
            for p, ms in st.items():
                may[p] |= ms
        for p in params:
            if "__escape__" in may[p]:
                escapes.add(p)
            may[p] -= {"__escape__", "__with_exit__"}
        return Summary(
            must={p: frozenset(ms) for p, ms in must.items()},
            may={p: frozenset(ms) for p, ms in may.items()},
            escapes=frozenset(escapes),
        )

    # -- stats ---------------------------------------------------------------
    def cfg_stats(self) -> dict:
        functions = len(self._cfgs)
        blocks = sum(len(c.blocks) for c in self._cfgs.values())
        edges = sum(c.num_edges for c in self._cfgs.values())
        exc_edges = sum(c.num_exc_edges for c in self._cfgs.values())
        return {
            "functions": functions,
            "blocks": blocks,
            "edges": edges,
            "exc_edges": exc_edges,
        }


def _flow_cache(project) -> _FlowCache:
    cache = getattr(project, "_flow_cache", None)
    if cache is None:
        cache = _FlowCache(project)
        project._flow_cache = cache
    return cache


def _compute_all(project) -> list[Finding]:
    cache = _flow_cache(project)
    if cache.findings is not None:
        return cache.findings
    findings: list[Finding] = []
    for _name, analysis in sorted(project.modules.items()):
        for node in analysis._functions_by_scope:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            checker = _FunctionChecker(cache, analysis, node)
            findings.extend(checker.check())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    cache.findings = findings
    return findings


def check_typestate(project, rules: tuple[str, ...] = TYPESTATE_RULES) -> list[Finding]:
    """Run the flow-sensitive lifecycle rules; filter to ``rules``."""
    return [f for f in _compute_all(project) if f.rule in rules]


def flow_stats(project) -> dict:
    """CFG size statistics for ``repro lint --stats`` (runs the analysis
    first so every reachable function's CFG is counted)."""
    _compute_all(project)
    return _flow_cache(project).cfg_stats()


# -- shared helpers -----------------------------------------------------------

def _calls_within(instr: ast.AST) -> list[ast.Call]:
    """Calls inside one instruction, excluding nested function bodies."""
    out: list[ast.Call] = []
    stack = [instr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    out.reverse()
    return out


def _escaping_names(instr: ast.AST) -> set[str]:
    """Names escaping via return/yield/attribute-store in one instruction."""
    values: list[ast.AST] = []
    if isinstance(instr, ast.Return) and instr.value is not None:
        values.append(instr.value)
    for sub in ast.walk(instr):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
            values.append(sub.value)
    if isinstance(instr, ast.Assign) and any(
        isinstance(t, (ast.Attribute, ast.Subscript)) for t in instr.targets
    ):
        values.append(instr.value)
    names: set[str] = set()
    for value in values:
        names |= _value_names(value)
    return names


def _value_names(expr: ast.AST) -> set[str]:
    """Names the caller can obtain from ``expr`` as a *value* — not
    names merely consumed by it (``r.count()`` does not escape ``r``;
    ``r``, ``(r, x)``, ``a if c else r`` all do)."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        out: set[str] = set()
        for elt in expr.elts:
            out |= _value_names(elt)
        return out
    if isinstance(expr, ast.Dict):
        out = set()
        for v in expr.values:
            out |= _value_names(v)
        return out
    if isinstance(expr, ast.IfExp):
        return _value_names(expr.body) | _value_names(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        out = set()
        for v in expr.values:
            out |= _value_names(v)
        return out
    if isinstance(expr, (ast.Starred, ast.Await)):
        return _value_names(expr.value)
    if isinstance(expr, ast.NamedExpr):
        return _value_names(expr.value)
    return set()


def _self_offset(func_node: ast.AST, call: ast.Call) -> int:
    """1 when the callee's first parameter is bound by the receiver."""
    args = getattr(func_node, "args", None)
    if args is None:
        return 0
    params = list(args.posonlyargs) + list(args.args)
    if params and params[0].arg in ("self", "cls") and isinstance(
        call.func, ast.Attribute
    ):
        return 1
    return 0


def _tracked_args(call: ast.Call, resolved, offset: int):
    """Yield (param_name | None, arg_var_key | None) for each argument
    that is a bare name (the only things the typestate tracks)."""
    params: list[str] = []
    if resolved is not None:
        node = resolved[1]
        args = getattr(node, "args", None)
        if args is not None:
            params = [a.arg for a in list(args.posonlyargs) + list(args.args)]
            params = params[offset:]
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            continue
        key = _var_key(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
        if key is None:
            continue
        name = params[i] if i < len(params) else None
        yield (name, key)
    for kw in call.keywords:
        if kw.arg is None:
            continue
        key = _var_key(kw.value) if isinstance(
            kw.value, (ast.Name, ast.Attribute)
        ) else None
        if key is None:
            continue
        name = kw.arg if kw.arg in params else None
        yield (name, key)
