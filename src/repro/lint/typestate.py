"""Flow-sensitive persist/cache leak rule (RES001).

Tracks every RDD variable through its function's CFG on the flow engine
(`repro.lint.dataflow`): *live* → *persisted* (``persist()``/
``cache()``) → *unpersisted* (``unpersist()``).  A variable's abstract
value is the *set* of (state, site) facts over all paths reaching a
program point; the join is set union.  RES001 is a may-analysis over
the CFG's normal exit: it fires when a *persisted* fact survives there
for an RDD that never escaped the function (returned, yielded, stored
into an attribute, read by a nested def, or handed to a call no summary
accounts for).  ``try/finally`` releases are modelled by the CFG's
cleanup duplication, so they never fire.

Interprocedural layer: a call into a same-project function applies the
callee's `Summary` — which methods it surely/possibly applies to each
parameter, and whether the parameter escapes — so a helper that
unpersists its argument discharges RES001 at the call site.  Each
finding carries the persist site as a related location.

Use after stop or unpersist is the engine's to refuse at run time
(DESIGN.md §8.5), not this module's.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field

from .cfg import ExceptBind, ForBind
from .closures import _loads_in, _target_names, dotted_name
from .dataflow import (
    FactAnalysis,
    FunctionPass,
    calls_within,
    explicit_arguments,
    parameters,
)
from .findings import Finding, Reporter

#: method -> state it moves an RDD to.  A release is assumed done when
#: its instruction raises mid-flight; an acquire is not.
RELEASE = {"unpersist": "unpersisted"}
ACQUIRE = {"persist": "persisted", "cache": "persisted"}
TRANSITIONS = {**RELEASE, **ACQUIRE}


@dataclass(eq=True)
class TState:
    """Lattice value: per-variable sets of (state, transition line)
    facts — keyed by `dotted_name` (``r``, ``self.r``) — plus the
    escaped-name set."""

    vars: dict = field(default_factory=dict)       # key -> frozenset[fact]
    escaped: frozenset = frozenset()


# -- interprocedural summaries ------------------------------------------------

#: pseudo-method of a `Summary`: the parameter escapes the callee
ESCAPES = "<escapes>"


@dataclass(frozen=True)
class Summary:
    """What a callee does to its parameters: the (parameter, method)
    pairs it applies on every normally-returning path, and on some."""

    must: frozenset = frozenset()
    may: frozenset = frozenset()

    def methods(self, param: str) -> set[str]:
        return {m for p, m in self.may if p == param}


# -- the lifecycle pass -------------------------------------------------------

class Lifecycle(FunctionPass[TState]):
    """RDD persistence over one function: the lattice, the transfer
    function, the summary extraction, and the leak check."""

    NO_EFFECT = Summary()

    # -- lattice --------------------------------------------------------------
    def initial_state(self) -> TState:
        # Names read by nested defs/lambdas escape this function's
        # flow-sensitive view from the start.
        return TState(escaped=frozenset(
            name.id
            for stmt in self.func.body for sub in ast.walk(stmt)
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda))
            for name in _loads_in(sub)
        ))

    def join(self, a: TState, b: TState) -> TState:
        vars_out = dict(a.vars)
        for key, entries in b.vars.items():
            vars_out[key] = vars_out.get(key, frozenset()) | entries
        return TState(vars=vars_out, escaped=a.escaped | b.escaped)

    def transfer(self, state: TState, instr) -> TState:
        return self.apply(state, instr, exceptional=False)

    def exc_state(self, state: TState, instr) -> TState:
        return self.apply(state, instr, exceptional=True)

    # -- transfer -------------------------------------------------------------
    def apply(self, state: TState, instr, exceptional: bool) -> TState:
        out = TState(vars=dict(state.vars), escaped=state.escaped)
        if isinstance(instr, ForBind):
            for name in _target_names(instr.target):
                out.vars.pop(name, None)
        elif isinstance(instr, ExceptBind):
            out.vars.pop(instr.name, None)
        elif isinstance(instr, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            out.vars.pop(instr.name, None)
        elif isinstance(instr, ast.AST):
            for call in calls_within(instr):
                self._apply_call(out, call, exceptional)
            tracked = _escaping_names(instr, local_aliases=True) & out.vars.keys()
            out.escaped = out.escaped | tracked
            if not exceptional:
                self._apply_binding(out, instr)
        return out

    def _fresh_entries(self, value: ast.AST, line: int) -> frozenset | None:
        """Facts for a binding from an RDD-returning call."""
        if (isinstance(value, ast.Call)
                and self.analysis.expr_type(value, self.scope) == "RDD"):
            return frozenset({("live", line)})
        return None

    def _resolve(self, call: ast.Call):
        """The call's callee and summary (None and no-effect when it
        does not resolve), and a (variable key, parameter it binds |
        None) pair per name-chain argument."""
        callee = self.callee(call)
        summary = self.callee_summary(callee) if callee else self.NO_EFFECT
        passed = [
            (key, callee.param_of(arg) if callee else None)
            for arg in explicit_arguments(call)
            if (key := dotted_name(arg)) is not None
        ]
        return callee, summary, passed

    def _apply_call(self, out: TState, call: ast.Call, exceptional: bool) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in TRANSITIONS:
            key = dotted_name(func.value)
            if key is not None and (
                key in out.vars
                or self.analysis.expr_type(func.value, self.scope) == "RDD"
            ):
                if func.attr in RELEASE or not exceptional:
                    out.vars[key] = frozenset(
                        {(TRANSITIONS[func.attr], call.lineno)}
                    )
                return
        # Same-project callee: apply its summary to the tracked
        # arguments; an argument no summary accounts for escapes.
        _callee, summary, passed = self._resolve(call)
        for key, param in passed:
            if key not in out.vars:
                continue
            if param is None or (param, ESCAPES) in summary.may:
                out.escaped = out.escaped | {key}
            entries = out.vars[key]
            for m in sorted(summary.methods(param)):
                new_state = RELEASE.get(m) or (
                    None if exceptional else ACQUIRE.get(m)
                )
                if new_state is None:
                    continue
                transitioned = frozenset({(new_state, call.lineno)})
                if (param, m) in summary.must:
                    entries = transitioned
                else:
                    entries = entries | transitioned
            out.vars[key] = entries

    def _apply_binding(self, out: TState, instr: ast.AST) -> None:
        if isinstance(instr, ast.Delete):
            for t in instr.targets:
                out.vars.pop(dotted_name(t), None)
            return
        if isinstance(instr, ast.Assign):
            targets, value = instr.targets, instr.value
        elif isinstance(instr, ast.AnnAssign) and instr.value is not None:
            targets, value = [instr.target], instr.value
        else:
            return
        names = [key for key in map(dotted_name, targets) if key]
        if not names:
            return
        entries = self._binding_entries(out, value)
        for name in names:
            if entries is not None:
                out.vars[name] = entries
            else:
                out.vars.pop(name, None)
        # Attribute-rooted targets outlive the function; RES001 must
        # not claim ownership of them.
        out.escaped = out.escaped | {n for n in names if "." in n}

    def _binding_entries(self, state: TState, value: ast.AST) -> frozenset | None:
        key = dotted_name(value)
        if key is not None:
            return state.vars.get(key)    # alias copies the facts
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            recv_key = dotted_name(value.func.value)
            if recv_key is not None and value.func.attr in TRANSITIONS:
                return state.vars.get(recv_key)   # chain returns receiver
        return self._fresh_entries(value, getattr(value, "lineno", 0))

    # -- summary extraction ---------------------------------------------------
    @classmethod
    def summarize(cls, flow, analysis, func) -> Summary:
        """Solve "methods applied so far" per parameter: the
        intersection-join at the normal exit is *must*, the union over
        every reached instruction *may*."""
        params = set(parameters(func))
        if not params:
            return cls.NO_EFFECT
        self = cls(flow, analysis, func)
        facts = functools.cache(
            lambda instr: frozenset(self._param_facts(instr, params))
        )
        walk = self.walk(FactAnalysis(facts, must=True))
        return Summary(
            must=frozenset().union(*walk.normal_exit),
            may=frozenset().union(*(facts(instr) for _, instr in walk.steps)),
        )

    def _param_facts(self, instr, params: set[str]) -> set[tuple[str, str]]:
        """The (parameter, method) pairs one instruction applies —
        directly, or through a resolved callee's summary."""
        facts: set[tuple[str, str]] = set()
        if not isinstance(instr, ast.AST):
            return facts
        for call in calls_within(instr):
            if isinstance(call.func, ast.Attribute):
                key = dotted_name(call.func.value)
                if key in params:
                    facts.add((key, call.func.attr))
                    continue
            _callee, summary, passed = self._resolve(call)
            for key, param in passed:
                if key not in params:
                    continue
                if param is None:
                    facts.add((key, ESCAPES))
                facts.update((key, m) for m in summary.methods(param))
        facts.update(
            (name, ESCAPES) for name in _escaping_names(instr) & params
        )
        return facts

    # -- the check ------------------------------------------------------------
    def check(self) -> None:
        for st in self.walk().normal_exit:
            for key, entries in sorted(st.vars.items()):
                if "." in key or key in st.escaped:
                    continue
                for state, line in sorted(entries):
                    if state == "persisted":
                        self.emit(
                            "RES001", line, 0,
                            f"'{key}' is persisted/cached but some exit "
                            "path leaves it resident with no unpersist()",
                            [(line, "persisted here")],
                        )


def check_typestate(project) -> list[Finding]:
    """RES001 over every function that can reach an acquire."""
    reporter = Reporter()
    for analysis, func in _acquiring(project):
        Lifecycle(project.flow, analysis, func, reporter).check()
    return reporter.findings


def _acquiring(project) -> list:
    """The ``(analysis, func)`` pairs of ``project.flow.functions()``
    that call persist()/cache() themselves or through resolved callees —
    the only chain a `Summary` carries an acquire along, so no other
    walk can end with a persisted fact."""
    functions = list(project.flow.functions())
    callers: dict[ast.AST, list[ast.AST]] = {}
    stack = []
    for analysis, func in functions:
        scope = analysis.scope_of(func)
        for call in (c for stmt in func.body for c in calls_within(stmt)):
            if isinstance(call.func, ast.Attribute) and call.func.attr in ACQUIRE:
                stack.append(func)
            hit = project.resolve_call(analysis, scope, call)
            if hit is not None:
                callers.setdefault(hit[1], []).append(func)
    reached = set(stack)
    while stack:
        for caller in callers.get(stack.pop(), ()):
            if caller not in reached:
                reached.add(caller)
                stack.append(caller)
    return [(a, f) for a, f in functions if f in reached]


# -- what escapes -------------------------------------------------------------

def _escaping_names(instr: ast.AST, local_aliases: bool = False) -> set[str]:
    """Names whose value leaves through one instruction: returned,
    yielded, or stored into an attribute/subscript.  ``local_aliases``
    adds what stops being trackable *inside* the function — a value
    packed into a container literal or unpacked from one."""
    values: list[ast.AST] = []
    if isinstance(instr, ast.Return) and instr.value is not None:
        values.append(instr.value)
    for sub in ast.walk(instr):
        if isinstance(sub, (ast.Yield, ast.YieldFrom)) and sub.value is not None:
            values.append(sub.value)
    if isinstance(instr, ast.Assign):
        stores = (ast.Attribute, ast.Subscript)
        if local_aliases:
            stores += (ast.Tuple, ast.List)
        if any(isinstance(t, stores) for t in instr.targets) or (
            local_aliases
            and isinstance(instr.value, (ast.Tuple, ast.List, ast.Dict, ast.Set))
        ):
            values.append(instr.value)
    return set().union(*map(_value_names, values))


def _value_names(expr: ast.AST) -> set[str]:
    """Names the caller can obtain from ``expr`` as a *value* — not
    names merely consumed by it (``r.count()`` does not escape ``r``;
    ``r``, ``(r, x)``, ``a if c else r`` all do)."""
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        parts = expr.elts
    elif isinstance(expr, (ast.Dict, ast.BoolOp)):
        parts = expr.values
    elif isinstance(expr, ast.IfExp):
        parts = [expr.body, expr.orelse]
    elif isinstance(expr, (ast.Starred, ast.Await, ast.NamedExpr)):
        parts = [expr.value]
    else:
        return set()
    return set().union(*map(_value_names, parts))
