"""Flow-sensitive lifecycle rules over engine objects (LIF*/RES*).

Tracks abstract lifecycle states of driver-side engine objects through
each function's CFG on the flow engine (`repro.lint.dataflow`):

- ``SparkContext``: *open* → *stopped* (``stop()`` or leaving a ``with``
  block);
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

Interprocedural layer: a call into a same-project function applies the
callee's `Summary` — which methods it surely/possibly applies to each
parameter, and whether the parameter escapes — so ``shutdown(sc)``
followed by ``sc.parallelize(...)`` is a use-after-stop, and a helper
that unpersists its argument discharges RES001 at the call site.  Each
finding carries the acquire/transition site as a related location.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field

from .cfg import ExceptBind, ForBind, WithEnter, WithExit
from .closures import RDD_ACTIONS, _loads_in, _target_names, dotted_name
from .dataflow import (
    FactAnalysis,
    FunctionPass,
    calls_within,
    explicit_arguments,
    parameters,
)
from .findings import Finding, Reporter

# -- lifecycle tables ---------------------------------------------------------

#: type tag (from closures' inference) -> resource kind
KIND_OF_TAG = {
    "SparkContext": "context",
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
        "parallelize", "text_file", "broadcast", "accumulator", "run_job",
    },
    "rdd": RDD_ACTIONS,
    "broadcast": set(),     # uses are ``.value`` reads, handled separately
}

#: kind -> (LIF rule id, what a definitely-dead object is called, the
#: past-tense transition verb of the related locations)
USE_RULE = {
    "context": ("LIF001", "a definitely-stopped SparkContext", "stopped"),
    "rdd": ("LIF003", "an unpersisted RDD", "unpersisted"),
    "broadcast": ("LIF003", "an unpersisted Broadcast", "unpersisted"),
}


# -- abstract state -----------------------------------------------------------

@dataclass(eq=True)
class TState:
    """Lattice value: per-variable sets of (kind, state, transition
    line) facts — keyed by `dotted_name` (``sc``, ``self.sc``) — plus
    the escaped-name set."""

    vars: dict = field(default_factory=dict)       # key -> frozenset[fact]
    escaped: frozenset = frozenset()


def _kind_in(entries) -> str | None:
    """The one resource kind every fact agrees on, else None."""
    kinds = {k for (k, _s, _line) in entries}
    return kinds.pop() if len(kinds) == 1 else None


def _definitely(entries: frozenset, kind: str) -> bool:
    """True when every fact says the object is dead for ``kind``."""
    dead = DEAD_STATES.get(kind, set())
    return bool(entries) and all(
        k == kind and s in dead for (k, s, _line) in entries
    )


def _sites(entries: frozenset, what: str) -> list[tuple[int, str]]:
    return [(line, what) for line in sorted({line for (_k, _s, line) in entries})]


def _with_target(item: ast.withitem) -> str | None:
    target = item.optional_vars
    return target.id if isinstance(target, ast.Name) else None


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
    """Typestate over one function: the lattice, the transfer function,
    the summary extraction, and the checks."""

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

    # -- kind resolution ------------------------------------------------------
    def _kind_of(self, state: TState, key: str, expr: ast.AST) -> str | None:
        return _kind_in(state.vars.get(key, ())) or KIND_OF_TAG.get(
            self.analysis.expr_type(expr, self.scope)
        )

    def _fresh_entries(self, value: ast.AST, line: int) -> frozenset | None:
        """Entries for a binding from a constructor/factory call."""
        if not isinstance(value, ast.Call):
            return None
        kind = KIND_OF_TAG.get(self.analysis.expr_type(value, self.scope))
        if kind is None:
            return None
        return frozenset({(kind, INIT_STATE[kind], line)})

    # -- transfer -------------------------------------------------------------
    def apply(self, state: TState, instr, exceptional: bool) -> TState:
        out = TState(vars=dict(state.vars), escaped=state.escaped)
        if isinstance(instr, ForBind):
            for name in _target_names(instr.target):
                out.vars.pop(name, None)
        elif isinstance(instr, ExceptBind):
            out.vars.pop(instr.name, None)
        elif isinstance(instr, WithEnter):
            self._with_enter(out, instr)
        elif isinstance(instr, WithExit):
            self._with_exit(out, instr)
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

    def _with_enter(self, out: TState, instr: WithEnter) -> None:
        item = instr.item
        ctx_key = dotted_name(item.context_expr)
        target = _with_target(item)
        fresh = self._fresh_entries(item.context_expr, instr.lineno)
        if fresh is not None:
            if target or ctx_key:
                out.vars[target or ctx_key] = fresh
        elif ctx_key is not None:
            kind = self._kind_of(out, ctx_key, item.context_expr)
            if kind in WITH_ENTER_STATE:
                out.vars[ctx_key] = frozenset(
                    {(kind, WITH_ENTER_STATE[kind], instr.lineno)}
                )
            if target and ctx_key in out.vars:
                out.vars[target] = out.vars[ctx_key]

    def _with_exit(self, out: TState, instr: WithExit) -> None:
        for item in instr.items:
            for key in (_with_target(item), dotted_name(item.context_expr)):
                kind = _kind_in(out.vars.get(key, ()))
                if kind in WITH_EXIT_STATE:
                    out.vars[key] = frozenset(
                        {(kind, WITH_EXIT_STATE[kind], instr.lineno)}
                    )

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
        if isinstance(call.func, ast.Attribute):
            recv_key = dotted_name(call.func.value)
            if recv_key is not None:
                method = call.func.attr
                kind = self._kind_of(out, recv_key, call.func.value)
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
        # Same-project callee: apply its summary to the tracked
        # arguments; an argument no summary accounts for escapes.
        _callee, summary, passed = self._resolve(call)
        for key, param in passed:
            if key not in out.vars:
                continue
            if param is None or (param, ESCAPES) in summary.may:
                out.escaped = out.escaped | {key}
            entries = out.vars[key]
            kind = _kind_in(entries)
            for m in sorted(summary.methods(param)):
                new_state = RELEASE.get(kind, {}).get(m) or (
                    None if exceptional else ACQUIRE.get(kind, {}).get(m)
                )
                if new_state is None:
                    continue
                transitioned = frozenset({(kind, new_state, call.lineno)})
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
        # Attribute-rooted targets outlive the function; the RES rules
        # must not claim ownership of them (LIF ordering still applies).
        out.escaped = out.escaped | {n for n in names if "." in n}

    def _binding_entries(self, state: TState, value: ast.AST) -> frozenset | None:
        key = dotted_name(value)
        if key is not None:
            return state.vars.get(key)    # alias copies the facts
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            recv_key = dotted_name(value.func.value)
            if recv_key is not None and (
                value.func.attr in ("persist", "cache", "unpersist")
            ):
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

    # -- the checks -----------------------------------------------------------
    def check(self) -> None:
        walk = self.walk()
        for state, instr in walk.steps:
            if isinstance(instr, ast.AST):
                self._check_instr(state, instr)
        for state in walk.normal_exit:
            self._check_normal_exit(state)
        for state in walk.raise_exit:
            self._check_raise_exit(state)

    def _check_instr(self, st: TState, instr: ast.AST) -> None:
        for call in calls_within(instr):
            if isinstance(call.func, ast.Attribute):
                recv_key = dotted_name(call.func.value)
                entries = st.vars.get(recv_key, frozenset())
                kind = _kind_in(entries)
                if (
                    call.func.attr in USES.get(kind, ())
                    and _definitely(entries, kind)
                ):
                    self._emit_use(kind, recv_key, call, entries,
                                   f".{call.func.attr}() called on it")
                    continue
            self._check_summary_use(st, call)
        # Broadcast uses are ``.value`` reads, not method calls.
        for sub in ast.walk(instr):
            if (
                isinstance(sub, ast.Attribute)
                and sub.attr == "value"
                and isinstance(sub.ctx, ast.Load)
            ):
                key = dotted_name(sub.value)
                entries = st.vars.get(key, frozenset())
                if _definitely(entries, "broadcast"):
                    self.emit(
                        "LIF003", sub.lineno, sub.col_offset,
                        f"'{key}'.value read after unpersist(); the broadcast "
                        "payload is released on every executor",
                        _sites(entries, "unpersisted here"),
                    )

    def _check_summary_use(self, st: TState, call: ast.Call) -> None:
        callee, summary, passed = self._resolve(call)
        for key, param in passed:
            entries = st.vars.get(key, frozenset())
            kind = _kind_in(entries)
            if not _definitely(entries, kind):
                continue
            used = summary.methods(param) & USES.get(kind, set())
            if used:
                self._emit_use(
                    kind, key, call, entries,
                    f"helper '{callee.func.name}' calls .{min(used)}() on it",
                )

    def _emit_use(self, kind: str, var: str, call: ast.Call,
                  entries: frozenset, where: str) -> None:
        rule, noun, verb = USE_RULE[kind]
        self.emit(
            rule, call.lineno, call.col_offset,
            f"'{var}' is {noun} on every path here, but {where}",
            _sites(entries, f"{verb} here"),
        )

    def _owned(self, st: TState):
        """(variable, fact) pairs this function is responsible for."""
        for key, entries in sorted(st.vars.items()):
            if "." not in key and key not in st.escaped:
                for fact in sorted(entries):
                    yield key, fact

    def _check_normal_exit(self, st: TState) -> None:
        for key, (kind, state, line) in self._owned(st):
            if (kind, state) == ("rdd", "persisted"):
                self.emit(
                    "RES001", line, 0,
                    f"'{key}' is persisted/cached but some exit path leaves "
                    "it resident with no unpersist()",
                    [(line, "persisted here")],
                )

    def _check_raise_exit(self, st: TState) -> None:
        for key, (kind, state, line) in self._owned(st):
            if (kind, state) == ("lock", "held"):
                self.emit(
                    "RES002", line, 0,
                    f"'{key}' is acquired but an exception path escapes "
                    "without release(); use try/finally or with",
                    [(line, "acquired here")],
                )
            elif (kind, state) == ("context", "open"):
                self.emit(
                    "RES002", line, 0,
                    f"'{key}' (SparkContext) is left running on an "
                    "exception path; stop it in try/finally or use with",
                    [(line, "created here")],
                )


def check_typestate(project) -> list[Finding]:
    """LIF001/LIF003/RES001/RES002 over every function of the project."""
    reporter = Reporter()
    for analysis, func in project.flow.functions():
        Lifecycle(project.flow, analysis, func, reporter).check()
    return reporter.findings


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
