"""The flow engine: the forward fixpoint solver over `repro.lint.cfg`
graphs, and the per-project `FlowContext` every flow-sensitive rule
module runs on.

An analysis supplies a join-semilattice and a transfer function; the
solver iterates a worklist until block in-states stabilise.  The split
between normal and exceptional out-states mirrors the CFG's two edge
kinds: the state carried along an exceptional edge is the join of the
analysis's `exc_state` contributions of the block's may-raise
instructions — typically the state *before* the raising instruction
(the exception interrupts it), letting analyses model "the release
happened" vs "the acquire never did" per instruction.

Reachability belongs to the solver, not to the lattice.  A block no
edge has delivered a state to is simply absent from the result, an
exceptional edge out of a block none of whose instructions may raise
delivers nothing, and an analysis is only ever handed states it (or
`initial_state`) produced — there is no "unreached" value for a
transfer function to recognise, return, or get wrong.

Termination: the solver requires a finite-height lattice (joins must
stop producing new values).  `MAX_ITERATIONS` is a hard backstop for
buggy analyses; hitting it raises `FixpointDiverged` rather than
silently under-approximating.

`FlowContext` is what a domain (`repro.lint.typestate`,
`repro.lint.sizeclass`) shares with every other: the CFG cache, call
resolution with one argument binding, the recursion-guarded summary
memo, and the solved walk over a function's instructions.  A domain is
a `FunctionPass` subclass supplying only its lattice, its transfer
function, how it summarises a callee, and its checks.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generic, Iterable, TypeVar

from .cfg import CFG, Block, Instr, build_cfg, may_raise
from .findings import Reporter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .callgraph import Project
    from .closures import ModuleAnalysis

S = TypeVar("S")

#: Hard ceiling on worklist pops — generous for any real function
#: (a function with B blocks and lattice height H needs ~B*H pops).
MAX_ITERATIONS = 100_000


class FixpointDiverged(RuntimeError):
    """The fixpoint iteration failed to stabilise (non-monotone transfer
    or an infinite-height lattice)."""


class ForwardAnalysis(Generic[S]):
    """Interface a forward dataflow analysis implements."""

    def initial_state(self) -> S:
        """State at the function entry."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        """Least upper bound of two states (must be commutative,
        associative, idempotent)."""
        raise NotImplementedError

    def transfer(self, state: S, instr: Instr) -> S:
        """State after executing one instruction normally."""
        raise NotImplementedError

    def exc_state(self, state: S, instr: Instr) -> S:
        """State carried along the exceptional edge when ``instr``
        raises, given the state *before* it.  Default: that state."""
        return state


def _flow_block(
    analysis: ForwardAnalysis[S], block: Block, state: S
) -> tuple[S, list[S]]:
    """(normal out-state, the state each may-raise instruction would
    send along the exceptional edges) of one block."""
    raised = []
    for instr in block.instrs:
        if may_raise(instr):
            raised.append(analysis.exc_state(state, instr))
        state = analysis.transfer(state, instr)
    return state, raised


def solve(cfg: CFG, analysis: ForwardAnalysis[S]) -> dict[int, S]:
    """Run the analysis to fixpoint; returns the stabilised in-state
    (the join over incoming edges) of every *reached* block."""
    in_states: dict[int, S] = {cfg.entry: analysis.initial_state()}
    worklist: list[int] = [cfg.entry]
    queued: set[int] = {cfg.entry}
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise FixpointDiverged(
                f"dataflow fixpoint exceeded {MAX_ITERATIONS} iterations "
                f"({len(cfg.blocks)} blocks)"
            )
        bid = worklist.pop()
        queued.discard(bid)
        block = cfg.blocks[bid]
        out, raised = _flow_block(analysis, block, in_states[bid])
        edges = [(s, out) for s in block.succs]
        if raised:
            exc = functools.reduce(analysis.join, raised)
            edges += [(s, exc) for s in block.exc_succs]
        for succ, carried in edges:
            if succ in in_states:
                old = in_states[succ]
                new = analysis.join(old, carried)
                if new == old:
                    continue
            else:
                new = carried
            in_states[succ] = new
            if succ not in queued:
                queued.add(succ)
                worklist.append(succ)
    return in_states


def assigned_names(instr: Instr) -> Iterable[str]:
    """Names a plain assignment binds (`FactAnalysis`'s default facts)."""
    if isinstance(instr, ast.Assign):
        return [t.id for t in instr.targets if isinstance(t, ast.Name)]
    return ()


class FactAnalysis(ForwardAnalysis[frozenset]):
    """The facts ``gen`` produced along the way, as a set: joined by
    union (facts on *some* path, e.g. "names assigned so far"), or with
    ``must`` by intersection (facts on *every* path)."""

    def __init__(
        self,
        gen: Callable[[Instr], Iterable[Any]] = assigned_names,
        must: bool = False,
    ):
        self.gen = gen
        self.must = must

    def initial_state(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b if self.must else a | b

    def transfer(self, state: frozenset, instr: Instr) -> frozenset:
        return state | frozenset(self.gen(instr))


# -- the per-project flow context ---------------------------------------------

def parameters(func: ast.AST) -> list[str]:
    """The parameter names a call can bind an argument to; the last
    ``len(func.args.kwonlyargs)`` of them by keyword only."""
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def explicit_arguments(call: ast.Call) -> list[ast.AST]:
    """The argument expressions a binding can name: positionals other
    than ``*rest``, and keywords other than ``**rest``."""
    return [a for a in call.args if not isinstance(a, ast.Starred)] + [
        kw.value for kw in call.keywords if kw.arg is not None
    ]


@dataclass
class Callee:
    """A call resolved to a same-project function."""

    analysis: "ModuleAnalysis"          # the defining module
    func: ast.AST                       # FunctionDef | AsyncFunctionDef
    bound: dict[str, ast.AST]           # parameter -> argument expression

    def param_of(self, arg: ast.AST) -> str | None:
        """The parameter ``arg`` (an expression of the call) binds."""
        return next((p for p, a in self.bound.items() if a is arg), None)


def _bind(func: ast.AST, call: ast.Call) -> dict[str, ast.AST]:
    params = parameters(func)
    if params and params[0] in ("self", "cls") and isinstance(
        call.func, ast.Attribute
    ):
        params = params[1:]             # bound by the receiver
    positional = params[:len(params) - len(func.args.kwonlyargs)]
    bound = {
        param: arg for param, arg in zip(positional, call.args)
        if not isinstance(arg, ast.Starred)
    }
    bound.update(
        (kw.arg, kw.value) for kw in call.keywords if kw.arg in params
    )
    return bound


@dataclass
class Walk(Generic[S]):
    """A solved function: ``(state before, instruction)`` per reached
    instruction in block order, and the states at the two exits (each a
    zero-or-one element tuple — empty when that exit is unreachable)."""

    steps: list[tuple[S, Instr]]
    normal_exit: tuple[S, ...]
    raise_exit: tuple[S, ...]


class FlowContext:
    """What the flow-sensitive domains share for one `Project`."""

    def __init__(self, project: "Project"):
        self.project = project
        self._cfgs: dict[ast.AST, CFG] = {}
        self._summaries: dict[tuple[type, ast.AST], Any] = {}
        self._in_progress: set[tuple[type, ast.AST]] = set()
        #: per-domain statistics for ``repro lint --stats``
        self.stats: dict[str, dict] = {}

    def functions(self) -> Iterable[tuple["ModuleAnalysis", ast.AST]]:
        """Every ``def`` of the project, modules in name order."""
        for _name, analysis in sorted(self.project.modules.items()):
            for func in analysis._functions_by_scope:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield analysis, func

    def cfg(self, func: ast.AST) -> CFG:
        if func not in self._cfgs:
            self._cfgs[func] = build_cfg(func)
        return self._cfgs[func]

    def callee(
        self, analysis: "ModuleAnalysis", scope, call: ast.Call
    ) -> Callee | None:
        """The same-project function a call positively targets, with
        its arguments bound to parameter names."""
        hit = self.project.resolve_call(analysis, scope, call)
        if hit is None or not isinstance(
            hit[1], (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        module, func = hit
        return Callee(self.project.modules[module], func, _bind(func, call))

    def summary(self, domain: type["FunctionPass"], callee: Callee) -> Any:
        """``domain``'s summary of the callee, computed once; a callee
        met again while it is being summarised (recursion) has the
        domain's no-effect summary."""
        key = (domain, callee.func)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return domain.NO_EFFECT
        self._in_progress.add(key)
        try:
            summary = domain.summarize(self, callee.analysis, callee.func)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary

    def walk(self, func: ast.AST, analysis: ForwardAnalysis[S]) -> Walk[S]:
        cfg = self.cfg(func)
        reached = solve(cfg, analysis)
        steps = []
        for bid in sorted(reached):
            state = reached[bid]
            for instr in cfg.blocks[bid].instrs:
                steps.append((state, instr))
                state = analysis.transfer(state, instr)

        def at(bid: int) -> tuple[S, ...]:
            return (reached[bid],) if bid in reached else ()

        return Walk(steps, at(cfg.exit), at(cfg.raise_exit))

    def cfg_stats(self) -> dict:
        """Size of the CFG corpus built so far."""
        cfgs = self._cfgs.values()
        return {
            "functions": len(cfgs),
            "blocks": sum(len(c.blocks) for c in cfgs),
            "edges": sum(c.num_edges for c in cfgs),
            "exc_edges": sum(c.num_exc_edges for c in cfgs),
        }


class FunctionPass(ForwardAnalysis[S]):
    """One domain's analysis of one function: a `ForwardAnalysis` that
    knows which function of which module it runs on."""

    #: summary of a callee that is still being summarised
    NO_EFFECT: Any = None

    def __init__(self, flow: FlowContext, analysis: "ModuleAnalysis",
                 func: ast.AST, reporter: Reporter | None = None):
        self.flow = flow
        self.analysis = analysis
        self.func = func
        self.scope = analysis.scope_of(func)
        self.reporter = reporter

    @classmethod
    def summarize(cls, flow: FlowContext, analysis: "ModuleAnalysis",
                  func: ast.AST) -> Any:
        """What a caller needs to know about ``func``."""
        raise NotImplementedError

    def callee(self, call: ast.Call) -> Callee | None:
        return self.flow.callee(self.analysis, self.scope, call)

    def callee_summary(self, callee: Callee) -> Any:
        return self.flow.summary(type(self), callee)

    def walk(self, analysis: ForwardAnalysis | None = None) -> Walk:
        """Solve this function (under ``analysis``, default this pass)."""
        try:
            return self.flow.walk(self.func, analysis or self)
        except FixpointDiverged as exc:
            raise FixpointDiverged(
                f"{self.analysis.path}:{self.scope.name}: {exc}"
            ) from None

    def emit(self, rule: str, line: int, col: int, message: str,
             related: Iterable[tuple[int, str]] = ()) -> None:
        self.reporter.report(
            rule, self.analysis.path, line, col, message,
            symbol=self.scope.name, related=related,
        )


def calls_within(instr: ast.AST) -> list[ast.Call]:
    """Calls inside one instruction, excluding nested function bodies
    (they run elsewhere)."""
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
