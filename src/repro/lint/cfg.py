"""Per-function control-flow graphs for the flow-sensitive lint layer.

`build_cfg` lowers one function body (def, async def, or lambda) into
basic blocks of *instructions* connected by normal and exceptional
edges.  An instruction is either a simple ``ast`` statement, a bare
expression hoisted out of a compound statement's header (an ``if``
test, a ``for`` iterable), or one of the synthetic markers below that
make implicit control flow explicit to the dataflow layer:

- `ForBind` — the per-iteration target binding of a ``for`` loop;
- `WithEnter` / `WithExit` — the ``__enter__`` binding and the
  guaranteed ``__exit__`` of a ``with`` block (the exit marker sits on
  every path out of the body: fall-through, early ``return``/``break``,
  and the exception edges);
- `ExceptBind` — the ``except ... as e`` binding at a handler entry.

Construction rules (DESIGN.md §8.6):

- branches (``if``/``match``) fork and re-join; loops get a back edge
  to their head plus the not-taken edge (omitted for a literal
  ``while True``, so must-analyses stay precise across infinite loops);
- walrus assignments (``:=``) are hoisted to synthetic ``Assign``
  instructions ahead of their enclosing instruction, ``match`` case
  guards are emitted at their case's entry, and comprehensions are
  lowered to real loop blocks — a `ForBind` head per generator, the
  element expression as a body instruction, and a back edge — so a
  loop-trip-count analysis (SCL002) sees comprehension iteration
  exactly like ``for`` iteration;
- every function has one normal exit block and one *raise exit* block;
  ``return`` routes to the former, an uncaught ``raise`` (and every
  may-raise instruction's exceptional edge) to the latter;
- abnormal exits (``return``/``break``/``continue``/``raise``/
  exception edges) unwind the enclosing frame stack, *duplicating*
  ``finally`` bodies and ``with``-exit markers along the way — the
  normal and exceptional copies of a ``finally`` stay distinct blocks,
  so a must-analysis never merges the two flows;
- an instruction *may raise* when it contains a call, an ``assert``,
  or a ``raise``; its exceptional edges target every enclosing
  handler entry plus the unwound path to the raise exit.

The graph is purely structural: it knows nothing about types or
resources.  `repro.lint.dataflow` runs fixpoints over it, and
`repro.lint.typestate` and `repro.lint.sizeclass` supply the
semantics.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CFG",
    "Block",
    "ForBind",
    "WithEnter",
    "WithExit",
    "ExceptBind",
    "build_cfg",
    "may_raise",
]


# -- synthetic instructions ---------------------------------------------------

@dataclass(frozen=True)
class ForBind:
    """Per-iteration binding of a ``for`` loop: ``target <- next(iter)``."""

    target: ast.expr
    iter: ast.expr
    lineno: int


@dataclass(frozen=True)
class WithEnter:
    """One ``with`` item entering scope: ``optional_vars <- context_expr``."""

    item: ast.withitem
    lineno: int


@dataclass(frozen=True)
class WithExit:
    """The ``__exit__`` of a ``with`` block — present on *every* path out
    of the body, including the exceptional ones."""

    items: tuple[ast.withitem, ...]
    lineno: int


@dataclass(frozen=True)
class ExceptBind:
    """The ``except ... as name`` binding at a handler entry."""

    name: str | None
    lineno: int


#: Everything a block may hold.
Instr = object


def may_raise(instr: Instr) -> bool:
    """True when the instruction can raise: calls, asserts, raises.

    Synthetic markers never raise on their own (`WithExit` runs
    ``__exit__``, but a raising ``__exit__`` is out of scope for the
    flow rules — treating it as non-raising only loses exception paths
    *after* the release, which is the safe direction).
    """
    if isinstance(instr, (ForBind, WithEnter, WithExit, ExceptBind)):
        return False
    if isinstance(instr, (ast.Raise, ast.Assert)):
        return True
    if isinstance(instr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False        # definition itself; the body runs elsewhere
    if isinstance(instr, ast.AST):
        return any(isinstance(sub, ast.Call) for sub in ast.walk(instr))
    return False


_COMP_NODES = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _collect_lowerable(node: ast.AST, out: list, is_root: bool = False) -> None:
    if not is_root and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    ):
        return              # separate scope: its body is not this CFG's flow
    if isinstance(node, _COMP_NODES):
        out.append(node)
        return              # the builder recurses into it when lowering
    if isinstance(node, ast.NamedExpr):
        out.append(node)
    for child in ast.iter_child_nodes(node):
        _collect_lowerable(child, out)


def _lowerable_parts(instr: ast.AST) -> list[ast.AST]:
    """Walrus bindings and outermost comprehensions inside one
    instruction, in document order.  Nested function/class bodies are
    opaque (their comprehensions run in their own CFGs), and a
    comprehension's own parts are handled by the builder's recursion."""
    if isinstance(
        instr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    ):
        return []
    out: list[ast.AST] = []
    _collect_lowerable(instr, out, is_root=True)
    return out


# -- graph --------------------------------------------------------------------

@dataclass
class Block:
    """One basic block: straight-line instructions, then edges out."""

    bid: int
    instrs: list[Instr] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)       # normal flow
    exc_succs: set[int] = field(default_factory=set)   # exception flow

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block({self.bid}, n={len(self.instrs)}, "
            f"succs={sorted(self.succs)}, exc={sorted(self.exc_succs)})"
        )


@dataclass
class CFG:
    """The control-flow graph of one function."""

    func: ast.AST
    blocks: dict[int, Block]
    entry: int
    exit: int          # normal exit (returns, fall-off-the-end)
    raise_exit: int    # exceptional exit (uncaught raise / may-raise edge)

    @property
    def num_edges(self) -> int:
        return sum(len(b.succs) for b in self.blocks.values())

    @property
    def num_exc_edges(self) -> int:
        return sum(len(b.exc_succs) for b in self.blocks.values())

    def preds(self) -> dict[int, set[int]]:
        """Predecessors over both edge kinds (for worklist seeding)."""
        out: dict[int, set[int]] = {bid: set() for bid in self.blocks}
        for b in self.blocks.values():
            for s in b.succs | b.exc_succs:
                out[s].add(b.bid)
        return out


# -- construction frames ------------------------------------------------------

@dataclass
class _LoopFrame:
    head: int           # continue target
    after: int          # break target


@dataclass
class _WithFrame:
    items: tuple[ast.withitem, ...]
    lineno: int


@dataclass
class _TryFrame:
    """One ``try``: handler entries catch exceptions raised while this
    frame is innermost; the ``finally`` body (if any) runs on every way
    out.  Frames for handler/else bodies keep the finally but drop the
    handlers (their exceptions are not caught by their own ``try``)."""

    handler_entries: tuple[int, ...]
    finally_body: tuple[ast.stmt, ...] | None
    depth: int          # index of this frame in the stack (for unwinding)


class _Builder:
    def __init__(self, func: ast.AST):
        self.func = func
        self.blocks: dict[int, Block] = {}
        self.entry = self._new().bid
        self.exit = self._new().bid
        self.raise_exit = self._new().bid

    # -- plumbing -------------------------------------------------------------
    def _new(self) -> Block:
        b = Block(bid=len(self.blocks))
        self.blocks[b.bid] = b
        return b

    def build(self) -> CFG:
        body: list[ast.stmt]
        if isinstance(self.func, ast.Lambda):
            expr = ast.Expr(value=self.func.body)
            ast.copy_location(expr, self.func.body)
            body = [expr]
        else:
            body = list(getattr(self.func, "body", []))
        end = self._stmts(body, self.blocks[self.entry], ())
        if end is not None:
            end.succs.add(self.exit)
        return CFG(
            func=self.func,
            blocks=self.blocks,
            entry=self.entry,
            exit=self.exit,
            raise_exit=self.raise_exit,
        )

    # -- statement lowering ---------------------------------------------------
    def _stmts(
        self, stmts: list[ast.stmt], cur: Block | None, frames: tuple
    ) -> Block | None:
        """Lower a statement list; returns the fall-through block, or
        None when the tail is unreachable (after return/raise/...)."""
        for stmt in stmts:
            if cur is None:
                break                      # dead code after an exit
            cur = self._stmt(stmt, cur, frames)
        return cur

    def _emit(self, cur: Block, instr: Instr, frames: tuple) -> Block:
        """Append one instruction, first making its implicit control flow
        explicit: walrus bindings are hoisted to synthetic ``Assign``
        instructions and comprehensions are lowered to loop blocks (a
        `ForBind` head per generator, the element as a body instruction,
        and a back edge), so flow analyses see their iteration.  Returns
        the block construction continues in — lowering may move it."""
        if isinstance(instr, ast.AST):
            cur = self._lower_parts(cur, instr, frames)
        cur.instrs.append(instr)
        if may_raise(instr):
            self._add_exception_edges(cur, frames)
        return cur

    # -- expression-level lowering (walrus / comprehensions) ------------------
    def _lower_parts(self, cur: Block, instr: ast.AST, frames: tuple) -> Block:
        for sub in _lowerable_parts(instr):
            if isinstance(sub, ast.NamedExpr):
                bind = ast.Assign(targets=[sub.target], value=sub.value)
                ast.copy_location(bind, sub)
                cur.instrs.append(bind)
                if may_raise(bind):
                    self._add_exception_edges(cur, frames)
            else:
                cur = self._lower_comp(cur, sub, frames)
        return cur

    def _lower_comp(self, cur: Block, comp: ast.AST, frames: tuple) -> Block:
        """One comprehension as explicit loop blocks.  Nested generators
        chain (each head feeds the next); the innermost body holds the
        element expression(s) and the back edge.  The comprehension node
        itself still appears inside its enclosing instruction — analyses
        dedup, and set-join transfer makes the re-visit idempotent."""
        after = self._new()
        first_head: Block | None = None
        for gen in comp.generators:
            cur = self._lower_parts(cur, gen.iter, frames)
            head = self._new()
            cur.succs.add(head.bid)
            head.instrs.append(
                ForBind(gen.target, gen.iter, getattr(comp, "lineno", 0))
            )
            head.succs.add(after.bid)
            if first_head is None:
                first_head = head
            body = self._new()
            head.succs.add(body.bid)
            cur = body
            for cond in gen.ifs:
                cur = self._emit(cur, cond, frames)
        elts = [comp.elt] if not isinstance(comp, ast.DictComp) else \
            [comp.key, comp.value]
        for elt in elts:
            expr = ast.Expr(value=elt)
            ast.copy_location(expr, elt)
            cur = self._emit(cur, expr, frames)
        if first_head is not None:
            cur.succs.add(first_head.bid)
        return after

    def _stmt(self, stmt: ast.stmt, cur: Block, frames: tuple) -> Block | None:
        if isinstance(stmt, ast.Return):
            cur = self._emit(cur, stmt, frames)
            self._unwind_to(cur, frames, 0, self.exit)
            return None
        if isinstance(stmt, ast.Raise):
            self._emit(cur, stmt, frames)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            self._unwind_loop(cur, frames, isinstance(stmt, ast.Break))
            return None
        if isinstance(stmt, ast.If):
            return self._if(stmt, cur, frames)
        if isinstance(stmt, ast.While):
            return self._while(stmt, cur, frames)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, cur, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, cur, frames)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, cur, frames)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, cur, frames)
        # Simple statement (incl. nested def/class, whose bodies are
        # separate CFGs built by their own callers).
        return self._emit(cur, stmt, frames)

    def _if(self, stmt: ast.If, cur: Block, frames: tuple) -> Block | None:
        cur = self._emit(cur, stmt.test, frames)
        then = self._new()
        cur.succs.add(then.bid)
        then_end = self._stmts(stmt.body, then, frames)
        if stmt.orelse:
            other = self._new()
            cur.succs.add(other.bid)
            other_end = self._stmts(stmt.orelse, other, frames)
        else:
            other_end = cur
        ends = [e for e in (then_end, other_end) if e is not None]
        if not ends:
            return None
        join = self._new()
        for e in ends:
            e.succs.add(join.bid)
        return join

    @staticmethod
    def _const_true(test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    def _while(self, stmt: ast.While, cur: Block, frames: tuple) -> Block | None:
        head = self._new()
        cur.succs.add(head.bid)
        # The back edge targets ``head`` (the test re-evaluates each
        # iteration); branch edges leave the block the test ends in.
        head_end = self._emit(head, stmt.test, frames)
        after = self._new()
        body = self._new()
        head_end.succs.add(body.bid)
        infinite = self._const_true(stmt.test)
        body_end = self._stmts(
            stmt.body, body, frames + (_LoopFrame(head.bid, after.bid),)
        )
        if body_end is not None:
            body_end.succs.add(head.bid)
        if not infinite:
            # while-else runs when the condition goes false (not on break)
            if stmt.orelse:
                orelse = self._new()
                head_end.succs.add(orelse.bid)
                orelse_end = self._stmts(stmt.orelse, orelse, frames)
                if orelse_end is not None:
                    orelse_end.succs.add(after.bid)
            else:
                head_end.succs.add(after.bid)
        reachable = bool(after.instrs) or any(
            after.bid in b.succs for b in self.blocks.values()
        )
        return after if reachable else None

    def _for(self, stmt: ast.For | ast.AsyncFor, cur: Block, frames: tuple) -> Block:
        cur = self._emit(cur, stmt.iter, frames)
        head = self._new()
        cur.succs.add(head.bid)
        head.instrs.append(ForBind(stmt.target, stmt.iter, stmt.lineno))
        after = self._new()
        body = self._new()
        head.succs.add(body.bid)
        body_end = self._stmts(
            stmt.body, body, frames + (_LoopFrame(head.bid, after.bid),)
        )
        if body_end is not None:
            body_end.succs.add(head.bid)
        if stmt.orelse:
            orelse = self._new()
            head.succs.add(orelse.bid)
            orelse_end = self._stmts(stmt.orelse, orelse, frames)
            if orelse_end is not None:
                orelse_end.succs.add(after.bid)
        else:
            head.succs.add(after.bid)
        return after

    def _with(self, stmt: ast.With | ast.AsyncWith, cur: Block, frames: tuple) -> Block | None:
        for item in stmt.items:
            cur = self._emit(cur, WithEnter(item, stmt.lineno), frames)
            # The context expression itself may raise (it's usually a call).
            if may_raise(item.context_expr):
                self._add_exception_edges(cur, frames)
        items = tuple(stmt.items)
        inner = frames + (_WithFrame(items, stmt.lineno),)
        body = self._new()
        cur.succs.add(body.bid)
        body_end = self._stmts(stmt.body, body, inner)
        if body_end is None:
            return None
        out = self._new()
        body_end.succs.add(out.bid)
        out.instrs.append(WithExit(items, stmt.lineno))
        return out

    def _try(self, stmt: ast.Try, cur: Block, frames: tuple) -> Block | None:
        finally_body = tuple(stmt.finalbody) or None
        depth = len(frames)
        handler_entries: list[int] = []
        handlers: list[tuple[Block, ast.ExceptHandler]] = []
        for handler in stmt.handlers:
            hb = self._new()
            hb.instrs.append(ExceptBind(handler.name, handler.lineno))
            handler_entries.append(hb.bid)
            handlers.append((hb, handler))

        body_frame = _TryFrame(tuple(handler_entries), finally_body, depth)
        inner_frame = _TryFrame((), finally_body, depth)   # handlers/else

        body = self._new()
        cur.succs.add(body.bid)
        body_end = self._stmts(stmt.body, body, frames + (body_frame,))

        after = self._new()

        def _to_after(end: Block | None) -> None:
            """Route a normal completion through the finally to ``after``."""
            if end is None:
                return
            if finally_body is None:
                end.succs.add(after.bid)
                return
            fin = self._new()
            end.succs.add(fin.bid)
            fin_end = self._stmts(list(finally_body), fin, frames)
            if fin_end is not None:
                fin_end.succs.add(after.bid)

        if body_end is not None and stmt.orelse:
            else_b = self._new()
            body_end.succs.add(else_b.bid)
            _to_after(self._stmts(stmt.orelse, else_b, frames + (inner_frame,)))
        else:
            _to_after(body_end)

        for hb, handler in handlers:
            _to_after(self._stmts(handler.body, hb, frames + (inner_frame,)))

        reachable = any(after.bid in b.succs for b in self.blocks.values())
        return after if reachable else None

    def _match(self, stmt: ast.Match, cur: Block, frames: tuple) -> Block | None:
        cur = self._emit(cur, stmt.subject, frames)
        join = self._new()
        exhaustive = False
        for case in stmt.cases:
            cb = self._new()
            cur.succs.add(cb.bid)
            # A guard is evaluated after the pattern matches and before
            # the body runs; emit it so flow analyses see its reads/calls.
            if case.guard is not None:
                cb = self._emit(cb, case.guard, frames)
            case_end = self._stmts(case.body, cb, frames)
            if case_end is not None:
                case_end.succs.add(join.bid)
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                exhaustive = True
        if not exhaustive:
            cur.succs.add(join.bid)
        reachable = any(join.bid in b.succs for b in self.blocks.values())
        return join if reachable else None

    # -- unwinding ------------------------------------------------------------
    def _cleanup_chain(
        self, frames: tuple, inner: int, outer: int, target: int, frames_for_finally=None
    ) -> int:
        """Entry block id of the cleanup path running every with-exit and
        ``finally`` body of ``frames[outer:inner]`` (innermost first),
        ending at ``target``.  With no cleanup, ``target`` itself."""
        actions: list[tuple[str, object, int]] = []
        for i in range(inner - 1, outer - 1, -1):
            frame = frames[i]
            if isinstance(frame, _WithFrame):
                actions.append(("with", frame, i))
            elif isinstance(frame, _TryFrame) and frame.finally_body is not None:
                actions.append(("finally", frame, i))
        if not actions:
            return target
        entry: Block | None = None
        cur: Block | None = None
        for kind, frame, idx in actions:
            if cur is None:
                cur = self._new()
                entry = cur
            if kind == "with":
                cur.instrs.append(WithExit(frame.items, frame.lineno))
            else:
                # The duplicated finally body runs in the *enclosing*
                # frame context (its own try no longer guards it).
                end = self._stmts(list(frame.finally_body), cur, frames[:idx])
                if end is None:
                    return entry.bid       # finally itself exits; chain stops
                cur = end
        cur.succs.add(target)
        return entry.bid

    def _unwind_to(self, cur: Block, frames: tuple, outer: int, target: int) -> None:
        """Normal-edge unwind (return / break / continue) from ``cur``
        through cleanup down to frame index ``outer``, then ``target``."""
        cur.succs.add(self._cleanup_chain(frames, len(frames), outer, target))

    def _unwind_loop(self, cur: Block, frames: tuple, is_break: bool) -> None:
        for i in range(len(frames) - 1, -1, -1):
            frame = frames[i]
            if isinstance(frame, _LoopFrame):
                target = frame.after if is_break else frame.head
                cur.succs.add(self._cleanup_chain(frames, len(frames), i + 1, target))
                return
        # break/continue outside a loop: a SyntaxError at runtime; treat
        # as an exit so the builder stays total over malformed input.
        self._unwind_to(cur, frames, 0, self.exit)

    def _add_exception_edges(self, cur: Block, frames: tuple) -> None:
        """Exceptional edges from ``cur``: to every enclosing handler
        (running intervening with-exits/finallys), and the full unwind
        to the raise exit."""
        depth = len(frames)
        for i in range(depth - 1, -1, -1):
            frame = frames[i]
            if isinstance(frame, _TryFrame) and frame.handler_entries:
                for hb in frame.handler_entries:
                    cur.exc_succs.add(
                        self._cleanup_chain(frames, depth, i + 1, hb)
                    )
        cur.exc_succs.add(
            self._cleanup_chain(frames, depth, 0, self.raise_exit)
        )


def build_cfg(func: ast.AST) -> CFG:
    """Build the control-flow graph of one function node."""
    return _Builder(func).build()
