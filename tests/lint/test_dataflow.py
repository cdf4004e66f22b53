"""Tests for the forward dataflow fixpoint solver (`repro.lint.dataflow`)."""

import ast
import textwrap

import pytest

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import (
    FactAnalysis,
    FixpointDiverged,
    ForwardAnalysis,
    solve,
)


def solve_source(source: str, analysis=None):
    tree = ast.parse(source)
    func = next(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    cfg = build_cfg(func)
    states = solve(cfg, analysis or FactAnalysis())
    return cfg, states, states.get(cfg.exit)


class TestSetUnion:
    def test_straight_line_accumulates(self):
        cfg, st, out = solve_source("def f():\n    a = 1\n    b = 2\n")
        assert out == frozenset({"a", "b"})

    def test_branches_join_by_union(self):
        cfg, st, out = solve_source(
            "def f(c):\n"
            "    if c:\n"
            "        a = 1\n"
            "    else:\n"
            "        b = 2\n"
        )
        assert out == frozenset({"a", "b"})

    def test_loop_reaches_fixpoint(self):
        cfg, st, out = solve_source(
            "def f(xs):\n"
            "    for x in xs:\n"
            "        a = 1\n"
            "    b = 2\n"
        )
        assert out == frozenset({"a", "b"})

    def test_unreachable_block_has_no_state(self):
        cfg, st, out = solve_source(
            "def f():\n"
            "    return 1\n"
            "    a = 2\n"
        )
        dead = [
            bid for bid, b in cfg.blocks.items()
            if any(isinstance(i, ast.Assign) for i in b.instrs)
        ]
        for bid in dead:
            assert bid not in st
        assert out == frozenset()

    def test_raise_exit_unreached_for_pure_function(self):
        cfg, st, out = solve_source("def f(x):\n    a = x\n")
        assert cfg.raise_exit not in st


class TestMustAnalysis:
    def test_one_sided_assign_is_not_must(self):
        cfg, st, out = solve_source(
            "def f(c):\n"
            "    a = 1\n"
            "    if c:\n"
            "        b = 2\n",
            FactAnalysis(must=True),
        )
        assert out == frozenset({"a"})

    def test_both_sides_is_must(self):
        cfg, st, out = solve_source(
            "def f(c):\n"
            "    if c:\n"
            "        b = 2\n"
            "    else:\n"
            "        b = 3\n",
            FactAnalysis(must=True),
        )
        assert out == frozenset({"b"})


class TestExceptionalStates:
    def test_exc_state_is_pre_instruction(self):
        # a = 1 happens before g(); b = 2 after — only 'a' can be live
        # on the exceptional edge out of g().
        cfg, st, out = solve_source(
            "def f(g):\n"
            "    a = 1\n"
            "    g()\n"
            "    b = 2\n"
        )
        assert st[cfg.raise_exit] == frozenset({"a"})

    def test_handler_sees_pre_raise_state(self):
        cfg, st, out = solve_source(
            "def f(g):\n"
            "    a = 1\n"
            "    try:\n"
            "        g()\n"
            "        b = 2\n"
            "    except ValueError:\n"
            "        c = 3\n"
        )
        # 'b' flows to exit only via the no-raise path; 'c' only via the
        # handler; 'a' via both.
        assert "a" in out
        assert {"b", "c"} & out == {"b", "c"}

    def test_custom_exc_state_hook(self):
        class DropOnRaise(FactAnalysis):
            def exc_state(self, state, instr):
                return frozenset()   # pretend nothing survives a raise

        cfg, st, out = solve_source(
            "def f(g):\n    a = 1\n    g()\n", DropOnRaise()
        )
        assert st[cfg.raise_exit] == frozenset()


#: Function bodies with a loop reached only through an exceptional edge
#: out of a block in which nothing may raise (the ``with`` body).  An
#: analysis-level "unreached" value stored there once looked unvisited
#: to the solver forever, and the loop spun to `MAX_ITERATIONS`.  The
#: second is the shape `pipeline.stages_naive.ShuffleExpand` has.
EXC_ONLY_LOOPS = {
    "minimal": """
        try:
            with g() as sp:
                x = 1
        finally:
            for t in a:
                pass
    """,
    "ShuffleExpand": """
        sc = state.ensure_context()
        core_b = lab_b = None
        info = sc.parallelize(range(4))
        info.cache()
        try:
            core_b = sc.broadcast({})
            for _ in range(cfg.max_rounds):
                with tracer.span("round") as round_sp:
                    lab_b = sc.broadcast({})
                    round_sp.annotate(changed=0)
        finally:
            info.unpersist()
            for b in (core_b, lab_b):
                if b is not None:
                    b.unpersist()
    """,
}


def as_function(body: str) -> str:
    return "def f(a, g, state, cfg, tracer):\n" + textwrap.indent(
        textwrap.dedent(body), "    "
    )


class TestDivergenceGuard:
    @pytest.mark.parametrize("must", [False, True])
    def test_loop_behind_a_silent_exceptional_edge_converges(
        self, must, monkeypatch
    ):
        monkeypatch.setattr("repro.lint.dataflow.MAX_ITERATIONS", 200)
        cfg, st, out = solve_source(
            as_function(EXC_ONLY_LOOPS["minimal"]), FactAnalysis(must=must)
        )
        assert out == frozenset({"x"})
        assert None not in st.values()

    def test_non_monotone_transfer_raises(self):
        class Flapping(ForwardAnalysis):
            def __init__(self):
                self.n = 0

            def initial_state(self):
                return 0

            def join(self, a, b):
                return max(a, b)

            def transfer(self, state, instr):
                self.n += 1
                return self.n     # strictly increasing: never stabilises

        with pytest.raises(FixpointDiverged):
            solve_source(
                "def f(xs):\n"
                "    for x in xs:\n"
                "        a = 1\n",
                Flapping(),
            )
