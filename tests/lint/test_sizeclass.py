"""Size-class abstract interpretation (SCL001–SCL004): each rule fires
on its seeded violation and stays silent on the nearest legitimate
pattern; summaries propagate classes interprocedurally; pragmas are
scoped to their line; and the acceptance seeds — a raw-points collect
in ``merge.py``, a per-point driver loop in a pipeline stage — turn a
clean self-scan into a failing one.
"""

import ast
import shutil
import textwrap

import pytest

from repro.lint import run_lint

from .fixture_sources import rules_of
from .test_dataflow import EXC_ONLY_LOOPS

#: Scaffold: one stage class whose ``run`` body is under test, wired
#: into a manifest so the size-class scope machinery sees it.  The
#: default plan name ("cell") puts the stage under the SCL003
#: broadcast contract; the default size manifest declares an O(edges)
#: digest output, which arms SCL004.
SCAFFOLD = """
import numpy as np


class {cls}:
    name = "{cls}"
    provides = ("out",)

    def run(self, state):
{body}

{extra}

STAGE_MANIFEST = {{"{plan}": ("{cls}",)}}
SHUFFLE_FREE_PLANS = ("{plan}",)
SIZE_MANIFEST = {{"{cls}": {{"input": "O(points)", "output": "{out}"}}}}
"""


def scaffold(body, cls="Work", plan="cell", out="O(edges)", extra=""):
    indented = textwrap.indent(textwrap.dedent(body).strip("\n"), " " * 8)
    return SCAFFOLD.format(cls=cls, plan=plan, out=out, body=indented,
                           extra=textwrap.dedent(extra))


@pytest.fixture()
def scl_lint(tmp_path):
    def _lint(body, **kw):
        mod = tmp_path / "mod.py"
        mod.write_text(scaffold(body, **kw))
        return run_lint([str(mod)]).findings

    return _lint


class TestSCL001:
    def test_fresh_points_materialization_fires(self, scl_lint):
        findings = scl_lint("""
            snapshot = np.sort(state.points)
            return snapshot
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "materializes an O(points)" in f.message
        assert f.symbol == "Work.run"

    def test_retention_into_attribute_fires(self, scl_lint):
        findings = scl_lint("""
            state.cache = state.points
            return None
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "retains an O(points)" in f.message
        assert "'state.cache'" in f.message

    def test_related_location_points_at_taint(self, scl_lint):
        findings = scl_lint("""
            view = state.points
            state.cache = view
            return None
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert f.related, "retention must carry the taint site"
        assert "tainted O(points)" in f.related[0][2]

    def test_sub_points_classes_are_near_miss(self, scl_lint):
        findings = scl_lint("""
            tidy = np.sort(state.counts)
            state.keep = state.gid_map
            return tidy
        """)
        assert "SCL001" not in rules_of(findings)

    def test_local_alias_is_near_miss(self, scl_lint):
        # A name-to-name alias neither allocates nor extends a lifetime.
        findings = scl_lint("""
            view = state.points
            return view
        """)
        assert "SCL001" not in rules_of(findings)

    def test_sanctioned_stage_is_exempt(self, scl_lint):
        findings = scl_lint("""
            snapshot = np.sort(state.points)
            return snapshot
        """, cls="MergePartials")
        assert "SCL001" not in rules_of(findings)

    @pytest.mark.parametrize("keys", [
        "state.points.T[::-1]",
        "(state.points[:, 1], state.points[:, 0])",
        "[*state.points.T]",
    ])
    def test_lexsort_of_points_keys_retained_fires(self, scl_lint, keys):
        # np.lexsort returns one index per key row, whatever form the
        # keys take: keeping it on `self` keeps an O(points) array.
        findings = scl_lint(f"""
            self.order = np.lexsort({keys})
            return None
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "materializes an O(points)" in f.message
        assert "'self.order'" in f.message

    def test_lexsort_through_a_helper_fires(self, scl_lint):
        findings = scl_lint("""
            self.order = lex_order(state.points)
            return None
        """, extra="""
            def lex_order(rows):
                return np.lexsort(rows.T[::-1])
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "'self.order'" in f.message

    def test_lexsort_of_cells_keys_is_near_miss(self, scl_lint):
        findings = scl_lint("""
            self.order = np.lexsort(state.cells.T[::-1])
            return None
        """)
        assert "SCL001" not in rules_of(findings)

    def test_lazy_rdd_handle_is_near_miss(self, scl_lint):
        # The RDD wraps O(points) but the driver holds only the handle.
        findings = scl_lint("""
            state.rdd = state.sc.parallelize(state.points).map(float)
            return None
        """)
        assert "SCL001" not in rules_of(findings)


class TestSCL002:
    def test_loop_over_points_fires(self, scl_lint):
        findings = scl_lint("""
            total = 0.0
            for row in state.points:
                total += 1.0
            return total
        """)
        (f,) = [f for f in findings if f.rule == "SCL002"]
        assert "O(points) trip count" in f.message

    def test_range_over_n_fires(self, scl_lint):
        findings = scl_lint("""
            for i in range(state.n):
                pass
            return None
        """)
        assert "SCL002" in rules_of(findings)

    def test_comprehension_generator_fires(self, scl_lint):
        # Comprehensions are lowered to loop blocks in the CFG; their
        # generators carry trip counts like any other loop.
        findings = scl_lint("""
            sums = [float(p) for p in state.points]
            return sums
        """)
        assert "SCL002" in rules_of(findings)

    def test_loop_over_partials_is_near_miss(self, scl_lint):
        findings = scl_lint("""
            total = 0.0
            for part in state.partials:
                total += 1.0
            acc = [float(d) for d in state.digests]
            return acc
        """)
        assert "SCL002" not in rules_of(findings)


class TestSCL003:
    def test_points_broadcast_in_cell_plan_fires(self, scl_lint):
        findings = scl_lint("""
            sc = state.sc
            state.b = sc.broadcast(state.points)
            return None
        """)
        (f,) = [f for f in findings if f.rule == "SCL003"]
        assert "broadcast of an O(points)" in f.message

    def test_partials_broadcast_is_near_miss(self, scl_lint):
        findings = scl_lint("""
            sc = state.sc
            state.b = sc.broadcast(state.gid_map)
            return None
        """)
        assert "SCL003" not in rules_of(findings)

    def test_plan_outside_contract_is_near_miss(self, scl_lint):
        # Same broadcast, but the plan is neither "cell" nor "*_edges".
        findings = scl_lint("""
            sc = state.sc
            state.b = sc.broadcast(state.points)
            return None
        """, plan="spark")
        assert "SCL003" not in rules_of(findings)

    def test_edges_plan_is_in_scope(self, scl_lint):
        findings = scl_lint("""
            sc = state.sc
            state.b = sc.broadcast(state.points)
            return None
        """, plan="spatial_edges")
        assert "SCL003" in rules_of(findings)


class TestSCL004:
    def test_undigested_collect_fires(self, scl_lint):
        findings = scl_lint("""
            rows = state.sc.parallelize(state.points).map(float).collect()
            return rows
        """)
        (f,) = [f for f in findings if f.rule == "SCL004"]
        assert "un-digested O(points) RDD" in f.message

    def test_no_digest_on_manifest_downgrades_to_scl001(self, scl_lint):
        # Without an O(edges)/O(partials) reduction on the manifest
        # there is no digest to point at; the collect is a plain
        # driver materialization instead.
        findings = scl_lint("""
            rows = state.sc.parallelize(state.points).map(float).collect()
            return rows
        """, out="O(points)")
        assert "SCL004" not in rules_of(findings)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "collect() materializes" in f.message

    def test_digest_collect_is_near_miss(self, scl_lint):
        findings = scl_lint("""
            small = state.sc.parallelize(state.summaries).collect()
            return small
        """)
        assert "SCL004" not in rules_of(findings)


KWARG_CALL = """
    twin = dup(xs=state.points)
    state.cache = twin
    return None
"""


class TestInterprocedural:
    def test_summary_propagates_param_class(self, scl_lint):
        findings = scl_lint("""
            twin = copy_rows(state.points)
            return twin
        """, extra="""
            def copy_rows(xs):
                return np.asarray(xs)
        """)
        (f,) = [f for f in findings if f.rule == "SCL001"]
        assert "'twin'" in f.message

    def test_keyword_only_param_agrees_with_its_positional_twin(self, scl_lint):
        findings = scl_lint(KWARG_CALL, extra="""
            def dup(*, xs):
                return np.array(xs)
        """)
        made, kept = [f for f in findings if f.rule == "SCL001"]
        assert "materializes an O(points)" in made.message
        assert kept.related[0][1:] == (made.line, "tainted O(points) here")
        assert findings == scl_lint(KWARG_CALL, extra="""
            def dup(xs):
                return np.array(xs)
        """)

    def test_summary_of_small_input_is_near_miss(self, scl_lint):
        findings = scl_lint("""
            twin = copy_rows(state.gid_map)
            return twin
        """, extra="""
            def copy_rows(xs):
                return np.asarray(xs)
        """)
        assert "SCL001" not in rules_of(findings)


class TestConvergence:
    @pytest.mark.parametrize("shape", sorted(EXC_ONLY_LOOPS))
    def test_loop_behind_a_silent_exceptional_edge(
        self, shape, scl_lint, monkeypatch
    ):
        monkeypatch.setattr("repro.lint.dataflow.MAX_ITERATIONS", 2000)
        assert scl_lint(EXC_ONLY_LOOPS[shape]) == []


class TestPragmaScoping:
    def test_pragma_suppresses_only_its_line(self, scl_lint):
        # A pragma covers its own line and the line below (standalone
        # comment form) — never further down.
        findings = scl_lint("""
            first = np.sort(state.points)  # lint: allow[SCL001] known
            mid = 0
            second = np.sort(state.points)
            return first, mid, second
        """)
        scl1 = [f for f in findings if f.rule == "SCL001"]
        assert len(scl1) == 1, "the pragma must not leak past its line"

    def test_pragma_is_rule_scoped(self, scl_lint):
        # An SCL001 allowance must not swallow the SCL002 on the line.
        findings = scl_lint("""
            big = [float(p) for p in state.points]  # lint: allow[SCL001] known
            return big
        """)
        assert "SCL001" not in rules_of(findings)
        assert "SCL002" in rules_of(findings)


class TestStats:
    def test_stats_carry_per_class_value_counts(self, scl_lint, tmp_path):
        scl_lint("""
            snapshot = np.sort(state.points)
            k = len(state.partials)
            return snapshot, k
        """)
        report = run_lint([str(tmp_path / "mod.py")], collect_stats=True)
        sizes = report.stats["sizes"]
        assert sizes["functions"] >= 1
        assert sizes["values"].get("O(points)", 0) >= 1
        rendered = report.render_stats()
        assert "size classes:" in rendered
        assert "O(points)=" in rendered


def _insert_into(path, qualname, code):
    """Insert ``code`` at the top of function ``qualname`` (after its
    docstring), preserving every other line number above it."""
    src = path.read_text()
    node = ast.parse(src)
    for part in qualname.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and n.name == part
        )
    first = node.body[0]
    at = (
        first.end_lineno
        if isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        else first.lineno - 1
    )
    pad = " " * first.col_offset
    lines = src.splitlines(keepends=True)
    lines.insert(at, textwrap.indent(textwrap.dedent(code), pad))
    path.write_text("".join(lines))


class TestAcceptanceSeeds:
    """The ISSUE's end-to-end criteria on a copy of the real tree."""

    @pytest.fixture()
    def tree(self, tmp_path):
        shutil.copytree("src/repro", tmp_path / "src" / "repro")
        return tmp_path / "src"

    def test_unseeded_tree_is_clean(self, src_report):
        assert not [f for f in src_report.findings if f.rule.startswith("SCL")]

    def test_points_collect_in_merge_fires_scl004(self, tree):
        _insert_into(
            tree / "repro" / "dbscan" / "merge.py",
            "merge_edges",
            "audit = sc.parallelize(points).collect()\n",
        )
        report = run_lint([str(tree)])
        seeded = [f for f in report.findings if f.rule == "SCL004"]
        assert any(f.symbol == "merge_edges" for f in seeded)
        assert not report.clean

    def test_labels_loop_in_stage_fires_scl002(self, tree):
        _insert_into(
            tree / "repro" / "pipeline" / "stages.py",
            "CollectPartials.run",
            "for lbl in state.labels:\n    pass\n",
        )
        report = run_lint([str(tree)])
        seeded = [f for f in report.findings if f.rule == "SCL002"]
        assert any(f.symbol == "CollectPartials.run" for f in seeded)
        assert not report.clean

    def test_removing_a_pragma_resurfaces_its_finding_only(self, tree):
        # The committed pragmas are line-scoped: dropping the one on the
        # CSR `order` grouping brings back exactly that site's finding.
        cells = tree / "repro" / "dbscan" / "cells.py"
        src = cells.read_text()
        target = '_lex_order(coords)  # lint: allow[SCL001] ROADMAP item 3'
        assert target in src
        line = next(
            s for s in src.splitlines() if target in s
        )
        cells.write_text(src.replace(line, line.split("  # lint")[0]))
        report = run_lint([str(tree)])
        scl = [f for f in report.findings if f.rule.startswith("SCL")]
        assert {f.rule for f in scl} == {"SCL001"}
        assert {f.line for f in scl} == {scl[0].line}, (
            "other pragma'd sites must stay suppressed"
        )
        assert "'self.order'" in scl[0].message
