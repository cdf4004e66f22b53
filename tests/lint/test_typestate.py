"""Tests for the flow-sensitive persist-leak rule (`repro.lint.typestate`).

RES001 gets seeded fixtures that fire and near-misses that must stay
silent (a ``try/finally`` release, escaping values, a helper that
releases).  A final gate runs the real self-scan: ``src/repro`` must be
clean under RES001 with zero pragmas.
"""

import os

import pytest

from repro.lint.analyzer import build_project, run_lint
from repro.lint.findings import Reporter
from repro.lint.typestate import Lifecycle, check_typestate

from .test_dataflow import EXC_ONLY_LOOPS, as_function

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


#: Helpers whose parameter is keyword-only; dropping the ``*, `` gives
#: the positional-or-keyword twin each must agree with.
KWONLY_DROP = (
    "def drop(*, rdd):\n"
    "    rdd.unpersist()\n"
    "\n"
    "def touch(*, rdd):\n"
    "    return rdd.count()\n"
    "\n"
    "def f(sc):\n"
    "    r = sc.parallelize(range(10))\n"
    "    r.persist()\n"
    "    drop(rdd=r)\n"
    "    return r.count()\n"
    "\n"
    "def g(sc):\n"
    "    r = sc.parallelize(range(10))\n"
    "    r.persist()\n"
    "    return touch(rdd=r)\n"
)


def scan(tmp_path, source):
    """Lint one fixture module; returns its RES001 findings."""
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return check_typestate(build_project([str(path)]))


class TestRES001PersistLeak:
    def test_fires_on_persist_without_unpersist(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    return r.count()\n"
        ))
        assert len(found) == 1
        assert found[0].line == 3             # primary = the persist site

    def test_fires_on_cache_leak_on_one_branch(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc, flag):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.cache()\n"
            "    if flag:\n"
            "        r.unpersist()\n"
            "        return 0\n"
            "    return r.count()\n"          # leaks on the else path
        ))
        assert len(found) == 1

    def test_near_miss_try_finally_release(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    try:\n"
            "        return r.count()\n"
            "    finally:\n"
            "        r.unpersist()\n"
        ))
        assert found == []

    def test_near_miss_returned_rdd_escapes(self, tmp_path):
        found = scan(tmp_path, (
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    return r\n"                  # caller owns it now
        ))
        assert found == []

    def test_near_miss_attribute_stored_rdd_escapes(self, tmp_path):
        found = scan(tmp_path, (
            "def f(self, sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    self.hot = r\n"              # outlives the function
        ))
        assert found == []

    def test_interprocedural_release_through_helper(self, tmp_path):
        found = scan(tmp_path, (
            "def drop(rdd):\n"
            "    rdd.unpersist()\n"
            "\n"
            "def f(sc):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    out = r.count()\n"
            "    drop(r)\n"
            "    return out\n"
        ))
        assert found == []


    def test_helper_releasing_on_one_branch_still_leaks(self, tmp_path):
        found = scan(tmp_path, (
            "def maybe_drop(rdd, flag):\n"
            "    if flag:\n"
            "        rdd.unpersist()\n"
            "\n"
            "def f(sc, flag):\n"
            "    r = sc.parallelize(range(10))\n"
            "    r.persist()\n"
            "    maybe_drop(r, flag)\n"      # may-release, not must-release
            "    return r.count()\n"
        ))
        assert [f.line for f in found] == [7]

    def test_keyword_only_helper_releases_like_its_positional_twin(
        self, tmp_path
    ):
        # ``drop`` discharges RES001 by *unpersisting* its argument, not
        # by making ``r`` escape: the bound ``touch`` leaves ``g``'s RDD
        # resident, so the binding itself is what both twins agree on.
        found = scan(tmp_path, KWONLY_DROP)
        assert [(f.rule, f.line) for f in found] == [("RES001", 15)]
        assert found == scan(tmp_path, KWONLY_DROP.replace("*, ", ""))


class TestRuleRegistration:
    def test_res001_in_catalogue(self):
        from repro.lint.rules import rule_catalogue

        assert "RES001" in rule_catalogue()

    def test_pragma_suppresses_flow_finding(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "def f(sc):\n"
            "    r = sc.parallelize([1])\n"
            "    r.persist()  # lint: allow[RES001] seeded\n"
            "    return r.count()\n"
        )
        report = run_lint([str(path)])
        assert [f for f in report.findings if f.rule == "RES001"] == []

    def test_findings_flow_through_run_lint(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "def f(sc):\n"
            "    r = sc.parallelize([1])\n"
            "    r.persist()\n"
            "    return r.count()\n"
        )
        report = run_lint([str(path)])
        assert any(f.rule == "RES001" for f in report.findings)


class TestConvergence:
    @pytest.mark.parametrize("shape", sorted(EXC_ONLY_LOOPS))
    def test_loop_behind_a_silent_exceptional_edge(
        self, shape, tmp_path, monkeypatch
    ):
        # Walked directly: "minimal" has no acquire, so check_typestate
        # would never solve it.
        monkeypatch.setattr("repro.lint.dataflow.MAX_ITERATIONS", 2000)
        path = tmp_path / "fixture.py"
        path.write_text(as_function(EXC_ONLY_LOOPS[shape]))
        project = build_project([str(path)])
        ((analysis, func),) = project.flow.functions()
        reporter = Reporter()
        Lifecycle(project.flow, analysis, func, reporter).check()
        assert reporter.findings == []


class TestFlowStats:
    def test_stats_count_cfgs(self, tmp_path):
        # Only functions that can reach a persist()/cache() are walked
        # for RES001, so ``h`` gets no CFG.
        path = tmp_path / "fixture.py"
        path.write_text(
            "def f(r):\n    r.cache()\n\n"
            "def g(r):\n    f(r)\n    return r\n\n"
            "def h(x):\n    return x\n"
        )
        stats = run_lint([str(path)], collect_stats=True).stats["cfg"]
        assert stats["functions"] == 2
        assert stats["blocks"] >= 6           # entry/exit/raise-exit each
        assert set(stats) == {"functions", "blocks", "edges", "exc_edges"}


class TestSelfScan:
    def test_src_repro_is_clean_under_flow_rules(self, src_report):
        flow = [f for f in src_report.findings if f.rule == "RES001"]
        assert flow == [], "\n".join(f.render() for f in flow)

    def test_no_flow_pragmas_in_src(self):
        # The self-scan must be clean *without* suppressions: any
        # lint: allow[RES001] pragma in src/repro needs a reviewed
        # justification and a mention here.
        hits = []
        src = os.path.join(REPO_ROOT, "src", "repro")
        for root, _dirs, files in os.walk(src):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        if "lint: allow[RES" in line:
                            hits.append(f"{path}:{lineno}")
        assert hits == []
