"""The interprocedural layer: module naming, cross-module resolution,
and reachability through helper modules.

These tests build tiny multi-file packages under tmp_path and assert
that the per-module rules now fire *through* imports: a hazard hidden
behind a cross-module helper is exactly what PR-3's same-module
reachability could not see.
"""

import textwrap

from repro.lint import build_project
from repro.lint.callgraph import is_substrate, module_name_for

from .fixture_sources import rules_of


class TestModuleNaming:
    def test_package_walk(self, tmp_path):
        pkg = tmp_path / "top" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "top" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for(str(pkg / "mod.py")) == "top.sub.mod"
        assert module_name_for(str(pkg / "__init__.py")) == "top.sub"

    def test_bare_file_is_its_stem(self, tmp_path):
        f = tmp_path / "script.py"
        f.write_text("")
        assert module_name_for(str(f)) == "script"

    def test_substrate_boundary(self):
        assert is_substrate("repro.engine.rdd")
        assert is_substrate("repro.engine")
        assert not is_substrate("repro.dbscan.partial")
        assert not is_substrate("repro.engineering.tools")


class TestCrossModuleReachability:
    def test_determinism_through_helper_module(self, package):
        # The task lambda calls an imported helper; the wall clock sits
        # one module away from the RDD op.
        findings = package({
            "helpers.py": """
                import time

                def stamp(x):
                    return (x, time.time())
                """,
            "main.py": """
                from .helpers import stamp

                def job(rdd):
                    return rdd.map(lambda x: stamp(x)).collect()
                """,
        })
        assert any(
            f.rule == "DET001" and f.path.endswith("helpers.py")
            for f in findings
        )

    def test_imported_function_passed_to_rdd_op(self, package):
        # The imported helper IS the task function (no local wrapper):
        # the project layer injects it into its defining module.
        findings = package({
            "helpers.py": """
                import time

                def stamp(x):
                    return (x, time.time())
                """,
            "main.py": """
                from .helpers import stamp

                def job(rdd):
                    return rdd.map(stamp).collect()
                """,
        })
        assert any(
            f.rule == "DET001" and f.path.endswith("helpers.py")
            for f in findings
        )

    def test_unpicklable_capture_in_helper_module(self, package):
        findings = package({
            "helpers.py": """
                import threading

                _mu = threading.Lock()

                def guarded(x):
                    with _mu:
                        return x
                """,
            "main.py": """
                from .helpers import guarded

                def job(rdd):
                    return rdd.map(guarded).collect()
                """,
        })
        assert any(
            f.rule == "PCK001" and f.path.endswith("helpers.py")
            for f in findings
        )

    def test_module_alias_call_resolves(self, package):
        findings = package({
            "helpers.py": """
                import time

                def stamp(x):
                    return (x, time.time())
                """,
            "main.py": """
                from . import helpers

                def job(rdd):
                    return rdd.map(lambda x: helpers.stamp(x)).collect()
                """,
        })
        assert "DET001" in rules_of(findings)

    def test_clean_helper_stays_clean(self, package):
        findings = package({
            "helpers.py": """
                def double(x):
                    return 2 * x
                """,
            "main.py": """
                from .helpers import double

                def job(rdd):
                    return rdd.map(double).collect()
                """,
        })
        assert findings == []


class TestGraphStats:
    def test_project_graph_counts(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(textwrap.dedent("""
            from .b import g

            def f():
                return g()
            """))
        (pkg / "b.py").write_text(textwrap.dedent("""
            def g():
                return 1

            def orphan():
                return 2
            """))
        project = build_project(
            [str(pkg / "__init__.py"), str(pkg / "a.py"), str(pkg / "b.py")]
        )
        edges = [
            (module, func.name, target[0], target[1].name)
            for module, analysis in project.modules.items()
            for func in analysis.functions.values()
            for target in project._successors(analysis, func)
        ]
        assert sum(len(a.functions) for a in project.modules.values()) == 3
        assert edges == [("pkg.a", "f", "pkg.b", "g")]    # cross-module
