"""The interprocedural layer: module naming, cross-module resolution,
and reachability through helper modules.

These tests build tiny multi-file packages under tmp_path and assert
that task reachability crosses imports: a helper one module away from
the RDD op is task code, so the SCL proof of the driver leaves it out.
"""

import ast
import textwrap

import pytest

from repro.lint import build_project, discover_files
from repro.lint.callgraph import is_substrate, module_name_for

from .fixture_sources import package_files, write_files


@pytest.fixture()
def task_code(tmp_path):
    """Write a package; return its task-reachable defs as
    ``{(module, name)}``."""

    def _reach(files: dict[str, str]):
        write_files(tmp_path, package_files(files))
        project = build_project(discover_files([str(tmp_path / "pkg")]))
        return {
            (module, node.name)
            for module, nodes in project.task_reachable_by_module().items()
            for node in nodes if not isinstance(node, ast.Lambda)
        }

    return _reach


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
    def test_task_reachability_through_helper_module(self, task_code):
        # The task lambda calls an imported helper one module away from
        # the RDD op; the driver-side caller stays driver code.
        reach = task_code({
            "helpers.py": """
                def stamp(x):
                    return (x, 1)
                """,
            "main.py": """
                from .helpers import stamp

                def job(rdd):
                    return rdd.map(lambda x: stamp(x)).collect()
                """,
        })
        assert reach == {("pkg.helpers", "stamp")}

    def test_imported_function_passed_to_rdd_op(self, task_code):
        # The imported helper IS the task function (no local wrapper):
        # the project layer injects it into its defining module.
        reach = task_code({
            "helpers.py": """
                def stamp(x):
                    return (x, 1)
                """,
            "main.py": """
                from .helpers import stamp

                def job(rdd):
                    return rdd.map(stamp).collect()
                """,
        })
        assert reach == {("pkg.helpers", "stamp")}

    def test_module_alias_call_resolves(self, task_code):
        reach = task_code({
            "helpers.py": """
                def stamp(x):
                    return (x, 1)
                """,
            "main.py": """
                from . import helpers

                def job(rdd):
                    return rdd.map(lambda x: helpers.stamp(x)).collect()
                """,
        })
        assert reach == {("pkg.helpers", "stamp")}

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


class TestPartialBoundTasks:
    """A task function bound with ``functools.partial`` is task code, and
    is reached from its caller as a nested def would be."""

    def test_partial_binds_a_module_level_task(self, task_code):
        reach = task_code({
            "main.py": """
                from functools import partial

                def work(offset, x):
                    return scale(x) + offset

                def scale(x):
                    return 2 * x

                def job(rdd):
                    return rdd.map(partial(work, 1)).collect()
                """,
        })
        assert reach == {("pkg.main", "work"), ("pkg.main", "scale")}

    def test_module_qualified_partial_of_an_imported_task(self, task_code):
        reach = task_code({
            "helpers.py": """
                def stamp(tag, split, it):
                    return [(tag, x) for x in it]
                """,
            "main.py": """
                import functools

                from .helpers import stamp

                def job(rdd):
                    rdd.foreach_partition_with_index(
                        functools.partial(stamp, "t"))
                """,
        })
        assert reach == {("pkg.helpers", "stamp")}

    def test_other_calls_bind_no_task(self, task_code):
        reach = task_code({
            "main.py": """
                def work(x):
                    return x

                def wrap(f):
                    return f

                def job(rdd):
                    return rdd.map(wrap(work)).collect()
                """,
        })
        assert reach == set()

    def test_the_bound_task_is_reached_from_its_caller(self, tmp_path):
        write_files(tmp_path, package_files({
            "main.py": """
                from functools import partial

                def work(offset, x):
                    return x + offset

                class Stage:
                    def run(self, rdd):
                        return rdd.map(partial(work, 1)).collect()
                """,
        }))
        project = build_project(discover_files([str(tmp_path / "pkg")]))
        reached = project.reachable_from({"Stage"})["pkg.main"]
        assert "work" in {node.name for node in reached}


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
