"""The engine's public surface is what the plans call — no more.

`RDD` carries an operator only while something in ``src/`` (outside the
analyzer) or ``benchmarks/`` calls it, and the analyzer's vocabulary
tables name only methods the engine defines: a method that does not
exist cannot introduce a shuffle or launch a job.
"""

import ast
import inspect
import pathlib

from repro.engine import RDD, SparkContext
from repro.engine import rdd as rdd_module
from repro.lint import closures, lineage, sizeclass, typestate

ROOT = pathlib.Path(__file__).resolve().parents[2]
RDD_SOURCE = ROOT / "src" / "repro" / "engine" / "rdd.py"


def _called_attributes():
    """Every ``x.name(...)`` spelled in src/ (minus lint/ and rdd.py) and
    benchmarks/; attribute *reads* count too, for properties."""
    files = [
        p for p in (ROOT / "src").rglob("*.py")
        if "lint" not in p.parts and p != RDD_SOURCE
    ] + list((ROOT / "benchmarks").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_methods():
    """Public names `RDD` defines itself, minus the hooks its subclasses
    override (those are implemented, not called)."""
    overridden = {
        name
        for cls in vars(rdd_module).values()
        if inspect.isclass(cls) and issubclass(cls, RDD) and cls is not RDD
        for name in vars(cls)
    }
    return {
        name for name in vars(RDD)
        if not name.startswith("_") and name not in overridden
    }


def test_every_public_rdd_method_has_a_caller():
    assert _public_methods() - _called_attributes() == set()


def test_lint_vocabulary_names_only_what_the_engine_defines():
    tables = {
        "closures.RDD_OP_METHODS": closures.RDD_OP_METHODS,
        "closures.RDD_CHAIN_METHODS": closures.RDD_CHAIN_METHODS,
        "closures.RDD_FACTORY_METHODS": closures.RDD_FACTORY_METHODS,
        "lineage.WIDE_DEP_METHODS": lineage.WIDE_DEP_METHODS,
        "typestate.TRANSITIONS": typestate.TRANSITIONS,
        "sizeclass.COLLECT_METHODS": sizeclass.COLLECT_METHODS,
    }
    unknown = {
        f"{table}: {name}"
        for table, names in tables.items()
        for name in names
        if not (hasattr(RDD, name) or hasattr(SparkContext, name))
    }
    assert unknown == set()


def test_shf001_wide_ops_are_the_methods_building_a_shuffled_rdd():
    tree = ast.parse(RDD_SOURCE.read_text(encoding="utf-8"))
    (rdd_class,) = [
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "RDD"
    ]
    builders = {
        fn.name
        for fn in rdd_class.body if isinstance(fn, ast.FunctionDef)
        if any(
            isinstance(n, ast.Name) and n.id == "ShuffledRDD"
            for n in ast.walk(fn)
        )
    }
    assert lineage.WIDE_DEP_METHODS == builders
