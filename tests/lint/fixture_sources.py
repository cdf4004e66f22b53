"""Every source the tests in this directory feed the analyzer, read
off the test modules' ASTs — the one place that knows the fixture
helpers' call shapes, so `test_findings_golden.py` can re-lint them all
without copying a string.

    python -m tests.lint.fixture_sources      # list the fixture labels
"""

import ast
import glob
import os
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))


def rules_of(findings):
    return sorted({f.rule for f in findings})


def package_files(files):
    """The multi-module fixture shape: a ``pkg`` package of dedented
    sources (the ``package`` fixture of conftest.py)."""
    out = {"pkg/__init__.py": ""}
    out.update({f"pkg/{name}": textwrap.dedent(src)
                for name, src in files.items()})
    return out


def write_files(root, files):
    """Materialize ``{relative path: source}`` under ``root``."""
    for rel, source in files.items():
        path = os.path.join(str(root), rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(source)


def _scaffold(body, **kw):
    from .test_sizeclass import scaffold

    return {"mod.py": scaffold(body, **kw)}


def _plan_files(*sources, **kw):
    from .test_plan_contract import plan_files

    return plan_files(*sources, **kw)


#: fixture-helper name -> builder of {relative path: source}.  Arguments
#: the evaluator cannot read (``tmp_path``) arrive as None.
SHAPES = {
    "scan": lambda _tmp, src, **kw: {"fixture.py": src},
    "lint_source": lambda src, name="mod.py": {name: textwrap.dedent(src)},
    "scl_lint": _scaffold,
    "package": package_files,
    "project_of": _plan_files,
    "write_text": lambda src: {"mod.py": src},
    "moved": lambda _tmp, src, *_a: {"mod.py": src},
    "renamed": lambda _tmp, src, *_a: {"mod.py": src},
    "cfg_of": lambda src: {"mod.py": src},
    "solve_source": lambda src, *_a: {"mod.py": src},
}


class _Opaque(Exception):
    """The expression is not a literal the evaluator understands."""


def _value(node, consts):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name) and node.id in consts:
        return consts[node.id]
    if isinstance(node, ast.Dict):
        return {_value(k, consts): _value(v, consts)
                for k, v in zip(node.keys, node.values)}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _value(node.left, consts) + _value(node.right, consts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _value(node.left, consts) * _value(node.right, consts)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dedent" and len(node.args) == 1):
        return textwrap.dedent(_value(node.args[0], consts))
    raise _Opaque


def _fixtures_of(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    consts = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            try:
                consts[stmt.targets[0].id] = _value(stmt.value, consts)
            except _Opaque:
                pass

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from visit(child, qual + [child.name])
                continue
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
                if name in SHAPES:
                    yield qual, name, child
            yield from visit(child, qual)

    counts = {}
    for qual, name, call in visit(tree, []):
        def arg(node):
            try:
                return _value(node, consts)
            except _Opaque:
                return None

        args = [arg(a) for a in call.args]
        kwargs = {kw.arg: arg(kw.value) for kw in call.keywords}
        if not any(isinstance(a, (str, dict)) and a for a in args):
            continue
        files = SHAPES[name](*args, **kwargs)
        try:
            for source in files.values():
                ast.parse(source)
        except SyntaxError:
            continue          # the CLI's bad-input fixtures
        where = "::".join([os.path.basename(path)] + qual)
        counts[where] = counts.get(where, 0) + 1
        yield f"{where}#{counts[where]}", files


def fixture_sources():
    """(label, {relative path: source}) per distinct fixture, in file
    order — a source several tests share goes under its first label."""
    seen = []
    for path in sorted(glob.glob(os.path.join(HERE, "test_*.py"))):
        for label, files in _fixtures_of(path):
            if files not in seen:
                seen.append(files)
                yield label, files


if __name__ == "__main__":
    for label, _files in fixture_sources():
        print(label)
