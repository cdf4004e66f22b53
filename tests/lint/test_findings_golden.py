"""The analyzer's observable output, pinned finding by finding.

`findings_golden.json` holds every finding (rule, path, line, col,
symbol, message, related locations) the analyzer emits over (a) each
fixture source the tests in this directory lint (`fixture_sources`)
and (b) a copy of ``src/repro`` with every allow-pragma defused.  A
refactor of the analyzer must reproduce the file byte for byte; a
deliberate behaviour change re-records it and reviews the diff:

    PYTHONPATH=src python -m tests.lint.test_findings_golden
"""

import ast
import io
import json
import os
import re
import shutil
import tempfile
import tokenize
from types import SimpleNamespace

import pytest

from repro.lint import discover_files, run_lint
from repro.lint.analyzer import pragma_lines, pragma_rules

from .fixture_sources import fixture_sources, write_files

GOLDEN = os.path.join(os.path.dirname(__file__), "findings_golden.json")
STRIPPED_KEY = "src/repro, pragmas stripped"
_PRAGMA = re.compile(r"#(\s*)lint:(\s*)allow\[")


def _rows(findings, root):
    def rel(path):
        return os.path.relpath(path, root).replace(os.sep, "/")

    return [
        [f.rule, rel(f.path), f.line, f.col, f.symbol, f.message,
         [[rel(p), line, msg] for p, line, msg in f.related]]
        for f in findings
    ]


def scan_stripped(tmp):
    """Lint a copy of ``src/repro`` whose pragmas no longer parse."""
    root = os.path.join(str(tmp), "src")
    shutil.copytree("src/repro", os.path.join(root, "repro"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                with open(path, "w", encoding="utf-8") as f:
                    f.write(_PRAGMA.sub(r"#\1lint-\2allow[", text))
    return run_lint([root]).findings, root


def collect(tmp, stripped=None):
    """{label: finding rows} for every fixture that fires, plus the
    stripped scan of the real tree."""
    out = {}
    for i, (label, files) in enumerate(fixture_sources()):
        root = os.path.join(str(tmp), f"fx{i}")
        write_files(root, files)
        rows = _rows(run_lint([root]).findings, root)
        if rows:
            out[label] = rows
    out[STRIPPED_KEY] = _rows(*(stripped or scan_stripped(tmp)))
    return out


def render(golden):
    """One finding per line, so a behaviour change diffs legibly."""
    blocks = []
    for label, rows in golden.items():
        body = ",\n".join(
            "  " + json.dumps(row, ensure_ascii=False) for row in rows
        )
        blocks.append(f" {json.dumps(label)}: [\n{body}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.fixture(scope="module")
def stripped(tmp_path_factory):
    return scan_stripped(tmp_path_factory.mktemp("stripped"))


def test_findings_match_the_golden_file(tmp_path, stripped):
    with open(GOLDEN, encoding="utf-8") as f:
        expected = f.read()
    actual = collect(tmp_path, stripped)
    assert actual == json.loads(expected)     # the legible diff first
    assert render(actual) == expected


def test_every_pragma_in_src_suppresses_a_finding(stripped):
    """Pragmas are honest: each ``# lint: allow[RULE]`` comment in
    ``src`` covers at least one RULE finding of the stripped scan."""
    findings, root = stripped
    covered = set()           # (path under src, pragma line, rule)
    trees = {}
    for f in findings:
        rel = os.path.relpath(f.path, root)
        if rel not in trees:
            with open(os.path.join("src", rel), encoding="utf-8") as src:
                trees[rel] = SimpleNamespace(tree=ast.parse(src.read()))
        covered.update((rel, n, f.rule) for n in pragma_lines(trees[rel], f.line))
    idle = [
        f"{path}:{line} allow[{rule}]" for path, line, rule in src_pragmas()
        if (os.path.relpath(path, "src"), line, rule) not in covered
    ]
    assert idle == [], "pragmas that suppress nothing"


#: SCL pragmas ``src`` may carry.  A ratchet: it may only fall (ROADMAP
#: item 3 takes it to 0), so a rewrite of the driver-side binning cannot
#: buy its way past the size-class proof with new exemptions.
SCL_PRAGMA_CEILING = 10


def src_pragmas():
    """``(path, line, rule)`` for every allow-pragma comment in ``src``."""
    for path in discover_files(["src"]):
        with open(path, encoding="utf-8") as src:
            tokens = tokenize.generate_tokens(io.StringIO(src.read()).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    for rule in pragma_rules(tok.string):
                        yield path, tok.start[0], rule


def test_scl_pragmas_in_src_only_fall():
    scl = [p for p in src_pragmas() if p[2].startswith("SCL")]
    assert len(scl) <= SCL_PRAGMA_CEILING, scl


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        text = render(collect(scratch))
    with open(GOLDEN, "w", encoding="utf-8") as out:
        out.write(text)
