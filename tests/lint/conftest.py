"""Fixtures shared by the lint tests."""

import time

import pytest

from repro.lint import run_lint

from .fixture_sources import package_files, write_files

#: Wall-clock budget of one whole-source scan (project build, CFG
#: corpus, typestate and size-class fixpoints).  It takes ~3 s locally;
#: the ~50x headroom is for shared CI runners, so only an accidentally
#: super-linear analysis trips it — as a test failure, not as a slowly
#: rotting gate.
SELF_SCAN_BUDGET_S = 150


@pytest.fixture()
def package(tmp_path):
    """Write a package of modules and lint it as one project."""

    def _make(files: dict[str, str]):
        write_files(tmp_path, package_files(files))
        return run_lint([str(tmp_path / "pkg")]).findings

    return _make


@pytest.fixture(scope="session")
def src_report():
    """The one scan of the unmodified ``src`` tree, shared by every
    test that gates on it."""
    start = time.perf_counter()
    report = run_lint(["src"], collect_stats=True)
    elapsed = time.perf_counter() - start
    assert elapsed <= SELF_SCAN_BUDGET_S, (
        f"lint runtime budget exceeded: {elapsed:.0f}s > {SELF_SCAN_BUDGET_S}s"
    )
    return report
