"""Fixtures shared by the lint tests."""

import pytest

from repro.lint import run_lint

from .fixture_sources import package_files, write_files


@pytest.fixture()
def package(tmp_path):
    """Write a package of modules and lint it as one project."""

    def _make(files: dict[str, str]):
        write_files(tmp_path, package_files(files))
        return run_lint([str(tmp_path / "pkg")]).findings

    return _make
