"""Smoke tests: the example scripts must run end-to-end.

Each example asserts its own domain claims internally; here we execute
the quick ones in-process and check they complete.  The heavyweight
examples (quickstart, anomaly_detection, scaling_study) are exercised
implicitly by the benchmarks; we still compile-check them.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "engine_tour.py",
    "fault_tolerance_demo.py",
]

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # it reported something


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_compiles(name):
    source = (EXAMPLES_DIR / name).read_text()
    compile(source, name, "exec")


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "geospatial_hotspots.py",
        "anomaly_detection.py",
        "fault_tolerance_demo.py",
        "scaling_study.py",
        "engine_tour.py",
        "parameter_tuning.py",
    } <= set(ALL_EXAMPLES)
