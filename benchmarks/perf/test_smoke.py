"""Smoke test of the benchmark itself.

Not collected by Tier-1 (``testpaths = ["tests"]``); run it explicitly::

    pytest benchmarks/perf -q

It runs ``run.py --smoke`` once (every workload at n/16, one repeat,
under a minute) and checks the output against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke() -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    with open(HERE / "results" / "result_smoke.json") as fh:
        return json.load(fh), proc.stdout


def test_spec_limits(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    # Only set-up may use the driver's ceiling; a gated metric is never
    # widened past 0.15 (raise the repeats instead).
    assert bounds.pop("setup_s") <= 0.25
    assert all(0 < bound <= 0.15 for bound in bounds.values()), bounds


def test_every_workload_and_metric_is_reported(spec, smoke):
    doc, stdout = smoke
    assert list(doc["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, entry in doc["workloads"].items():
        assert name in stdout
        for metric in spec["end_to_end"]:
            assert entry["end_to_end"][metric["name"]]["value"] > 0, metric
            assert f"`{metric['name']}`" in stdout
        for metric in spec["per_layer"]:
            assert metric["name"] in entry["per_layer"], metric
            assert f"`{metric['name']}`" in stdout


def test_runs_are_correct_and_attributed(smoke):
    doc, _ = smoke
    for name, entry in doc["workloads"].items():
        assert entry["failed"] == 0, name
        assert entry["attempted"] >= 1, name
        assert all(v["ok"] for v in entry["oracle"]), name
        assert entry["per_layer"]["pipeline.residual_frac"] <= 0.10, name


def test_oracle_that_crashes_is_a_rejection(tmp_path):
    fits = [{"eps": 1.0, "labels": "a.npy"}, {"eps": 2.0, "labels": "b.npy"}]
    verdicts, _, _ = run.ask_oracle(tmp_path / "missing.npy", fits, tmp_path)
    assert [v["eps"] for v in verdicts] == [1.0, 2.0]
    assert not any(v["ok"] for v in verdicts)
    assert all("did not answer" in v["reason"] for v in verdicts)


def test_compare_wants_equal_settings(spec, smoke, tmp_path, capsys):
    doc, _ = smoke
    same = HERE / "results" / "result_smoke.json"
    assert run.compare(same, same, spec) == 0
    for key, other in (("scale", 1.0), ("seed", doc["seed"] + 1)):
        changed = tmp_path / f"{key}.json"
        changed.write_text(json.dumps({**doc, key: other}))
        assert run.compare(same, changed, spec) == 2
    assert "not comparable" in capsys.readouterr().err
