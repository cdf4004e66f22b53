"""The one shipping rule (`executor.dumps`): C pickle first, cloudpickle
when C pickle raises or its bytes name ``__main__``.  Whatever C pickle
cannot ship still reaches a worker and comes back."""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.engine import SparkContext
from repro.engine.executor import dumps

SRC = Path(__file__).resolve().parents[2] / "src"

#: A pool forked before ``late`` and ``Late`` exist in ``__main__``: a
#: second context leases it, and its tasks can only get them by value.
LATE_DEFINITIONS = textwrap.dedent("""
    from repro.engine import SparkContext

    with SparkContext("processes[2]") as sc:
        assert sc.parallelize(range(2), 2).collect() == [0, 1]

    def late(x):
        return x + 1

    class Late:
        def __init__(self, v):
            self.v = v

    with SparkContext("processes[2]") as sc:
        assert sc.parallelize(range(4), 2).map(late).collect() == [1, 2, 3, 4]
        got = sc.parallelize([Late(i) for i in range(4)], 2).collect()
        assert [(type(g).__name__, g.v) for g in got] == [
            ("Late", i) for i in range(4)]
    print("late definitions shipped")
""")


def test_main_definitions_made_after_the_fork_reach_the_kept_pool(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", LATE_DEFINITIONS], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "late definitions shipped"


def test_a_result_holding_a_lambda_returns():
    with SparkContext("processes[2]") as sc:
        got = sc.parallelize(range(4), 2).map(lambda x: (lambda: x * x)).collect()
    assert [f() for f in got] == [0, 1, 4, 9]


def test_a_task_closing_over_a_local_function_returns():
    def double(x):
        return 2 * x

    with SparkContext("processes[2]") as sc:
        got = sc.parallelize(range(4), 2).map(lambda x: double(x)).collect()
    assert got == [0, 2, 4, 6]


def test_dumps_takes_c_pickle_unless_it_raises():
    plain = {"ids": list(range(5)), "join": os.path.join}
    assert dumps(plain) == (pickle.dumps(plain, pickle.HIGHEST_PROTOCOL), "pickle")
    data, codec = dumps(lambda: 1)
    assert codec == "cloudpickle" and pickle.loads(data)() == 1


def test_dumps_ships_what_names_main_by_value(monkeypatch):
    def probe():
        return 7

    probe.__module__, probe.__qualname__ = "__main__", "shipped_probe"
    monkeypatch.setattr(sys.modules["__main__"], "shipped_probe", probe, raising=False)
    assert b"__main__" in pickle.dumps(probe)   # C pickle would name it
    data, codec = dumps(probe)
    assert codec == "cloudpickle" and b"shipped_probe" in data
    monkeypatch.delattr(sys.modules["__main__"], "shipped_probe")
    assert pickle.loads(data)() == 7
