"""The run path's stage binaries ship their task functions by reference.

Each `processes[n]` task unpickles its stage binary (`Task.stage_part`);
a function cloudpickled by value adds its code object to every one of
those unpickles.  The stages bind module-level task functions with
`functools.partial`, and the accumulator params use builtins, so no
stage binary of a shipping plan rebuilds a function from its code, and
C pickle ships every binary, task part and outcome of those plans
(`executor.dumps` never falls back to cloudpickle on them).
"""

import pickle
import pickletools

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.engine import SparkContext, backends
from repro.obs import Tracer

EPS, MINPTS = 25.0, 5
POINTS = generate_clustered(n=600, d=2, num_clusters=4, seed=3).points

#: One model per shipping plan: the range head, the edges tail
#: (`ApplyGidMap`'s second job) and the cell head.
PLANS = {
    "spark": lambda **kw: SparkDBSCAN(EPS, MINPTS, num_partitions=4, **kw),
    "spatial_edges": lambda **kw: SpatialSparkDBSCAN(
        EPS, MINPTS, num_partitions=4, merge_mode="edges", **kw),
    "cell": lambda **kw: SparkDBSCAN(
        EPS, MINPTS, num_partitions=4, partitioning="cells", **kw),
}


def functions_by_value(binary: bytes) -> int:
    """How often the pickle names cloudpickle's `_make_function`, the
    reducer of a function shipped with its code."""
    return sum(arg == "_make_function"
               for _op, arg, _pos in pickletools.genops(binary))


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_no_stage_binary_holds_a_function_by_value(plan, monkeypatch):
    binaries = []
    pack = backends._pack

    def spy(tasks):
        packed = pack(tasks)
        binaries.extend(b for b, _part in packed if b not in binaries)
        return packed

    monkeypatch.setattr(backends, "_pack", spy)
    with SparkContext("processes[2]") as sc:
        labels = PLANS[plan]().fit(POINTS, sc=sc).labels
    assert binaries
    assert [functions_by_value(b) for b in binaries] == [0] * len(binaries)
    assert np.array_equal(labels, PLANS[plan]().fit(POINTS).labels)


@pytest.mark.parametrize("plan", sorted(PLANS))
def test_every_message_of_a_fit_is_plain_c_pickle(plan, monkeypatch):
    exact = []
    pack = backends._pack

    def spy(tasks):
        packed = pack(tasks)
        exact.extend(
            (binary == pickle.dumps(task.stage_part(), pickle.HIGHEST_PROTOCOL),
             part == pickle.dumps(task.own_part(), pickle.HIGHEST_PROTOCOL))
            for task, (binary, part) in zip(tasks, packed)
        )
        return packed

    monkeypatch.setattr(backends, "_pack", spy)
    tracer = Tracer()
    with SparkContext("processes[2]") as sc:
        PLANS[plan](tracer=tracer).fit(POINTS, sc=sc)
    assert exact and set(exact) == {(True, True)}
    # Every outcome, LocalExpand's included, names the codec that made it.
    codecs = [s.labels["codec"] for s in tracer.find("task.serialize")]
    assert len(tracer.find("task.run")) == len(codecs) == len(exact)
    assert set(codecs) == {"pickle"}
