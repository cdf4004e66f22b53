"""Fits on kept and lent `processes[2]` contexts, each in an interpreter
of its own (so no other test's pool is among its children) at
``REPRO_SCALE=0.05``, in a fresh directory.

Run one step by hand::

    PYTHONPATH=src:. REPRO_SCALE=0.05 python -m tests.ci.test_lent_processes kept_pool
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def kept_pool():
    """Five fits that each own a processes[2] context, in one
    interpreter: every fit leases the same two workers, its labels equal
    the local fit's, no third worker process ever exists, and the idle
    workers do not hold up interpreter exit (the caller's timeout)."""
    import multiprocessing

    import numpy as np

    from repro.data import dataset_spec, make_dataset
    from repro.dbscan import SparkDBSCAN

    spec = dataset_spec("c10k")
    points = make_dataset("c10k").points

    def fit(master):
        return SparkDBSCAN(spec.eps, spec.minpts, num_partitions=4,
                           master=master).fit(points).labels

    expected = fit("local")
    workers = set()
    for i in range(5):
        assert np.array_equal(fit("processes[2]"), expected), i
        children = multiprocessing.active_children()
        assert len(children) <= 2, children
        workers |= {p.pid for p in children}
    assert len(workers) == 2, workers
    print(f"c10k at {spec.n} points: 5 fits on workers "
          f"{sorted(workers)}, labels equal local's")


def _cached_blocks(_split, _it):
    from repro.engine import executor

    bm = executor._worker_block_manager
    return [(os.getpid(), 0 if bm is None else bm.num_memory_blocks)]


def edges_fits():
    """Four edge-merge fits on one context: each job's tasks rebuild
    their stage's lineage from one task binary plus their own split, and
    ApplyGidMap's second job recomputes any partition its worker did not
    cache.  Every fit's labels equal the local fit's, and a probe job
    after each fit finds no cached block in either worker: the fit's
    unpersist reached them."""
    import numpy as np

    from repro.data import dataset_spec, make_dataset
    from repro.dbscan import SpatialSparkDBSCAN
    from repro.engine import SparkContext

    spec = dataset_spec("c10k")
    points = make_dataset("c10k").points
    model = SpatialSparkDBSCAN(spec.eps, spec.minpts, num_partitions=4,
                               merge_mode="edges")

    expected = model.fit(points).labels
    with SparkContext("processes[2]") as sc:
        for i in range(4):
            assert np.array_equal(model.fit(points, sc=sc).labels, expected), i
            probe = sc.parallelize(range(2), 2).map_partitions_with_index(
                _cached_blocks).collect()
            assert len({pid for pid, _ in probe}) == 2, probe
            assert all(blocks == 0 for _, blocks in probe), (i, probe)
    print(f"c10k at {spec.n} points: 4 edges fits on one processes[2] "
          "context, labels equal local's, no block left in a worker")


def _cached_broadcasts(_split, _it):
    from repro.engine import broadcast

    return [(os.getpid(), len(broadcast._local_cache))]


def eps_sweep():
    """Six eps values over one dataset on one context: the context's
    memo keeps the kd-tree, so the sweep builds one tree (one
    driver.kdtree_build span) and every fit's labels equal its own local
    fit's.  A last fit on other points replaces the memo's tree, and a
    probe job then finds at most that tree cached in either worker: the
    replaced broadcast's release reached them.  Eight partitions on two
    workers, so every fit's jobs run attempts queued behind running
    ones."""
    import numpy as np

    from repro.data import dataset_spec, make_dataset
    from repro.dbscan import SparkDBSCAN
    from repro.engine import SparkContext
    from repro.obs import Tracer

    spec = dataset_spec("c10k")
    points = make_dataset("c10k").points
    sweep = [spec.eps * f for f in (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)]

    def model(eps):
        return SparkDBSCAN(eps, spec.minpts, num_partitions=8)

    tracer = Tracer()
    with SparkContext("processes[2]", tracer=tracer) as sc:
        for eps in sweep:
            got = model(eps).fit(points, sc=sc).labels
            assert np.array_equal(got, model(eps).fit(points).labels), eps
        builds = len(tracer.find("driver.kdtree_build"))
        assert builds == 1, builds
        model(spec.eps).fit(points[::2], sc=sc)
        probe = sc.parallelize(range(2), 2).map_partitions_with_index(
            _cached_broadcasts).collect()
        assert len({pid for pid, _ in probe}) == 2, probe
        assert all(cached <= 1 for _, cached in probe), probe
    print(f"c10k at {spec.n} points: {len(sweep)} eps on one "
          "processes[2] context, one tree build, labels equal "
          "local's, at most one broadcast left in a worker")


STEPS = {"kept_pool": kept_pool, "edges_fits": edges_fits, "eps_sweep": eps_sweep}


@pytest.mark.parametrize("step", sorted(STEPS))
def test_step(step, tmp_path):
    env = {**os.environ, "REPRO_SCALE": "0.05",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run(
        [sys.executable, "-m", "tests.ci.test_lent_processes", step],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    print(done.stdout, end="")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("c10k at 500 points: ")


if __name__ == "__main__":
    STEPS[sys.argv[1]]()
