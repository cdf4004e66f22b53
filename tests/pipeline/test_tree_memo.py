"""A lent context keeps its kd-tree (`repro.pipeline.memo`): a later fit
on equal points with the same ``leaf_size`` skips the build and the
broadcast, and nothing else about the fit changes."""

import os
import threading

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.engine import SparkContext
from repro.obs import Tracer
from repro.pipeline import stages
from repro.pipeline.memo import TreeMemo

MASTERS = ["local", "threads[2]", "processes[2]"]
EPS = tuple(float(e) for e in range(15, 38, 2))   # the sweep's twelve


def _points(seed=11, n=600):
    return generate_clustered(n=n, d=10, num_clusters=4, cluster_std=8.0,
                              seed=seed).points


def _fit(eps, points, sc=None, **kw):
    return SparkDBSCAN(eps, 5, num_partitions=4, neighbor_mode="batched",
                       **kw).fit(points, sc=sc)


@pytest.fixture
def builds(monkeypatch):
    """Counts the kd-trees the pipeline stages build."""
    real = stages.KDTree
    count = []

    def counting(*args, **kwargs):
        count.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(stages, "KDTree", counting)
    return count


def _issued(sc):
    """Broadcasts the context has issued so far."""
    return sc.broadcast_manager._next_id


@pytest.mark.parametrize("master", MASTERS)
def test_a_sweep_labels_as_own_context_fits(master):
    points = _points()
    own = [_fit(eps, points).labels for eps in EPS]
    with SparkContext(master) as sc:
        lent = [_fit(eps, points, sc).labels for eps in EPS]
        assert _issued(sc) == 1
    for a, b in zip(own, lent):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("master", MASTERS)
def test_a_fit_on_equal_points_builds_and_broadcasts_nothing(master, builds):
    points = _points()
    tracer = Tracer()
    with SparkContext(master, tracer=tracer) as sc:
        first = _fit(25.0, points, sc)
        assert (len(builds), _issued(sc)) == (1, 1)
        again = _fit(31.0, points.copy(), sc)   # equal, not the same array
        assert (len(builds), _issued(sc)) == (1, 1)
    assert first.timings.kdtree_build > 0
    assert again.timings.kdtree_build == 0
    np.testing.assert_array_equal(again.labels, _fit(31.0, points).labels)
    assert len(tracer.find("driver.kdtree_build")) == 1
    reused = [s.labels.get("reused") for s in tracer.find("pipeline.stage")
              if s.labels["stage"] == "BuildIndex"]
    assert reused == [None, True]


@pytest.mark.parametrize("master", MASTERS)
def test_an_in_place_edit_rebuilds(master, builds):
    points = _points()
    with SparkContext(master) as sc:
        _fit(25.0, points, sc)
        points[::7] += 3.0
        got = _fit(25.0, points, sc)
        assert len(builds) == 2
    np.testing.assert_array_equal(got.labels, _fit(25.0, points).labels)


@pytest.mark.parametrize("master", MASTERS)
def test_another_leaf_size_rebuilds(master, builds):
    points = _points()
    with SparkContext(master) as sc:
        _fit(25.0, points, sc)
        got = _fit(25.0, points, sc, leaf_size=16)
        assert (len(builds), _issued(sc)) == (2, 2)
    np.testing.assert_array_equal(
        got.labels, _fit(25.0, points, leaf_size=16).labels)


@pytest.mark.parametrize("master", MASTERS)
def test_a_spatial_fit_between_leaves_both_correct(master, builds):
    points = _points()
    spatial = SpatialSparkDBSCAN(25.0, 5, num_partitions=4,
                                 neighbor_mode="batched")
    with SparkContext(master) as sc:
        before = _fit(25.0, points, sc)
        between = spatial.fit(points, sc=sc)
        after = _fit(25.0, points, sc)
        # The spatial fit built (and rebased) a tree of its own.
        assert (len(builds), _issued(sc)) == (2, 2)
    expected = _fit(25.0, points).labels
    np.testing.assert_array_equal(before.labels, expected)
    np.testing.assert_array_equal(after.labels, expected)
    np.testing.assert_array_equal(between.labels, spatial.fit(points).labels)


def test_two_threads_on_one_lent_context():
    sets = [_points(seed=s) for s in (1, 2)]
    expected = [[_fit(eps, p).labels for eps in EPS[:4]] for p in sets]
    got = [[], []]
    errors = []

    def sweep(k, sc):
        try:
            for eps in EPS[:4]:
                got[k].append(_fit(eps, sets[k], sc).labels)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    with SparkContext("threads[2]") as sc:
        threads = [threading.Thread(target=sweep, args=(k, sc))
                   for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    for want, have in zip(expected, got):
        for a, b in zip(want, have):
            np.testing.assert_array_equal(a, b)


def test_a_replaced_broadcast_outlives_its_last_reader():
    tree, other = object(), object()
    memo = TreeMemo()
    with SparkContext("local") as sc:
        memo.keep(tree)
        b = memo.acquire(sc, tree)
        assert memo.acquire(sc, other) is None
        memo.keep(other)            # a fit on other points replaces it ...
        assert b.value is tree      # ... while this one still reads it
        assert memo.release(b)
        with pytest.raises(RuntimeError, match="unpersisted"):
            b.value
        assert not memo.release(b)


def test_stop_leaves_no_broadcast_file(tmp_path):
    points = _points()
    sc = SparkContext("processes[2]", spill_dir=str(tmp_path))
    try:
        for eps in EPS[:3]:
            _fit(eps, points, sc)
        assert [f for f in os.listdir(tmp_path) if f.startswith("bcast-")]
    finally:
        sc.stop()
    assert not [f for f in os.listdir(tmp_path) if f.startswith("bcast-")]
    assert sc.memos == {}


def _worker_broadcasts(_split, _it):
    from repro.engine import broadcast

    return [(os.getpid(), len(broadcast._local_cache))]


def test_kept_workers_hold_at_most_the_memo_tree():
    with SparkContext("processes[2]") as sc:
        for seed in range(5):
            _fit(25.0, _points(seed=seed), sc)
        probe = sc.parallelize(range(2), 2).map_partitions_with_index(
            _worker_broadcasts).collect()
    assert len({pid for pid, _ in probe}) == 2
    assert all(cached <= 1 for _, cached in probe)
