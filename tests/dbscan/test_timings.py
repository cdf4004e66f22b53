"""Timings/result dataclass semantics used by every figure."""

import numpy as np
import pytest

from repro.dbscan import NOISE, ClusteringResult, SpatialSparkDBSCAN, Timings
from repro.obs import Tracer


class TestTimings:
    def test_driver_time_components(self):
        t = Timings(kdtree_build=1.0, setup=0.5, driver_merge=2.0)
        assert t.driver_time == 3.5

    def test_parallel_wall(self):
        t = Timings(kdtree_build=1.0, driver_merge=1.0, executor_max=4.0)
        assert t.parallel_wall() == 6.0

    def test_defaults_zero(self):
        t = Timings()
        assert t.driver_time == 0.0
        assert t.executor_task_durations == []


    @pytest.mark.parametrize("merge_mode", ["partials", "edges"])
    def test_spatial_fit_books_its_one_build_as_build(
        self, blobs_small, merge_mode, monkeypatch
    ):
        """The reorder *is* the tree build: one ``driver.kdtree_build``
        span, and ``kdtree_build`` (Fig 5's numerator) covers every
        second the fit spends constructing a tree."""
        import time

        from repro.kdtree import KDTree

        init, constructing = KDTree.__init__, []

        def timed_init(self, *args, **kwargs):
            t0 = time.perf_counter()
            init(self, *args, **kwargs)
            constructing.append(time.perf_counter() - t0)

        monkeypatch.setattr(KDTree, "__init__", timed_init)
        tracer = Tracer()
        t = SpatialSparkDBSCAN(
            25.0, 5, num_partitions=4, merge_mode=merge_mode, tracer=tracer,
        ).fit(blobs_small.points).timings
        builds = [s for s in tracer.spans if s.name == "driver.kdtree_build"]
        assert len(builds) == 1
        assert sum(constructing) <= t.kdtree_build <= builds[0].duration
        assert t.driver_time == t.kdtree_build + t.setup + t.driver_merge


class TestClusteringResult:
    def _result(self):
        labels = np.array([0, 0, 1, NOISE, 1, 1, NOISE])
        return ClusteringResult(labels=labels)

    def test_counts(self):
        r = self._result()
        assert r.n == 7
        assert r.num_clusters == 2
        assert r.num_noise == 2

    def test_cluster_sizes(self):
        assert self._result().cluster_sizes() == {0: 2, 1: 3}

    def test_summary_mentions_counts(self):
        s = self._result().summary()
        assert "2 clusters" in s
        assert "2 noise" in s

    def test_all_noise(self):
        r = ClusteringResult(labels=np.full(5, NOISE))
        assert r.num_clusters == 0
        assert r.num_noise == 5
        assert r.cluster_sizes() == {}

    def test_empty(self):
        r = ClusteringResult(labels=np.empty(0, dtype=np.int64))
        assert r.n == 0
        assert r.num_clusters == 0
