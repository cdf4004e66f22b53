"""Every frontend must equal its plan composition, byte for byte.

The frontends are shims over the pipeline, so this is the contract that
keeps them honest: running the plan directly through `PipelineRunner`
and running the public ``fit`` API must produce identical labels (and
identical partials / OpCounters where the frontend exposes them).
"""

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import (
    MapReduceDBSCAN,
    NaiveSparkDBSCAN,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    dbscan_sequential,
)
from repro.obs import MetricsRegistry
from repro.pipeline import PipelineRunner, RunConfig, build_plan

EPS, MINPTS = 25.0, 5


@pytest.fixture(scope="module")
def points():
    return generate_clustered(n=500, num_clusters=4, cluster_std=8.0, seed=11).points


def plan_labels(config, points, **runner_kw):
    runner = PipelineRunner(build_plan(config), config, **runner_kw)
    return runner.run(points)


class TestFrontendEqualsPlan:
    def test_spark(self, points):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="spark",
                           num_partitions=4)
        state = plan_labels(config, points)
        result = SparkDBSCAN(EPS, MINPTS, num_partitions=4).fit(points)
        assert np.array_equal(state.labels, result.labels)
        assert len(state.partials) == result.num_partial_clusters
        assert state.outcome.num_merges == result.num_merges

    def test_spark_keeps_partials_identical(self, points):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="spark",
                           num_partitions=4, keep_partials=True)
        state = plan_labels(config, points)
        result = SparkDBSCAN(EPS, MINPTS, num_partitions=4,
                             keep_partials=True).fit(points)
        key = lambda c: (c.partition, c.local_id)  # noqa: E731
        assert [key(c) for c in state.partials] == [key(c) for c in result.partials]
        for a, b in zip(state.partials, result.partials):
            assert a.members == b.members
            assert a.seeds.tolist() == b.seeds.tolist()
            assert a.borders == b.borders

    def test_spatial(self, points):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="spatial",
                           num_partitions=4)
        state = plan_labels(config, points)
        result = SpatialSparkDBSCAN(EPS, MINPTS, num_partitions=4).fit(points)
        assert np.array_equal(state.labels, result.labels)
        assert np.array_equal(state.perm, result.perm)

    def test_naive(self, points):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="naive",
                           num_partitions=2)
        state = plan_labels(config, points)
        result = NaiveSparkDBSCAN(EPS, MINPTS, num_partitions=2).fit(points)
        assert np.array_equal(state.labels, result.labels)
        assert state.extras["shuffle_rounds"] == result.shuffle_rounds
        assert state.extras["shuffle_bytes"] == result.shuffle_bytes

    def test_mapreduce(self, points, tmp_path):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="mapreduce",
                           num_partitions=3, startup_overhead=0.0,
                           tmp_dir=str(tmp_path / "plan"))
        state = plan_labels(config, points)
        result = MapReduceDBSCAN(EPS, MINPTS, num_maps=3, startup_overhead=0.0,
                                 tmp_dir=str(tmp_path / "front")).fit(points)
        assert np.array_equal(state.labels, result.labels)
        assert state.extras["mr_merge_info"]["num_partials"] == \
            result.num_partial_clusters

    @pytest.mark.parametrize("impl", ["array", "hashtable"])
    @pytest.mark.parametrize("mode", ["per_point", "batched"])
    def test_sequential(self, points, impl, mode):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="sequential",
                           num_partitions=1, impl=impl, neighbor_mode=mode)
        state = plan_labels(config, points)
        result = dbscan_sequential(points, EPS, MINPTS, impl=impl,
                                   neighbor_mode=mode)
        assert np.array_equal(state.labels, result.labels)

    def test_all_frontends_agree(self, points, tmp_path):
        """Cross-frontend: the five plan compositions find one clustering."""
        from repro.dbscan import clusterings_equivalent

        seq_labels = dbscan_sequential(points, EPS, MINPTS).labels
        others = [
            SparkDBSCAN(EPS, MINPTS, num_partitions=4).fit(points).labels,
            SpatialSparkDBSCAN(EPS, MINPTS, num_partitions=4).fit(points).labels,
            NaiveSparkDBSCAN(EPS, MINPTS, num_partitions=2).fit(points).labels,
            MapReduceDBSCAN(EPS, MINPTS, num_maps=3, startup_overhead=0.0,
                            tmp_dir=str(tmp_path)).fit(points).labels,
        ]
        for labels in others:
            assert clusterings_equivalent(seq_labels, labels, points, EPS,
                                          MINPTS)

    def test_op_counters_identical(self, points):
        config = RunConfig(eps=EPS, minpts=MINPTS, plan="spark",
                           num_partitions=4)
        reg_plan, reg_front = MetricsRegistry(), MetricsRegistry()
        plan_labels(config, points, metrics_registry=reg_plan)
        SparkDBSCAN(EPS, MINPTS, num_partitions=4,
                    metrics_registry=reg_front).fit(points)
        ops_plan = reg_plan.get("repro_dbscan_ops_total")
        ops_front = reg_front.get("repro_dbscan_ops_total")
        assert ops_plan._values == ops_front._values
