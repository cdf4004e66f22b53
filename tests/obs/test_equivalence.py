"""Tracing must be observational only: traced runs produce byte-identical
labels to untraced runs, and the trace agrees with the result object."""

import numpy as np
import pytest

from repro.dbscan import (
    MapReduceDBSCAN,
    NaiveSparkDBSCAN,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    dbscan_sequential,
)
from repro.dbscan.merge import SEED_BLOCK_ROWS
from repro.obs import MetricsRegistry, TraceReport, Tracer

EPS, MINPTS = 25.0, 5


class TestLabelEquivalence:
    def test_sequential(self, blobs_small):
        plain = dbscan_sequential(blobs_small.points, EPS, MINPTS)
        traced = dbscan_sequential(blobs_small.points, EPS, MINPTS,
                                   tracer=Tracer())
        assert np.array_equal(plain.labels, traced.labels)

    @pytest.mark.parametrize("cls", [SparkDBSCAN, SpatialSparkDBSCAN])
    def test_partitioned(self, cls, blobs_small):
        plain = cls(EPS, MINPTS, num_partitions=3).fit(blobs_small.points)
        tracer = Tracer()
        registry = MetricsRegistry()
        traced = cls(
            EPS, MINPTS, num_partitions=3, tracer=tracer,
            metrics_registry=registry,
        ).fit(blobs_small.points)
        assert np.array_equal(plain.labels, traced.labels)
        assert traced.num_partial_clusters == plain.num_partial_clusters
        # the OpCounters accumulator fed the registry without perturbing labels
        assert registry.get("repro_dbscan_ops_total") is not None

    def test_naive(self, blobs_small):
        plain = NaiveSparkDBSCAN(EPS, MINPTS, num_partitions=2).fit(
            blobs_small.points
        )
        traced = NaiveSparkDBSCAN(EPS, MINPTS, num_partitions=2,
                                  tracer=Tracer()).fit(blobs_small.points)
        assert np.array_equal(plain.labels, traced.labels)

    def test_mapreduce(self, blobs_small, tmp_path):
        plain = MapReduceDBSCAN(
            EPS, MINPTS, num_maps=2, startup_overhead=0.0,
            tmp_dir=str(tmp_path / "a"),
        ).fit(blobs_small.points)
        traced = MapReduceDBSCAN(
            EPS, MINPTS, num_maps=2, startup_overhead=0.0,
            tmp_dir=str(tmp_path / "b"), tracer=Tracer(),
        ).fit(blobs_small.points)
        assert np.array_equal(plain.labels, traced.labels)


class TestTraceAgreesWithResult:
    def test_spark_trace_matches_result(self, blobs_small):
        tracer = Tracer()
        res = SparkDBSCAN(EPS, MINPTS, num_partitions=4, tracer=tracer).fit(
            blobs_small.points
        )
        report = TraceReport.from_tracer(tracer)
        assert report.num_executor_spans == 4
        assert report.total_partials == res.num_partial_clusters
        assert report.merge_stats["num_partials"] == res.num_partial_clusters
        assert report.executor_max_s <= report.executor_total_s
        assert report.kdtree_build_s > 0.0
        assert report.driver_phases.keys() >= {
            "driver.kdtree_build", "driver.setup", "driver.merge",
        }

    @pytest.mark.parametrize("merge_mode", ["partials", "edges"])
    def test_merge_span_carries_the_join_stats(self, blobs_small, merge_mode):
        tracer = Tracer()
        res = SparkDBSCAN(EPS, MINPTS, num_partitions=4, tracer=tracer,
                          merge_mode=merge_mode).fit(blobs_small.points)
        stats = TraceReport.from_tracer(tracer).merge_stats
        # One block holds this fit's seeds; every merge took a live pair.
        assert 0 < res.num_seeds <= SEED_BLOCK_ROWS
        assert stats["seed_blocks"] == 1
        assert stats["live_pairs"] >= res.num_merges > 0

    def test_external_context_tracer_is_adopted(self, blobs_small):
        from repro.engine import SparkContext

        tracer = Tracer()
        sc = SparkContext("simulated[2]", tracer=tracer)
        try:
            SparkDBSCAN(EPS, MINPTS, num_partitions=2).fit(
                blobs_small.points, sc=sc
            )
        finally:
            sc.stop()
        names = {s.name for s in tracer.spans}
        assert "dbscan.fit" in names
        assert "executor.partition_expand" in names
