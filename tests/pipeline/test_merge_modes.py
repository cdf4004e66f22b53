"""merge_mode="edges" vs "partials": byte-identical labels, identical
merge statistics, and driver-collect telemetry that scales with the
boundary rather than the point count (DESIGN.md §11)."""

import numpy as np
import pytest

from repro.data import generate_clustered, generate_skewed, make_dataset
from repro.dbscan import PartialCluster, SparkDBSCAN, SpatialSparkDBSCAN
from repro.obs import MetricsRegistry, TraceReport, Tracer

EPS, MINPTS = 25.0, 5


@pytest.fixture(scope="module")
def points():
    return generate_clustered(n=600, num_clusters=4, cluster_std=8.0,
                              seed=17).points


def fit(points, frontend=SparkDBSCAN, **kw):
    kw.setdefault("num_partitions", 4)
    reg = MetricsRegistry()
    result = frontend(EPS, MINPTS, metrics_registry=reg, **kw).fit(points)
    return result, reg


@pytest.mark.parametrize("merge_mode", ["partials", "edges"])
@pytest.mark.parametrize("frontend,extra", [
    (SparkDBSCAN, {}),
    (SpatialSparkDBSCAN, {}),
    (SparkDBSCAN, {"partitioning": "cells"}),
], ids=["spark", "spatial", "cell"])
def test_the_run_path_builds_no_partial_cluster(points, frontend, extra,
                                                merge_mode, tmp_path,
                                                monkeypatch):
    """One `ClusterTable` per task carries every cluster from the kernel
    through the accumulator, the collect checkpoint, the merge and the
    label application: a traced, metered, checkpointed fit never builds
    a `PartialCluster` view."""
    base, _ = fit(points, frontend, merge_mode=merge_mode, **extra)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a PartialCluster was built on the run path")

    monkeypatch.setattr(PartialCluster, "__init__", refuse)
    got, _ = fit(points, frontend, merge_mode=merge_mode, tracer=Tracer(),
                 checkpoint_dir=str(tmp_path), **extra)
    np.testing.assert_array_equal(got.labels, base.labels)


class TestLabelEquivalence:
    @pytest.mark.parametrize("frontend,extra", [
        (SparkDBSCAN, {}),
        (SpatialSparkDBSCAN, {}),
        (SparkDBSCAN, {"partitioning": "cells"}),
    ], ids=["spark", "spatial", "cell"])
    def test_edges_byte_identical_to_partials(self, points, frontend, extra):
        base, _ = fit(points, frontend, **extra)
        edge, _ = fit(points, frontend, merge_mode="edges", **extra)
        np.testing.assert_array_equal(edge.labels, base.labels)
        assert edge.num_merges == base.num_merges
        assert edge.num_clusters == base.num_clusters
        assert edge.num_partial_clusters == base.num_partial_clusters

    @pytest.mark.parametrize("master", ["threads[2]", "processes[2]"])
    def test_edges_backend_invariant(self, points, master):
        base, _ = fit(points)
        edge, _ = fit(points, master=master, merge_mode="edges")
        np.testing.assert_array_equal(edge.labels, base.labels)

    @pytest.mark.parametrize("mode", ["per_point", "batched"])
    def test_neighbor_modes_agree(self, points, mode):
        base, _ = fit(points, neighbor_mode=mode)
        edge, _ = fit(points, neighbor_mode=mode, merge_mode="edges")
        np.testing.assert_array_equal(edge.labels, base.labels)

    def test_skewed_data(self):
        pts = generate_skewed(2000, shuffle=False).points
        base, _ = fit(pts)
        edge, _ = fit(pts, merge_mode="edges")
        np.testing.assert_array_equal(edge.labels, base.labels)

    def test_min_cluster_size(self, points):
        base, _ = fit(points, min_cluster_size=4)
        edge, _ = fit(points, min_cluster_size=4, merge_mode="edges")
        np.testing.assert_array_equal(edge.labels, base.labels)


class TestMergeTelemetry:
    def test_outcome_stats_surface_as_gauges(self, points):
        for mode in ("partials", "edges"):
            _, reg = fit(points, merge_mode=mode)
            merges = reg.get("repro_merge_merges")
            clusters = reg.get("repro_merge_global_clusters")
            assert merges is not None and clusters is not None
            assert clusters.value() > 0

    def test_edge_counter_only_in_edges_mode(self, points):
        _, reg_base = fit(points)
        _, reg_edge = fit(points, merge_mode="edges")
        assert reg_base.get("repro_merge_edges_total") is None
        edges = reg_edge.get("repro_merge_edges_total")
        assert edges is not None and edges.value() >= 0

    def test_collect_bytes_edges_below_partials_on_10k(self):
        """The tentpole's point, asserted via the counters: on a 10k
        spatially-partitioned run the edge digest ships less than the
        whole partial clusters — collect cost follows the boundary."""
        pts = generate_clustered(n=10_000, num_clusters=10, cluster_std=8.0,
                                 seed=29).points
        _, reg_base = fit(pts, SpatialSparkDBSCAN)
        _, reg_edge = fit(pts, SpatialSparkDBSCAN, merge_mode="edges")
        base_bytes = int(reg_base.get("repro_driver_collect_bytes").value())
        edge_bytes = int(reg_edge.get("repro_driver_collect_bytes").value())
        assert 0 < edge_bytes < base_bytes

    def test_exact_counts_on_c10k(self):
        """The run is deterministic, so its counts are pinned exactly:
        c10k at paper size, batched kernel, 4 range partitions.  The
        broadcast is only serialized (and so only sized) on a process
        backend, and the tree carries its coordinates once
        (`KDTree.__getstate__`).  Tasks ship only up-pointing seeds:
        14 194 of the 28 415 the partials reach, and 77 866 collect bytes
        where full seeds took 118 638."""
        pts = make_dataset("c10k", scale=1.0).points
        assert pts.shape == (10_000, 10)
        tracer = Tracer()
        result, reg = fit(pts, neighbor_mode="batched", master="processes[2]",
                          tracer=tracer)
        report = TraceReport.from_events([s.to_event() for s in tracer.spans])
        assert result.num_partial_clusters == report.total_partials == 129
        assert result.num_seeds == 14_194
        assert int(reg.get("repro_driver_collect_bytes").value()) == 77_866
        assert report.broadcast_bytes == 893_161
        assert report.num_executor_spans == 4
