"""The unified frontend fit contract and the legacy attribute surface."""

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import (
    MapReduceDBSCAN,
    NaiveSparkDBSCAN,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
)
from repro.kdtree import KDTree
from repro.pipeline import PipelineCrash

EPS, MINPTS = 25.0, 5


@pytest.fixture(scope="module")
def points():
    return generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5).points


class TestFitContract:
    """Satellite: every fit is (points, optional sc); tree is keyword-only."""

    def test_tree_is_keyword_only(self, points):
        tree = KDTree(points)
        with pytest.raises(TypeError):
            SparkDBSCAN(EPS, MINPTS).fit(points, None, tree)

    def test_spark_accepts_prebuilt_tree_keyword(self, points):
        tree = KDTree(points)
        with_tree = SparkDBSCAN(EPS, MINPTS, num_partitions=3).fit(
            points, tree=tree
        )
        without = SparkDBSCAN(EPS, MINPTS, num_partitions=3).fit(points)
        assert np.array_equal(with_tree.labels, without.labels)
        assert with_tree.timings.kdtree_build == 0.0

    def test_spatial_warns_and_ignores_tree(self, points):
        tree = KDTree(points)
        with pytest.warns(DeprecationWarning):
            warned = SpatialSparkDBSCAN(EPS, MINPTS, num_partitions=3).fit(
                points, tree=tree
            )
        plain = SpatialSparkDBSCAN(EPS, MINPTS, num_partitions=3).fit(points)
        assert np.array_equal(warned.labels, plain.labels)

    def test_mapreduce_accepts_sc_for_uniformity(self, points, tmp_path):
        result = MapReduceDBSCAN(
            EPS, MINPTS, num_maps=2, startup_overhead=0.0,
            tmp_dir=str(tmp_path),
        ).fit(points, sc=None)
        assert result.labels.shape == (points.shape[0],)


class TestLegacyAttributeSurface:
    def test_spark_attrs_forward_to_config(self):
        model = SparkDBSCAN(EPS, MINPTS, num_partitions=8, seed_policy="all")
        assert model.eps == EPS
        assert model.minpts == MINPTS
        assert model.num_partitions == 8
        assert model.master == "simulated[8]"
        assert model.seed_policy == "all"

    def test_explicit_master_preserved(self):
        model = NaiveSparkDBSCAN(EPS, MINPTS, master="processes[2]")
        assert model.master == "processes[2]"

    def test_mapreduce_num_maps(self, tmp_path):
        model = MapReduceDBSCAN(EPS, MINPTS, num_maps=6,
                                tmp_dir=str(tmp_path))
        assert model.num_maps == 6
        assert model.tmp_dir == str(tmp_path)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            SparkDBSCAN(EPS, MINPTS).warp_drive


class TestFrontendCheckpointing:
    """The checkpoint/resume knobs are reachable from the public API."""

    def test_spark_crash_resume_via_frontend(self, points, tmp_path):
        reference = SparkDBSCAN(EPS, MINPTS, num_partitions=3).fit(points)
        with pytest.raises(PipelineCrash):
            SparkDBSCAN(EPS, MINPTS, num_partitions=3,
                        checkpoint_dir=str(tmp_path),
                        fail_after="CollectPartials").fit(points)
        resumed = SparkDBSCAN(EPS, MINPTS, num_partitions=3,
                              checkpoint_dir=str(tmp_path),
                              resume=True).fit(points)
        assert np.array_equal(resumed.labels, reference.labels)
        assert resumed.num_partial_clusters == reference.num_partial_clusters
        assert resumed.num_seeds == reference.num_seeds
        assert resumed.num_merges == reference.num_merges

    @pytest.mark.parametrize("partitioning", ["range", "cells"])
    @pytest.mark.parametrize(
        "fail_after", ["CollectEdges", "MergeEdges", "ApplyGidMap", None]
    )
    def test_spark_edges_crash_resume_via_frontend(
        self, points, tmp_path, fail_after, partitioning
    ):
        """Edges mode reads its counts off the merge plan, which a
        resume restores even when every later stage is restored too
        (``None``: the first run completes, RelabelFilter included).
        Range partitions run edges mode through `SpatialSparkDBSCAN`."""
        make = SpatialSparkDBSCAN if partitioning == "range" else SparkDBSCAN

        def model(**kw):
            return make(EPS, MINPTS, num_partitions=3, merge_mode="edges",
                        partitioning=partitioning, **kw)

        reference = model().fit(points)
        assert reference.num_partial_clusters > 0 and reference.num_seeds > 0
        first = model(checkpoint_dir=str(tmp_path), fail_after=fail_after)
        if fail_after is None:
            first.fit(points)
        else:
            with pytest.raises(PipelineCrash):
                first.fit(points)
        resumed = model(checkpoint_dir=str(tmp_path), resume=True).fit(points)
        assert np.array_equal(resumed.labels, reference.labels)
        assert resumed.num_partial_clusters == reference.num_partial_clusters
        assert resumed.num_seeds == reference.num_seeds
        assert resumed.num_merges == reference.num_merges

    def test_sequential_crash_resume(self, points, tmp_path):
        from repro.dbscan import dbscan_sequential

        reference = dbscan_sequential(points, EPS, MINPTS)
        resumed_src = dbscan_sequential(points, EPS, MINPTS,
                                        checkpoint_dir=str(tmp_path))
        resumed = dbscan_sequential(points, EPS, MINPTS,
                                    checkpoint_dir=str(tmp_path), resume=True)
        assert np.array_equal(resumed_src.labels, reference.labels)
        assert np.array_equal(resumed.labels, reference.labels)
