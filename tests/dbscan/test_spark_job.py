"""SparkDBSCAN end-to-end: equivalence, timing split, partial-cluster stats."""

import numpy as np
import pytest

from repro.dbscan import (
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    clusterings_equivalent,
    dbscan_sequential,
)
from repro.engine import SparkContext


@pytest.fixture(scope="module")
def seq_result(blobs_medium_module, blobs_medium_tree_module):
    return dbscan_sequential(
        blobs_medium_module.points, 25.0, 5, tree=blobs_medium_tree_module
    )


# Module-scoped clones of the session fixtures (pytest cannot mix scopes
# with the plain names, so re-derive here).
@pytest.fixture(scope="module")
def blobs_medium_module():
    from repro.data import generate_clustered

    return generate_clustered(n=2500, num_clusters=6, cluster_std=8.0, seed=7)


@pytest.fixture(scope="module")
def blobs_medium_tree_module(blobs_medium_module):
    from repro.kdtree import KDTree

    return KDTree(blobs_medium_module.points)


class TestEquivalenceWithSequential:
    """Paper claim (Section V): parallel result == serial result."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_all_policy_exact(self, p, blobs_medium_module, blobs_medium_tree_module, seq_result):
        res = SparkDBSCAN(25.0, 5, num_partitions=p).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        ok, why = clusterings_equivalent(
            seq_result.labels, res.labels, blobs_medium_module.points,
            25.0, 5, tree=blobs_medium_tree_module,
        )
        assert ok, why

    def test_cluster_and_noise_counts_match(self, blobs_medium_module,
                                            blobs_medium_tree_module, seq_result):
        res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert res.num_clusters == seq_result.num_clusters
        assert res.num_noise == seq_result.num_noise

    def test_one_per_partition_policy_same_clusters_more_noise(
        self, blobs_medium_module, blobs_medium_tree_module, seq_result
    ):
        """The paper-literal seed cap keeps the cluster structure but may
        orphan cross-partition border points (DESIGN.md §4)."""
        res = SparkDBSCAN(25.0, 5, num_partitions=4,
                          seed_policy="one_per_partition").fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert res.num_clusters == seq_result.num_clusters
        assert res.num_noise >= seq_result.num_noise

    def test_paper_merge_strategy_equivalent_on_dense_clusters(
        self, blobs_medium_module, blobs_medium_tree_module, seq_result
    ):
        res = SparkDBSCAN(25.0, 5, num_partitions=4,
                          merge_strategy="paper").fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        ok, why = clusterings_equivalent(
            seq_result.labels, res.labels, blobs_medium_module.points,
            25.0, 5, tree=blobs_medium_tree_module,
        )
        assert ok, why


class TestPartialClusterStats:
    def test_partials_grow_with_partitions(self, blobs_medium_module,
                                           blobs_medium_tree_module):
        """Figure 6's x-axis phenomenon: more cores → more partial clusters."""
        counts = []
        for p in (1, 2, 4, 8):
            res = SparkDBSCAN(25.0, 5, num_partitions=p).fit(
                blobs_medium_module.points, tree=blobs_medium_tree_module
            )
            counts.append(res.num_partial_clusters)
        assert counts[0] <= counts[1] <= counts[2] <= counts[3]
        assert counts[3] > counts[0]

    def test_single_partition_no_seeds(self, blobs_medium_module,
                                       blobs_medium_tree_module):
        res = SparkDBSCAN(25.0, 5, num_partitions=1).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert res.num_seeds == 0
        assert res.num_merges == 0

    def test_keep_partials_exposes_them(self, blobs_medium_module,
                                        blobs_medium_tree_module):
        res = SparkDBSCAN(25.0, 5, num_partitions=3, keep_partials=True).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert res.partials is not None
        assert len(res.partials) == res.num_partial_clusters
        # Every member index must be inside its cluster's partition range.
        for c in res.partials:
            assert all(c.lo <= m < c.hi for m in c.members)
            assert all(not (c.lo <= s < c.hi) for s in c.seeds)

    @pytest.mark.parametrize("master", [None, "threads[2]", "processes[2]"])
    @pytest.mark.parametrize("plan", ["range", "spatial", "cells"])
    def test_seeds_reach_the_driver_as_int64_arrays(self, plan, master,
                                                    blobs_medium_module):
        """No list of boxed ints between the kernel and the merge,
        whichever frame built the partials and whatever shipped them."""
        make = SpatialSparkDBSCAN if plan == "spatial" else SparkDBSCAN
        kwargs = {"partitioning": "cells"} if plan == "cells" else {}
        res = make(25.0, 5, num_partitions=4, keep_partials=True,
                   master=master, **kwargs).fit(blobs_medium_module.points)
        assert sum(len(c.seeds) for c in res.partials) > 0
        for c in res.partials:
            assert isinstance(c.seeds, np.ndarray) and c.seeds.dtype == np.int64

    def test_partials_not_kept_by_default(self, blobs_medium_module,
                                          blobs_medium_tree_module):
        res = SparkDBSCAN(25.0, 5, num_partitions=2).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert res.partials is None


class TestTimingSplit:
    def test_driver_and_executor_times_populated(self, blobs_medium_module):
        res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(blobs_medium_module.points)
        t = res.timings
        assert t.kdtree_build > 0
        assert t.executor_total > 0
        assert t.driver_merge > 0
        assert len(t.executor_task_durations) == 4
        assert t.executor_max <= t.executor_total
        assert t.wall >= t.executor_total * 0.5  # sane magnitude

    def test_parallel_wall_below_serial_total(self, blobs_medium_module):
        res = SparkDBSCAN(25.0, 5, num_partitions=8).fit(blobs_medium_module.points)
        assert res.timings.parallel_wall() < res.timings.wall + 1.0


class TestExecutionModes:
    def test_processes_backend_matches_simulated(self, blobs_medium_module,
                                                 blobs_medium_tree_module):
        sim = SparkDBSCAN(25.0, 5, num_partitions=2).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        proc = SparkDBSCAN(25.0, 5, num_partitions=2, master="processes[2]").fit(
            blobs_medium_module.points
        )
        ok, why = clusterings_equivalent(
            sim.labels, proc.labels, blobs_medium_module.points,
            25.0, 5, tree=blobs_medium_tree_module,
        )
        assert ok, why

    def test_external_context_reused(self, blobs_medium_module, blobs_medium_tree_module):
        with SparkContext("simulated[4]") as sc:
            model = SparkDBSCAN(25.0, 5, num_partitions=4)
            a = model.fit(blobs_medium_module.points, sc=sc,
                          tree=blobs_medium_tree_module)
            b = model.fit(blobs_medium_module.points, sc=sc,
                          tree=blobs_medium_tree_module)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_deterministic_across_runs(self, blobs_medium_module, blobs_medium_tree_module):
        model = SparkDBSCAN(25.0, 5, num_partitions=4)
        a = model.fit(blobs_medium_module.points, tree=blobs_medium_tree_module)
        b = model.fit(blobs_medium_module.points, tree=blobs_medium_tree_module)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestPruningAndFiltering:
    def test_min_cluster_size_reduces_clusters(self, blobs_medium_module,
                                               blobs_medium_tree_module):
        loose = SparkDBSCAN(25.0, 5, num_partitions=8).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        strict = SparkDBSCAN(25.0, 5, num_partitions=8, min_cluster_size=10).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert strict.num_clusters <= loose.num_clusters
        assert strict.num_noise >= loose.num_noise

    def test_max_neighbors_pruning_keeps_major_structure(self, blobs_medium_module,
                                                         blobs_medium_tree_module):
        """The r1m pruning trick: bounded neighbourhoods, roughly the same
        clusters (the paper accepts a small accuracy loss)."""
        from repro.dbscan import adjusted_rand_index

        exact = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        pruned = SparkDBSCAN(25.0, 5, num_partitions=4, max_neighbors=40).fit(
            blobs_medium_module.points, tree=blobs_medium_tree_module
        )
        assert adjusted_rand_index(exact.labels, pruned.labels) > 0.9


class TestValidationErrors:
    def test_constructor_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SparkDBSCAN(0.0, 5)
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 0)
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 5, num_partitions=0)
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 5, seed_policy="sometimes")
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 5, merge_strategy="hope")

    def test_fit_rejects_1d_points(self):
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 5).fit(np.zeros(10))

    def test_nan_eps_rejected_inf_eps_is_one_cluster(self, blobs_small):
        # nan passed `eps <= 0` (and the kd-tree's `eps < 0`) and silently
        # labelled every point noise; inf is a legal radius.
        with pytest.raises(ValueError, match="eps must be positive"):
            SparkDBSCAN(float("nan"), 5)
        for mode in ("batched", "per_point"):
            res = SparkDBSCAN(
                float("inf"), 5, num_partitions=3, neighbor_mode=mode
            ).fit(blobs_small.points)
            assert (res.labels == 0).all()
