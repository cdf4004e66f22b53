"""Full-pipeline integration: file → RDD → parse → SEED DBSCAN → merge.

This is Algorithm 2 end-to-end as the paper describes the deployment:
data lives in a file, the Spark driver reads it as line-aligned splits
and transforms it into Point RDDs, executors cluster, the driver merges.
"""

import numpy as np
import pytest

from repro.data import generate_clustered, parse_point_line, save_points
from repro.dbscan import (
    SparkDBSCAN,
    clusterings_equivalent,
    dbscan_sequential,
    local_dbscan,
    merge_partials,
)
from repro.engine import LIST_CONCAT, FaultPlan, SparkContext
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree


@pytest.fixture(scope="module")
def workload():
    g = generate_clustered(n=1200, num_clusters=4, cluster_std=8.0, seed=21)
    tree = KDTree(g.points)
    seq = dbscan_sequential(g.points, 25.0, 5, tree=tree)
    return g, tree, seq


class TestHdfsToClusters:
    def test_full_pipeline(self, workload, tmp_path):
        g, tree, seq = workload
        # 1. Stage the dataset as a text file.
        path = tmp_path / "points.txt"
        save_points(str(path), g.points)

        with SparkContext("simulated[4]") as sc:
            # 2. Read it as several line-aligned splits and transform into
            # points (Algorithm 2, 1-2).
            lines = sc.text_file(str(path), num_partitions=7)
            assert lines.num_partitions == 7
            pts_rdd = lines.map(parse_point_line)
            points = np.vstack(pts_rdd.collect())
            np.testing.assert_allclose(points, g.points, rtol=1e-11)

            # 3-6. Cluster with the SEED algorithm.
            res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(points, sc=sc)

        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why


class TestExecutorFaultRecovery:
    def test_dbscan_job_survives_task_crashes(self, workload):
        """An executor task that dies twice must recompute via lineage and
        still deliver exactly-once partial clusters."""
        g, tree, seq = workload
        with SparkContext("simulated[4]") as sc:
            sc.fault_plan = FaultPlan(fail_attempts={(-1, 1): 2, (-1, 3): 1})
            res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
                g.points, sc=sc, tree=tree
            )
        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why
        assert res.num_partial_clusters == SparkDBSCAN(
            25.0, 5, num_partitions=4
        ).fit(g.points, tree=tree).num_partial_clusters

    def test_straggler_does_not_change_results(self, workload):
        g, tree, seq = workload
        with SparkContext("simulated[4]") as sc:
            sc.fault_plan = FaultPlan(delays={(-1, 0): 0.05})
            res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(
                g.points, sc=sc, tree=tree
            )
            # The straggler is visible in the timing split...
            assert max(res.timings.executor_task_durations) >= 0.05
        # ...but not in the clustering.
        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why


class TestManualAlgorithm2Assembly:
    """Drive Algorithm 2 by hand against the engine primitives, proving
    the SparkDBSCAN class has no hidden magic."""

    def test_hand_rolled_job_matches_class(self, workload):
        g, tree, seq = workload
        n = g.n
        p = 4
        partitioner = IndexRangePartitioner(n, p)
        with SparkContext("simulated[4]") as sc:
            tree_b = sc.broadcast(tree)
            acc = sc.accumulator(LIST_CONCAT)

            def executor_side(pid, it):
                t = tree_b.value
                acc.add(local_dbscan(pid, it, t.points, t, 25.0, 5, partitioner))

            sc.parallelize(range(n), p).foreach_partition_with_index(executor_side)
            outcome = merge_partials(list(acc.value), n)

        ok, why = clusterings_equivalent(seq.labels, outcome.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why
