"""Skewed-data generator and its interaction with partitioning."""

import numpy as np
import pytest

from repro.data import generate_skewed
from repro.dbscan import SparkDBSCAN, clusterings_equivalent, dbscan_sequential
from repro.kdtree import KDTree


class TestGenerator:
    def test_power_law_sizes(self):
        g = generate_skewed(n=5000, num_clusters=10, zipf_exponent=1.5, seed=0)
        sizes = [c.size for c in g.clusters]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] > 4 * sizes[-1]  # heavy head, long tail

    def test_total_points(self):
        g = generate_skewed(n=3000, noise_fraction=0.1, seed=1)
        assert g.n == 3000
        assert np.count_nonzero(g.true_labels == -1) == 300

    def test_deterministic(self):
        a = generate_skewed(n=1000, seed=4)
        b = generate_skewed(n=1000, seed=4)
        np.testing.assert_array_equal(a.points, b.points)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_skewed(n=0)
        with pytest.raises(ValueError):
            generate_skewed(n=100, zipf_exponent=0.0)
        with pytest.raises(ValueError):
            generate_skewed(n=100, noise_fraction=1.0)
        # Genuinely infeasible: fewer clustered points than clusters.
        with pytest.raises(ValueError):
            generate_skewed(n=30, num_clusters=50, noise_fraction=0.0)

    def test_tight_budget_rebalances_instead_of_raising(self):
        """Regression: when the per-cluster floor of 1 pushed the rounded
        sizes past the budget, the generator raised even though the
        request was feasible.  It must rebalance across the tail."""
        g = generate_skewed(n=60, num_clusters=50, noise_fraction=0.0,
                            seed=0)
        sizes = np.array([c.size for c in g.clusters])
        assert g.n == 60
        assert sizes.sum() == 60
        assert (sizes >= 1).all()
        # Still a power law: sizes non-increasing after rebalancing.
        assert (np.diff(sizes) <= 0).all()


class TestSkewAndPartitioning:
    def test_unshuffled_skew_imbalances_partitions(self):
        """Cluster-sorted skewed input: contiguous index ranges carry very
        different neighbour volumes — the workload-imbalance scenario the
        paper's conclusion warns about."""
        g = generate_skewed(n=2000, num_clusters=8, zipf_exponent=1.5,
                            cluster_std=8.0, seed=2, shuffle=False)
        tree = KDTree(g.points)
        from repro.engine.partitioner import IndexRangePartitioner

        part = IndexRangePartitioner(g.n, 4)
        work = []
        for pid in range(4):
            lo, hi = part.range_of(pid)
            work.append(float(sum(
                tree.query_radius(g.points[i], 25.0).size
                for i in range(lo, hi, 8)
            )))
        assert max(work) / (sum(work) / len(work)) > 1.5

    def test_shuffled_skew_still_clusters_correctly(self):
        g = generate_skewed(n=1500, num_clusters=6, cluster_std=8.0, seed=3)
        tree = KDTree(g.points)
        seq = dbscan_sequential(g.points, 25.0, 5, tree=tree)
        par = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, tree=tree)
        ok, why = clusterings_equivalent(seq.labels, par.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why

    def test_giant_cluster_found(self):
        g = generate_skewed(n=2000, num_clusters=6, zipf_exponent=1.5,
                            cluster_std=8.0, seed=5)
        res = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points)
        sizes = sorted(res.cluster_sizes().values(), reverse=True)
        # The head cluster dwarfs the tail, as generated.
        assert sizes[0] > 3 * sizes[-1]
