"""Regression: a shared *border* point must never merge two clusters.

Found by hypothesis (tests/dbscan/test_properties.py): two dense
clusters close enough that one non-core point lies within eps of cores
of both.  Sequential DBSCAN keeps the clusters separate (density-
connectivity passes only through core points); a naive reading of the
paper's Algorithm 4 — merge whenever a SEED is a regular element of
another partial cluster — unites them, because the shared border point
is a regular member of one cluster and a SEED of the other.

The fix: partial clusters ship their members' core/border distinction
(`PartialCluster.borders`) and the driver merges only through **core**
seeds.  This is a soundness repair *to the paper's algorithm itself*
(DESIGN.md §4).
"""

import numpy as np
import pytest

from repro.dbscan import (
    PartialCluster,
    SparkDBSCAN,
    clusterings_equivalent,
    dbscan_sequential,
    merge_paper,
    merge_partials,
)
from repro.kdtree import KDTree


def two_clusters_sharing_a_border_point() -> tuple[np.ndarray, float, int]:
    """Two dense 1-D chains; the point at 3.1 is within eps=1.6 of the edge
    core of each chain but has only 3 neighbours (< minpts=4): a border
    point claimable by either cluster, connecting neither."""
    pts = np.array(
        [[0.0], [0.5], [1.0], [1.5],          # left chain (indices 0-3)
         [3.1],                               # shared border point (index 4)
         [4.7], [5.2], [5.7], [6.2]]          # right chain (indices 5-8)
    )
    return pts, 1.6, 4


class TestSharedBorderPoint:
    def setup_method(self):
        self.pts, self.eps, self.minpts = two_clusters_sharing_a_border_point()
        self.tree = KDTree(self.pts, leaf_size=4)
        self.seq = dbscan_sequential(self.pts, self.eps, self.minpts, tree=self.tree)

    def test_sequential_sees_two_clusters(self):
        assert self.seq.num_clusters == 2

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_parallel_must_not_merge_through_border(self, p):
        par = SparkDBSCAN(self.eps, self.minpts, num_partitions=p).fit(
            self.pts, tree=self.tree
        )
        assert par.num_clusters == 2, (
            f"p={p}: shared border point merged two clusters"
        )
        ok, why = clusterings_equivalent(
            self.seq.labels, par.labels, self.pts, self.eps, self.minpts,
            tree=self.tree,
        )
        assert ok, why

    @pytest.mark.parametrize("strategy", ["union_find", "paper"])
    def test_merge_strategies_respect_border_flag(self, strategy):
        # Hand-built partials: left cluster owns border 4 as a *border*
        # member; right cluster reached it and placed it as a SEED.
        left = PartialCluster(0, 0, 0, 5, members=[0, 1, 2, 3, 4],
                              seeds=[], borders={4})
        right = PartialCluster(1, 0, 5, 9, members=[5, 6, 7, 8], seeds=[4])
        merge = merge_partials if strategy == "union_find" else merge_paper
        out = merge([left, right], 9)
        assert out.num_global_clusters == 2
        assert out.num_merges == 0

    def test_core_seed_still_merges(self):
        # Same shape, but the linking point IS core: merging is mandatory.
        left = PartialCluster(0, 0, 0, 5, members=[0, 1, 2, 3, 4], seeds=[])
        right = PartialCluster(1, 0, 5, 9, members=[5, 6, 7, 8], seeds=[4])
        out = merge_partials([left, right], 9)
        assert out.num_global_clusters == 1
        assert out.num_merges == 1


class TestOriginalHypothesisCounterexample:
    def test_gaussian_clumps_reproduction(self):
        """A scaled-down version of the hypothesis-found workload: clumps
        whose skirts overlap within eps around a non-core point."""
        rng = np.random.default_rng(99)
        a = rng.normal((0.0, 0.0), 1.2, (25, 2))
        b = rng.normal((6.0, 0.0), 1.2, (25, 2))
        bridge = np.array([[3.0, 0.0]])  # likely border to both
        pts = np.vstack([a, bridge, b])
        pts = pts[rng.permutation(len(pts))]
        eps, minpts = 1.4, 5
        tree = KDTree(pts, leaf_size=8)
        seq = dbscan_sequential(pts, eps, minpts, tree=tree)
        for p in (2, 3, 4):
            par = SparkDBSCAN(eps, minpts, num_partitions=p).fit(pts, tree=tree)
            ok, why = clusterings_equivalent(
                seq.labels, par.labels, pts, eps, minpts, tree=tree
            )
            assert ok, f"p={p}: {why}"
