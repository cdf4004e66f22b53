"""Spatial partitioning extension (the paper's future work)."""

import numpy as np
import pytest

from repro.dbscan import (
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    clusterings_equivalent,
    dbscan_sequential,
)
from repro.kdtree import KDTree


@pytest.fixture(scope="module")
def data():
    from repro.data import generate_clustered

    g = generate_clustered(n=2000, num_clusters=5, cluster_std=8.0, seed=3)
    return g, KDTree(g.points)


class TestSpatialOrder:
    def test_is_permutation(self, data):
        g, _ = data
        perm = KDTree(g.points).rebase()
        assert sorted(perm.tolist()) == list(range(g.n))

    def test_neighbors_become_index_local(self, data):
        """After reordering, consecutive indices are spatially closer than
        random pairs on average."""
        g, _ = data
        tree = KDTree(g.points)
        perm = tree.rebase()
        pts = tree.points
        assert np.array_equal(pts, g.points[perm])
        consecutive = np.linalg.norm(pts[1:] - pts[:-1], axis=1).mean()
        rng = np.random.default_rng(0)
        i, j = rng.integers(0, g.n, 500), rng.integers(0, g.n, 500)
        random_pairs = np.linalg.norm(pts[i] - pts[j], axis=1).mean()
        assert consecutive < random_pairs * 0.5


class TestSpatialSparkDBSCAN:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_equivalent_to_sequential(self, data, p):
        g, tree = data
        seq = dbscan_sequential(g.points, 25.0, 5, tree=tree)
        res = SpatialSparkDBSCAN(25.0, 5, num_partitions=p).fit(g.points)
        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why

    def test_labels_in_original_order(self, data):
        """The permutation must be undone: same points, same labels as the
        non-spatial version modulo renaming."""
        from repro.dbscan import adjusted_rand_index

        g, tree = data
        plain = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, tree=tree)
        spatial = SpatialSparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points)
        assert adjusted_rand_index(plain.labels, spatial.labels) == pytest.approx(1.0)

    def test_fewer_seeds_than_index_partitioning(self, data):
        """The future-work hypothesis: neighbourhood-aware partitioning
        slashes cross-partition traffic."""
        g, tree = data
        plain = SparkDBSCAN(25.0, 5, num_partitions=8).fit(g.points, tree=tree)
        spatial = SpatialSparkDBSCAN(25.0, 5, num_partitions=8).fit(g.points)
        assert spatial.num_seeds < plain.num_seeds
        assert spatial.num_partial_clusters <= plain.num_partial_clusters

    def test_timings_include_reorder(self, data):
        g, _ = data
        res = SpatialSparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points)
        assert res.timings.setup > 0


class TestPartialsRemap:
    """Regression: with ``keep_partials=True`` the partials used to come
    back in the *permuted* index space while ``labels`` are caller-order,
    so indexing labels with a member pointed at an unrelated point."""

    def test_members_carry_their_global_label(self, data):
        g, _ = data
        res = SpatialSparkDBSCAN(25.0, 5, num_partitions=4,
                                 keep_partials=True).fit(g.points)
        assert res.partials
        for c in res.partials:
            # Every member of a surviving partial maps onto exactly the
            # cluster its points were labelled with, in caller order.
            member_labels = {int(res.labels[m]) for m in c.members}
            assert len(member_labels) == 1, (
                f"partial {c.cid} members span labels {member_labels}")
            assert member_labels.pop() >= 0

    def test_perm_attached_and_consistent(self, data):
        g, _ = data
        res = SpatialSparkDBSCAN(25.0, 5, num_partitions=4,
                                 keep_partials=True).fit(g.points)
        assert res.perm is not None
        assert sorted(res.perm.tolist()) == list(range(g.n))
        # lo/hi stay in reordered space: perm[lo:hi] are the actual
        # caller-order indices a partition owned, and every member of a
        # partial must come from its own partition's range.
        for c in res.partials:
            owned = set(res.perm[c.lo:c.hi].tolist())
            assert set(c.members) <= owned

    def test_plain_spark_partials_unaffected(self, data):
        """The non-spatial job has no permutation: members index labels
        directly and ``perm`` stays None."""
        g, tree = data
        res = SparkDBSCAN(25.0, 5, num_partitions=4,
                          keep_partials=True).fit(g.points, tree=tree)
        assert res.perm is None
        for c in res.partials:
            assert all(c.lo <= m < c.hi for m in c.members)
