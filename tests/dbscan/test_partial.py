"""SEED placement mechanics (Algorithm 3) at the unit level."""

import numpy as np
import pytest

from repro.dbscan import PartialCluster, local_dbscan
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree


def _line_points(n, spacing=1.0):
    """n collinear points: one chain cluster crossing all partitions."""
    return np.c_[np.arange(n) * spacing, np.zeros(n)]


class TestLocalClustering:
    def test_partition_only_clusters_own_points(self):
        pts = _line_points(20)
        tree = KDTree(pts, leaf_size=4)
        part = IndexRangePartitioner(20, 2)
        partials = local_dbscan(0, range(0, 10), pts, tree, 1.5, 2, part)
        assert len(partials) == 1
        c = partials[0]
        assert all(0 <= m < 10 for m in c.members)
        assert all(s >= 10 for s in c.seeds)

    def test_seed_points_are_foreign_neighbors(self):
        pts = _line_points(20)
        tree = KDTree(pts, leaf_size=4)
        part = IndexRangePartitioner(20, 2)
        partials = local_dbscan(0, range(0, 10), pts, tree, 1.5, 2, part)
        # Point 9's eps-neighbourhood reaches 10 (and 10's reach stops there
        # because foreign points are never expanded).
        assert partials[0].seeds.tolist() == [10]

    def test_all_policy_records_every_foreign_neighbor(self):
        pts = _line_points(20)
        tree = KDTree(pts, leaf_size=4)
        part = IndexRangePartitioner(20, 2)
        partials = local_dbscan(0, range(0, 10), pts, tree, 2.5, 2, part,
                                seed_policy="all")
        # eps=2.5 reaches two points past the boundary.
        assert sorted(partials[0].seeds) == [10, 11]

    def test_one_per_partition_caps_seeds(self):
        pts = _line_points(20)
        tree = KDTree(pts, leaf_size=4)
        part = IndexRangePartitioner(20, 2)
        partials = local_dbscan(0, range(0, 10), pts, tree, 2.5, 2, part,
                                seed_policy="one_per_partition")
        assert len(partials[0].seeds) == 1

    def test_noise_point_creates_no_cluster(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [100.5, 0.0], [101.0, 0.0]])
        tree = KDTree(pts)
        part = IndexRangePartitioner(4, 1)
        partials = local_dbscan(0, range(4), pts, tree, 1.0, 3, part)
        assert len(partials) == 1
        assert 0 not in partials[0].members  # isolated point stays out

    def test_two_separate_clusters_two_partials(self):
        pts = np.vstack([_line_points(5), _line_points(5) + [100, 0]])
        tree = KDTree(pts)
        part = IndexRangePartitioner(10, 1)
        partials = local_dbscan(0, range(10), pts, tree, 1.5, 2, part)
        assert len(partials) == 2
        assert partials[0].local_id != partials[1].local_id

    def test_each_own_point_in_at_most_one_partial(self, blobs_small, blobs_small_tree):
        part = IndexRangePartitioner(blobs_small.n, 3)
        for pid in range(3):
            lo, hi = part.range_of(pid)
            partials = local_dbscan(pid, range(lo, hi), blobs_small.points,
                                    blobs_small_tree, 25.0, 5, part)
            seen: set[int] = set()
            for c in partials:
                dup = seen & set(c.members)
                assert not dup, f"points {dup} in two partial clusters"
                seen.update(c.members)

    def test_wrong_partition_index_rejected(self):
        pts = _line_points(10)
        tree = KDTree(pts)
        part = IndexRangePartitioner(10, 2)
        with pytest.raises(ValueError):
            local_dbscan(0, [7], pts, tree, 1.5, 2, part)  # 7 belongs to partition 1

    def test_unknown_policy_rejected(self):
        pts = _line_points(10)
        tree = KDTree(pts)
        part = IndexRangePartitioner(10, 2)
        with pytest.raises(ValueError):
            local_dbscan(0, range(5), pts, tree, 1.5, 2, part, seed_policy="some")

    @pytest.mark.parametrize("mode", ["per_point", "batched"])
    def test_boundary_out_rejects_truncated_neighbourhoods(self, mode):
        """The export set is only right on the symmetric eps-graph; only
        `RunConfig` used to say so, and a direct caller got a silently
        wrong set.  Both frame builders go through the one kernel entry."""
        from repro.dbscan.cells import build_cell_assignment, cell_local_dbscan

        pts = _line_points(10)
        tree = KDTree(pts)
        part = IndexRangePartitioner(10, 2)
        with pytest.raises(ValueError, match="max_neighbors"):
            local_dbscan(0, range(5), pts, tree, 1.5, 2, part, max_neighbors=2,
                         neighbor_mode=mode, boundary_out=set())
        payload = build_cell_assignment(pts, 1.5, 2).payloads(pts)[0]
        with pytest.raises(ValueError, match="max_neighbors"):
            cell_local_dbscan(payload, 1.5, 2, max_neighbors=2,
                              neighbor_mode=mode, boundary_out=set())
        # Either alone stays legal.
        local_dbscan(0, range(5), pts, tree, 1.5, 2, part, max_neighbors=2,
                     neighbor_mode=mode)
        boundary: set[int] = set()
        local_dbscan(0, range(5), pts, tree, 1.5, 2, part, neighbor_mode=mode,
                     boundary_out=boundary)
        assert boundary == {4}


class TestPartialCluster:
    def test_owns_checks_range_membership(self):
        c = PartialCluster(partition=0, local_id=0, lo=0, hi=2500)
        assert c.owns(0) and c.owns(2499)
        assert not c.owns(2500) and not c.owns(3000)

    def test_size_counts_members_and_seeds(self):
        c = PartialCluster(0, 0, 0, 10, members=[1, 2, 3], seeds=[12])
        assert c.size == 4

    def test_cid_unique_per_partition(self):
        a = PartialCluster(0, 0, 0, 10)
        b = PartialCluster(1, 0, 10, 20)
        assert a.cid != b.cid

    def test_paper_figure4_shape(self):
        """The Figure 4 example: C[0] with range [0,2500) holds regular
        elements and the out-of-range SEED 3000."""
        c0 = PartialCluster(0, 0, 0, 2500,
                            members=[0, 5, 6, 11, 223, 2300, 23, 45, 1000],
                            seeds=[3000])
        assert not c0.owns(3000)
        assert all(c0.owns(m) for m in c0.members)
