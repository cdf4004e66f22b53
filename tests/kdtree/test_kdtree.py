"""kd-tree construction and query correctness vs brute force and scipy."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.kdtree import BruteForceIndex, KDTree


@pytest.fixture(scope="module")
def uniform_points():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 100, (1500, 10))


@pytest.fixture(scope="module")
def clustered_points():
    rng = np.random.default_rng(1)
    centers = rng.uniform(0, 1000, (8, 10))
    return np.vstack([rng.normal(c, 8.0, (150, 10)) for c in centers])


class TestConstruction:
    def test_leaf_size_respected(self, uniform_points):
        t = KDTree(uniform_points, leaf_size=10)
        for node in range(t.num_nodes):
            if t._split_dim[node] < 0:
                assert t._end[node] - t._start[node] <= 10

    def test_perm_is_permutation(self, uniform_points):
        t = KDTree(uniform_points)
        assert sorted(t._perm.tolist()) == list(range(len(uniform_points)))

    def test_depth_logarithmic(self, uniform_points):
        t = KDTree(uniform_points, leaf_size=16)
        n = len(uniform_points)
        # Median splits give a balanced tree: depth ~ log2(n/leaf)+1.
        assert t.depth() <= int(np.ceil(np.log2(n / 16))) + 2

    def test_empty_tree(self):
        t = KDTree(np.empty((0, 3)))
        assert t.query_radius(np.zeros(3), 1.0).size == 0

    def test_single_point(self):
        t = KDTree(np.array([[1.0, 2.0]]))
        assert t.query_radius(np.array([1.0, 2.0]), 0.1).tolist() == [0]
        assert t.query_radius(np.array([5.0, 5.0]), 0.1).size == 0

    def test_duplicate_points(self):
        pts = np.ones((50, 4))
        t = KDTree(pts, leaf_size=8)
        assert sorted(t.query_radius(np.ones(4), 0.0).tolist()) == list(range(50))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            KDTree(np.zeros(5))  # 1-D
        with pytest.raises(ValueError):
            KDTree(np.zeros((3, 2)), leaf_size=0)

    def test_integer_input_converted(self):
        t = KDTree(np.array([[0, 0], [3, 4]]))
        assert t.query_radius(np.array([0.0, 0.0]), 5.0).size == 2


class TestRangeQueries:
    @pytest.mark.parametrize("eps", [5.0, 15.0, 30.0])
    def test_matches_brute_force_uniform(self, uniform_points, eps):
        t = KDTree(uniform_points, leaf_size=20)
        bf = BruteForceIndex(uniform_points)
        rng = np.random.default_rng(7)
        for i in rng.integers(0, len(uniform_points), 40):
            a = sorted(t.query_radius(uniform_points[i], eps).tolist())
            b = sorted(bf.query_radius(uniform_points[i], eps).tolist())
            assert a == b

    def test_matches_scipy_clustered(self, clustered_points):
        t = KDTree(clustered_points, leaf_size=32)
        sp = cKDTree(clustered_points)
        rng = np.random.default_rng(8)
        for i in rng.integers(0, len(clustered_points), 40):
            a = sorted(t.query_radius(clustered_points[i], 25.0).tolist())
            b = sorted(sp.query_ball_point(clustered_points[i], 25.0))
            assert a == b

    def test_off_data_query_point(self, uniform_points):
        t = KDTree(uniform_points)
        bf = BruteForceIndex(uniform_points)
        q = np.full(10, 50.0)
        assert sorted(t.query_radius(q, 40.0).tolist()) == sorted(
            bf.query_radius(q, 40.0).tolist()
        )

    def test_boundary_inclusive(self):
        pts = np.array([[0.0], [3.0]])
        t = KDTree(pts)
        assert sorted(t.query_radius(np.array([0.0]), 3.0).tolist()) == [0, 1]

    def test_zero_radius_finds_exact_matches(self, uniform_points):
        t = KDTree(uniform_points)
        hits = t.query_radius(uniform_points[5], 0.0)
        assert 5 in hits.tolist()

    def test_negative_eps_rejected(self, uniform_points):
        t = KDTree(uniform_points)
        with pytest.raises(ValueError):
            t.query_radius(uniform_points[0], -1.0)


class TestPruning:
    """The paper's 'kd-tree with pruning branches' (Section V-E)."""

    def test_cap_limits_neighbors(self, clustered_points):
        t = KDTree(clustered_points)
        full = t.query_radius(clustered_points[0], 25.0)
        capped = t.query_radius(clustered_points[0], 25.0, max_neighbors=10)
        assert capped.size <= 10
        assert set(capped.tolist()) <= set(full.tolist())

    def test_capped_results_are_true_neighbors(self, clustered_points):
        t = KDTree(clustered_points)
        q = clustered_points[7]
        capped = t.query_radius(q, 25.0, max_neighbors=5)
        d = np.linalg.norm(clustered_points[capped] - q, axis=1)
        assert (d <= 25.0 + 1e-9).all()

    def test_cap_larger_than_result_is_noop(self, clustered_points):
        t = KDTree(clustered_points)
        q = clustered_points[3]
        full = sorted(t.query_radius(q, 25.0).tolist())
        capped = sorted(t.query_radius(q, 25.0, max_neighbors=10**9).tolist())
        assert full == capped
