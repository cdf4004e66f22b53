"""`KDTree.rebase`: the spatial plans' index is the tree that defined
their order, renumbered in place — not a second build over a copy.

On tie-free input the re-based tree *is* ``KDTree(points[perm])``, node
for node, so every query agrees element for element.  On tied input
(duplicates, lattices) a rebuild may place equal coordinates in another
order, so rows agree as sets — which is all DBSCAN reads.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.kdtree import KDTree
from tests.dbscan.test_oracle import duplicate_heavy_clouds, lattice_subsets

NODE_TABLE = ("_split_dim", "_split_val", "_left", "_right", "_start", "_end")


def rebased_and_rebuilt(pts, leaf_size):
    tree = KDTree(pts, leaf_size=leaf_size)
    perm = tree.rebase()
    assert sorted(perm.tolist()) == list(range(len(pts)))
    assert np.array_equal(tree._perm, np.arange(len(pts)))
    assert tree.points is tree._pts_perm
    assert np.array_equal(tree.points, pts[perm])
    return tree, KDTree(pts[perm], leaf_size=leaf_size)


def rows(indptr, indices):
    return [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])]


def assert_queries_agree(tree, rebuilt, eps, *, as_sets):
    key = sorted if as_sets else list
    Q, n = tree.points, tree.n
    ids = np.arange(n)[::-1] * 3
    assert np.array_equal(
        tree.count_radius_batch(Q, eps), rebuilt.count_radius_batch(Q, eps)
    )
    for kwargs in ({}, {"ids": ids}):
        got = rows(*tree.query_radius_batch(Q, eps, **kwargs))
        want = rows(*rebuilt.query_radius_batch(Q, eps, **kwargs))
        assert [key(r) for r in got] == [key(r) for r in want]
    for q in Q[:: max(1, n // 7)]:
        assert key(tree.query_radius(q, eps).tolist()) \
            == key(rebuilt.query_radius(q, eps).tolist())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    d=st.integers(1, 5),
    leaf_size=st.integers(1, 32),
    eps=st.floats(0.0, 3.0),
)
def test_tie_free_rebase_is_the_rebuilt_tree(seed, n, d, leaf_size, eps):
    pts = np.random.default_rng(seed).normal(size=(n, d))
    tree, rebuilt = rebased_and_rebuilt(pts, leaf_size)
    for name in NODE_TABLE:
        assert getattr(tree, name) == getattr(rebuilt, name), name
    assert_queries_agree(tree, rebuilt, eps, as_sets=False)


@settings(max_examples=40, deadline=None)
@given(
    pts=st.one_of(duplicate_heavy_clouds(), lattice_subsets()),
    twice=st.booleans(),
    leaf_size=st.integers(1, 70),
    eps=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
)
def test_tied_rebase_answers_like_a_rebuild_row_by_row(
    pts, twice, leaf_size, eps
):
    # d = 1 and n < leaf_size are both in range of the two generators;
    # ``twice`` makes every point a duplicate.
    if twice:
        pts = np.repeat(pts, 2, axis=0)
    tree, rebuilt = rebased_and_rebuilt(pts, leaf_size)
    assert_queries_agree(tree, rebuilt, eps, as_sets=True)


def test_empty_tree_rebases():
    tree, rebuilt = rebased_and_rebuilt(np.empty((0, 3)), 8)
    assert tree.query_radius(np.zeros(3), 1.0).size == 0
    assert_queries_agree(tree, rebuilt, 1.0, as_sets=False)


def test_rebased_pickle_holds_the_coordinates_once():
    pts = np.random.default_rng(5).uniform(0, 100, (1000, 10))
    tree = KDTree(pts)
    before = len(pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
    tree.rebase()
    blob = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(blob) <= 0.55 * before
    clone = pickle.loads(blob)
    assert clone.points is clone._pts_perm
    assert np.array_equal(
        clone.query_radius(pts[0], 30.0), tree.query_radius(pts[0], 30.0)
    )


@pytest.mark.parametrize("estimator", [SparkDBSCAN, SpatialSparkDBSCAN])
@pytest.mark.parametrize("merge_mode", ["partials", "edges"])
def test_one_tree_build_per_fit(blobs_small, monkeypatch, estimator,
                                merge_mode):
    init, builds = KDTree.__init__, []

    def counted_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KDTree, "__init__", counted_init)
    estimator(25.0, 5, num_partitions=4, merge_mode=merge_mode).fit(
        blobs_small.points
    )
    assert len(builds) == 1
