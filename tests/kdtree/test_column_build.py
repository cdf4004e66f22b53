"""The level-order, column-major build against the recursion it replaced.

`KDTree._build` splits a whole tree level at a time on a ``(d, n)``
working copy reordered with ``perm``: a node's spans are exact
reductions over its block, so it picks the recursion's split axis, and
its split axis is one contiguous row holding the same values, in the
same order, as the row-major column did — so ``argpartition`` returns
the same order.  `row_major_build`, the recursion as it was, is kept
here as the reference and run on a fresh instance (`row_major_tree`):
the two must give the same ``_perm``, node table (numbered in the
recursion's pre-order), ``_pts_perm`` and pickle, and neither may write
the caller's array.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_skewed, make_dataset
from repro.kdtree import KDTree
from tests.kdtree.test_rebase import NODE_TABLE


def add_node(tree):
    for name, blank in zip(NODE_TABLE, (-1, 0.0, -1, -1, 0, 0)):
        getattr(tree, name).append(blank)
    return len(tree._split_dim) - 1


def row_major_build(tree, start, end):
    """Build the subtree over perm[start:end] from a gather of the rows of
    ``points`` and axis-0 reductions; returns its pre-order node id."""
    node = add_node(tree)
    count = end - start
    if count <= tree.leaf_size:
        tree._start[node] = start
        tree._end[node] = end
        return node
    block = tree.points[tree._perm[start:end]]
    spans = block.max(axis=0) - block.min(axis=0)
    dim = int(np.argmax(spans))
    if spans[dim] == 0.0:
        tree._start[node] = start
        tree._end[node] = end
        return node
    mid = count // 2
    order = np.argpartition(block[:, dim], mid)
    tree._perm[start:end] = tree._perm[start:end][order]
    tree._split_dim[node] = dim
    tree._split_val[node] = float(tree.points[tree._perm[start + mid], dim])
    tree._left[node] = row_major_build(tree, start, start + mid)
    tree._right[node] = row_major_build(tree, start + mid, end)
    return node


def row_major_tree(pts, leaf_size):
    """A fresh `KDTree` built by `row_major_build`, its attributes set in
    the order the recursive ``__init__`` set them (the pickle's order)."""
    ref = KDTree.__new__(KDTree)
    points = np.ascontiguousarray(pts, dtype=np.float64)
    ref.n, ref.d = points.shape
    ref.leaf_size = leaf_size
    ref.points = points
    for name in NODE_TABLE:
        setattr(ref, name, [])
    ref._perm = np.arange(ref.n, dtype=np.intp)
    if ref.n > 0:
        row_major_build(ref, 0, ref.n)
    ref._pts_perm = points[ref._perm] if ref.n else points
    ref.num_nodes = len(ref._split_dim)
    return ref


def assert_same_tree(pts, leaf_size):
    before = pts.copy()
    tree = KDTree(pts, leaf_size=leaf_size)
    ref = row_major_tree(pts, leaf_size)
    assert np.array_equal(pts, before)
    assert np.array_equal(tree._perm, ref._perm)
    for name in NODE_TABLE:
        assert getattr(tree, name) == getattr(ref, name), name
    assert np.array_equal(tree._pts_perm, ref._pts_perm)
    assert pickle.dumps(tree) == pickle.dumps(ref)
    return tree


@st.composite
def clouds(draw):
    """d in 1..12; n empty, one point, under a leaf or many leaves; free,
    tied (small integers), duplicated or all-identical coordinates; float64
    or float32, C- or F-ordered."""
    d = draw(st.integers(1, 12))
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["free", "tied", "duplicated", "identical"]))
    if kind == "free":
        pts = rng.normal(size=(n, d))
    elif kind == "tied":
        pts = rng.integers(0, 4, (n, d)).astype(np.float64)
    elif kind == "duplicated":
        pts = rng.normal(size=(max(1, n // 8), d))[rng.integers(0, max(1, n // 8), n)]
    else:
        pts = np.full((n, d), rng.normal())
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return np.asarray(pts, dtype=dtype, order=draw(st.sampled_from("CF")))


@settings(max_examples=80, deadline=None)
@given(pts=clouds(), leaf_size=st.integers(1, 32))
def test_column_major_build_is_the_row_major_build(pts, leaf_size):
    assert_same_tree(pts, leaf_size)


def test_paper_sized_r_family_input():
    pts = make_dataset("r100k", scale=20_000 / 102_400).points
    assert len(pts) == 20_000
    assert_same_tree(pts, 64)


def test_paper_sized_sorted_skew_with_a_duplicated_block():
    # One level then holds splitting nodes, leaves of identical points
    # cut off early, and a last block that ends at n.
    pts = generate_skewed(n=20_000, d=2, num_clusters=10, cluster_std=20,
                          seed=1, shuffle=False).points
    pts[1_000:3_000] = pts[1_000]
    tree = assert_same_tree(pts, 64)
    sizes = np.subtract(tree._end, tree._start)
    assert sizes.max() > 64


@pytest.mark.parametrize("shape", [(50, 1), (1, 6), (40, 3)])
def test_build_never_writes_the_callers_array(shape):
    # For (n, 1) input ``points.T`` is already contiguous, so
    # ``ascontiguousarray(points.T)`` would be a view: the reorder would
    # then permute the caller's coordinates in place.
    pts = np.random.default_rng(0).normal(size=shape)
    before = pts.copy()
    tree = KDTree(pts, leaf_size=2)
    assert tree.points is pts
    assert np.array_equal(pts, before)
