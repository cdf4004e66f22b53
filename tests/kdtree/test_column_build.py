"""The column-major build against the row-major one it replaced.

`KDTree._build` reorders a ``(d, n)`` working copy of the points with
``perm``: a node's spans are row reductions and its split axis is one
contiguous row holding the same values, in the same order, as the
row-major build's column — so ``argpartition`` returns the same order.
`row_major_build`, the recursion as it was, is kept here as the
reference: the two must give the same ``_perm``, node table,
``_pts_perm`` and pickle, and neither may write the caller's array.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kdtree import KDTree
from tests.kdtree.test_rebase import NODE_TABLE


def row_major_build(self, work, start, end):
    """Build the subtree over perm[start:end] from a gather of the rows of
    ``points`` and axis-0 reductions (``work`` is not read)."""
    node = self._add_node()
    count = end - start
    if count <= self.leaf_size:
        self._start[node] = start
        self._end[node] = end
        return node
    block = self.points[self._perm[start:end]]
    spans = block.max(axis=0) - block.min(axis=0)
    dim = int(np.argmax(spans))
    if spans[dim] == 0.0:
        self._start[node] = start
        self._end[node] = end
        return node
    mid = count // 2
    order = np.argpartition(block[:, dim], mid)
    self._perm[start:end] = self._perm[start:end][order]
    self._split_dim[node] = dim
    self._split_val[node] = float(self.points[self._perm[start + mid], dim])
    self._left[node] = row_major_build(self, work, start, start + mid)
    self._right[node] = row_major_build(self, work, start + mid, end)
    return node


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
    before = pts.copy()
    tree = KDTree(pts, leaf_size=leaf_size)
    with mock.patch.object(KDTree, "_build", row_major_build):
        ref = KDTree(pts, leaf_size=leaf_size)
    assert np.array_equal(pts, before)
    assert np.array_equal(tree._perm, ref._perm)
    for name in NODE_TABLE:
        assert getattr(tree, name) == getattr(ref, name), name
    assert np.array_equal(tree._pts_perm, ref._pts_perm)
    assert pickle.dumps(tree) == pickle.dumps(ref)


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
