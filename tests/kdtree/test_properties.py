"""Property-based kd-tree tests (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kdtree import BruteForceIndex, KDTree

point_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 120), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
)


@settings(max_examples=40, deadline=None)
@given(pts=point_arrays, eps=st.floats(0.0, 80.0), qi=st.integers(0, 10_000), leaf=st.integers(1, 32))
def test_range_query_matches_brute_force(pts, eps, qi, leaf):
    t = KDTree(pts, leaf_size=leaf)
    bf = BruteForceIndex(pts)
    q = pts[qi % len(pts)]
    assert sorted(t.query_radius(q, eps).tolist()) == sorted(
        bf.query_radius(q, eps).tolist()
    )


@settings(max_examples=30, deadline=None)
@given(pts=point_arrays, eps=st.floats(0.0, 50.0))
def test_self_always_in_own_neighborhood(pts, eps):
    t = KDTree(pts)
    for i in range(0, len(pts), max(1, len(pts) // 5)):
        assert i in t.query_radius(pts[i], eps).tolist()


@settings(max_examples=30, deadline=None)
@given(pts=point_arrays, eps1=st.floats(0.0, 30.0), eps2=st.floats(0.0, 30.0))
def test_radius_monotonicity(pts, eps1, eps2):
    lo, hi = sorted((eps1, eps2))
    t = KDTree(pts)
    q = pts[0]
    small = set(t.query_radius(q, lo).tolist())
    big = set(t.query_radius(q, hi).tolist())
    assert small <= big


@settings(max_examples=25, deadline=None)
@given(pts=point_arrays)
def test_build_permutation_valid(pts):
    t = KDTree(pts, leaf_size=4)
    assert sorted(t._perm.tolist()) == list(range(len(pts)))
    assert t.num_leaves >= 1
