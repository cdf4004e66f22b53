"""Every plan × merge mode against the independent oracle.

`test_properties.py` compares plans with `dbscan_sequential`, which
shares `repro.dbscan`'s conventions; `tests/oracle.py` shares nothing
with it (scipy pairs + connected components, tie-aware).  Hypothesis
drives it over the adversarial input classes ROADMAP names: duplicates,
exact-eps lattices, d = 1, single-point and empty partitions, more
partitions than points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from tests.oracle import TIE, dbscan_violation

#: (estimator, partitioning): the range, spatial and cell plans.
PLANS = {
    "range": (SparkDBSCAN, "range"),
    "spatial": (SpatialSparkDBSCAN, "range"),
    "cells": (SparkDBSCAN, "cells"),
}
MERGES = ("partials", "edges")


def assert_every_plan_accepted(pts, eps, minpts, partitions, tie=TIE):
    for plan, (estimator, partitioning) in PLANS.items():
        for merge in MERGES:
            labels = estimator(
                eps, minpts, num_partitions=partitions,
                partitioning=partitioning, merge_mode=merge,
            ).fit(pts).labels
            why = dbscan_violation(pts, labels, eps, minpts, tie)
            assert why is None, (plan, merge, why)


@st.composite
def duplicate_heavy_clouds(draw):
    """Few distinct sites, many copies: zero distances, oversized leaves,
    cells holding one coordinate many times."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    d = draw(st.integers(1, 3))
    sites = rng.normal(0, draw(st.floats(0.5, 4.0)), (draw(st.integers(1, 8)), d))
    return sites[rng.integers(0, len(sites), draw(st.integers(1, 45)))]


@st.composite
def lattice_subsets(draw):
    """Random subsets of an integer lattice: every squared distance is an
    exact integer, and with an integer eps many pairs sit exactly on it."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    d = draw(st.integers(1, 3))
    side = {1: 30, 2: 7, 3: 4}[d]
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * d)
    grid = np.stack([a.ravel() for a in axes], axis=1)
    keep = rng.random(len(grid)) < draw(st.floats(0.3, 1.0))
    keep[rng.integers(len(grid))] = True
    return grid[keep][rng.permutation(int(keep.sum()))]


@settings(max_examples=40, deadline=None)
@given(
    pts=duplicate_heavy_clouds(),
    eps=st.floats(0.05, 6.0),
    minpts=st.integers(1, 6),
    extra_partitions=st.integers(-40, 3),
)
def test_duplicates_any_partition_count(pts, eps, minpts, extra_partitions):
    # 1 <= partitions <= n + 3: single-point and empty partitions, and
    # more partitions than points, are all in range.
    partitions = max(1, len(pts) + extra_partitions)
    assert_every_plan_accepted(pts, eps, minpts, partitions)


@settings(max_examples=40, deadline=None)
@given(
    pts=lattice_subsets(),
    eps=st.sampled_from([1.0, 2.0, 3.0]),
    minpts=st.integers(2, 7),
    partitions=st.integers(1, 9),
)
def test_exact_eps_lattices_checked_exactly(pts, eps, minpts, partitions):
    # tie=0: integer arithmetic is exact on both sides, so a pair at
    # exactly eps must count — `<` for `<=` anywhere fails here.
    assert_every_plan_accepted(pts, eps, minpts, partitions, tie=0.0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 60),
    eps=st.floats(0.01, 0.3),
    minpts=st.integers(1, 5),
    partitions=st.integers(1, 8),
)
def test_one_dimensional_input(seed, n, eps, minpts, partitions):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.random((n, 1)), axis=0) if seed % 2 else rng.random((n, 1))
    assert_every_plan_accepted(pts, eps, minpts, partitions)


class TestTheOracleItself:
    """A referee that accepts everything proves nothing: each way a
    labelling can be wrong must be named."""

    @pytest.fixture(scope="class")
    def fitted(self, blobs_small):
        pts = blobs_small.points
        return pts, SparkDBSCAN(25.0, 5, num_partitions=4).fit(pts).labels

    def test_accepts_a_correct_labelling(self, fitted):
        pts, labels = fitted
        assert dbscan_violation(pts, labels, 25.0, 5) is None
        assert dbscan_violation(pts[:0], labels[:0], 25.0, 5) is None

    @pytest.mark.parametrize("mutate,reason", [
        pytest.param(lambda l: np.where(l == 0, 1, l),
                     "not connected", id="two-clusters-one-label"),
        pytest.param(lambda l: np.where(np.arange(len(l)) % 2 == 0, l,
                                        l + 50 * (l >= 0)),
                     "different labels", id="one-cluster-two-labels"),
        pytest.param(lambda l: np.where(
                         np.arange(len(l)) == np.flatnonzero(l >= 0)[0], -1, l),
                     "labelled noise", id="core-as-noise"),
        pytest.param(lambda l: np.where(l == -1, 0, l),
                     "owns no core point", id="noise-as-border"),
        pytest.param(lambda l: l - 1, "below -1", id="sentinel-leak"),
        pytest.param(lambda l: l[:-1], "shape", id="short"),
    ])
    def test_rejects_each_kind_of_error(self, fitted, mutate, reason):
        pts, labels = fitted
        assert (labels == -1).any() and labels.max() >= 1
        assert reason in dbscan_violation(pts, mutate(labels), 25.0, 5)

    def test_a_tie_may_fall_either_way_unless_exact(self):
        # Two points exactly eps apart, minpts=2: core by `<=`, noise by
        # `<`.  Tie-aware accepts both readings; tie=0 only the first.
        pts = np.array([[0.0], [3.0]])
        together, apart = np.array([0, 0]), np.array([-1, -1])
        assert dbscan_violation(pts, together, 3.0, 2) is None
        assert dbscan_violation(pts, apart, 3.0, 2) is None
        assert dbscan_violation(pts, together, 3.0, 2, tie=0.0) is None
        assert "noise" in dbscan_violation(pts, apart, 3.0, 2, tie=0.0)
