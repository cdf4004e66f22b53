"""``neighbor_mode`` is accepted and validated everywhere it used to
select a row source, and on the executor plans it selects nothing: both
values run the one batched kernel (DESIGN.md §6), so they must give the
same partial clusters, counters and labels.  The range frame is checked
here, the cell frame in ``test_cells.py::test_batched_equals_per_point``.
Only the sequential plan (Algorithm 1, the in-tree reference) still has
a per-point arm, so its identity test compares two code paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import SparkDBSCAN, dbscan_sequential, local_dbscan
from repro.dbscan.partial import NEIGHBOR_MODES
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from tests.dbscan.test_properties import plain, point_clouds


@settings(max_examples=15, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 6),
    eps=st.floats(0.5, 8.0),
    minpts=st.integers(2, 6),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_batched_partials_identical(pts, p, eps, minpts, policy):
    """Range frame: both values give the same partials and counters."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    for pid in range(p):
        runs = []
        for mode in NEIGHBOR_MODES:
            table = local_dbscan(
                pid, range(*part.range_of(pid)), pts, tree, eps, minpts, part,
                seed_policy=policy, neighbor_mode=mode,
            )
            runs.append((table, table.op_counters()))
        (a, counted_a), (b, counted_b) = runs
        assert (plain(a), counted_a) == (plain(b), counted_b)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def data(self):
        from repro.data import generate_clustered

        g = generate_clustered(n=2500, num_clusters=5, cluster_std=8.0, seed=11)
        return g, KDTree(g.points)

    @pytest.mark.parametrize("p", [1, 3, 8])
    def test_spark_labels_byte_identical(self, data, p):
        g, tree = data
        a = SparkDBSCAN(25.0, 5, num_partitions=p).fit(g.points, tree=tree)
        b = SparkDBSCAN(25.0, 5, num_partitions=p,
                        neighbor_mode="batched").fit(g.points, tree=tree)
        assert a.labels.tobytes() == b.labels.tobytes()

    @pytest.mark.parametrize("impl", ["array", "hashtable"])
    def test_sequential_labels_byte_identical(self, data, impl):
        g, tree = data
        a = dbscan_sequential(g.points, 25.0, 5, tree=tree, impl=impl)
        b = dbscan_sequential(g.points, 25.0, 5, tree=tree, impl=impl,
                              neighbor_mode="batched")
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="neighbor_mode"):
            SparkDBSCAN(1.0, 3, neighbor_mode="warp")
        with pytest.raises(ValueError, match="neighbor_mode"):
            dbscan_sequential(np.zeros((4, 2)), 1.0, 3, neighbor_mode="warp")
        assert NEIGHBOR_MODES == ("per_point", "batched")
