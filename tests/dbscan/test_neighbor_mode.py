"""Batched executor mode (`neighbor_mode="batched"`) must be behaviourally
identical to the paper's per-point loop: same partial clusters (members,
member order, borders, seeds, seed order), same merged labels, and the
same OpCounters — the batched query issues exactly one kernel query per
owned point, which is also what the per-point loop does one call at a
time.  Checked on both frames the one expansion kernel is entered with:
the range plan's (`local_dbscan`) and the cell plan's
(`cell_local_dbscan`), with and without counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import SparkDBSCAN, dbscan_sequential, local_dbscan
from repro.dbscan.cells import build_cell_assignment, cell_local_dbscan
from repro.dbscan.partial import NEIGHBOR_MODES, OpCounters
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree


@st.composite
def point_clouds(draw):
    seed = draw(st.integers(0, 10_000))
    n_clumps = draw(st.integers(1, 4))
    per_clump = draw(st.integers(3, 25))
    noise = draw(st.integers(0, 10))
    rng = np.random.default_rng(seed)
    blocks = [
        rng.normal(rng.uniform(-50, 50, 2), draw(st.floats(0.3, 3.0)), (per_clump, 2))
        for _ in range(n_clumps)
    ]
    if noise:
        blocks.append(rng.uniform(-60, 60, (noise, 2)))
    pts = np.vstack(blocks)
    return pts[rng.permutation(len(pts))]


def _identical_partials(a, b):
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.cid == cb.cid
        assert ca.members == cb.members      # order matters: BFS replay
        assert ca.seeds == cb.seeds
        assert ca.borders == cb.borders
        assert (ca.lo, ca.hi) == (cb.lo, cb.hi)


def frame_runners(pts, p, eps, minpts):
    """One ``run(**kwargs) -> partials`` per partition, for both frames."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    runners = []
    for pid in range(p):
        lo, hi = part.range_of(pid)

        def run_range(pid=pid, lo=lo, hi=hi, **kwargs):
            return local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts,
                                part, **kwargs)

        runners.append((hi - lo, run_range))
    for payload in build_cell_assignment(pts, eps, p).payloads(pts):

        def run_cell(payload=payload, **kwargs):
            return cell_local_dbscan(payload, eps, minpts, leaf_size=8,
                                     **kwargs)

        runners.append((len(payload.owned_ids), run_cell))
    return runners


@settings(max_examples=40, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 6),
    eps=st.floats(0.5, 8.0),
    minpts=st.integers(2, 6),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_batched_partials_identical(pts, p, eps, minpts, policy):
    """Property: partial clusters match per-point exactly, both policies,
    both frames, and whether or not the run is counted."""
    for _, run in frame_runners(pts, p, eps, minpts):
        per_point = run(seed_policy=policy, neighbor_mode="per_point")
        for mode in NEIGHBOR_MODES:
            for counters in (None, OpCounters()):
                _identical_partials(per_point, run(
                    seed_policy=policy, neighbor_mode=mode, counters=counters))


@settings(max_examples=25, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 5),
    eps=st.floats(0.5, 8.0),
    policy=st.sampled_from(("all", "one_per_partition")),
)
def test_batched_op_counters_identical(pts, p, eps, policy):
    """The Section III-B bookkeeping is mode-independent: identical queue,
    hashtable, and seed counts, and range_queries covers each owned point
    exactly once in both modes — on the range and the cell frame."""
    for n_own, run in frame_runners(pts, p, eps, 3):
        c_pp, c_b = OpCounters(), OpCounters()
        partials = run(seed_policy=policy, neighbor_mode="per_point",
                       counters=c_pp)
        run(seed_policy=policy, neighbor_mode="batched", counters=c_b)
        assert c_pp.__dict__ == c_b.__dict__
        assert c_b.range_queries == n_own
        assert c_b.queue_adds == c_b.queue_removes
        assert c_b.seeds_placed == sum(len(c.seeds) for c in partials)
        if policy == "all":
            assert c_b.seeds_skipped == 0


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

    def test_pruned_queries_also_identical(self, data):
        """The r1m branch-pruning cap composes with the batched kernel."""
        g, tree = data
        a = SparkDBSCAN(25.0, 5, num_partitions=4, max_neighbors=16).fit(
            g.points, tree=tree)
        b = SparkDBSCAN(25.0, 5, num_partitions=4, max_neighbors=16,
                        neighbor_mode="batched").fit(g.points, tree=tree)
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="neighbor_mode"):
            SparkDBSCAN(1.0, 3, neighbor_mode="warp")
        with pytest.raises(ValueError, match="neighbor_mode"):
            dbscan_sequential(np.zeros((4, 2)), 1.0, 3, neighbor_mode="warp")
        assert NEIGHBOR_MODES == ("per_point", "batched")
