"""Operation counters: the Section III-B bookkeeping claims, measured."""

import numpy as np
import pytest

from repro.dbscan import local_dbscan
from repro.dbscan.partial import OpCounters
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree


@pytest.fixture(scope="module")
def workload():
    from repro.data import generate_clustered

    g = generate_clustered(n=1200, num_clusters=4, cluster_std=8.0, seed=17)
    return g, KDTree(g.points)


def _run_counted(g, tree, p, pid, **kwargs):
    part = IndexRangePartitioner(g.n, p)
    lo, hi = part.range_of(pid)
    counters = OpCounters()
    partials = local_dbscan(pid, range(lo, hi), g.points, tree, 25.0, 5,
                            part, counters=counters, **kwargs)
    return partials, counters


class TestPaperInvariants:
    def test_queue_adds_equal_removes(self, workload):
        """The paper, Section III-B: 'The number of add operations should
        be the same as the number of remove operations ... (while loop
        will not terminate until it is empty).'"""
        g, tree = workload
        for p in (1, 2, 4):
            for pid in range(p):
                _, c = _run_counted(g, tree, p, pid)
                assert c.queue_adds == c.queue_removes

    def test_one_query_per_visited_point(self, workload):
        """Each point's eps-neighbourhood is computed at most once per
        partition (the hashtable's whole purpose)."""
        g, tree = workload
        part = IndexRangePartitioner(g.n, 2)
        lo, hi = part.range_of(0)
        _, c = _run_counted(g, tree, 2, 0)
        assert c.range_queries <= hi - lo

    def test_hashtable_puts_bounded_by_two_per_point(self, workload):
        # visited + assignment: at most two puts per own point.
        g, tree = workload
        part = IndexRangePartitioner(g.n, 2)
        lo, hi = part.range_of(1)
        _, c = _run_counted(g, tree, 2, 1)
        assert c.hashtable_puts <= 2 * (hi - lo)

    def test_seed_counter_matches_partials(self, workload):
        g, tree = workload
        partials, c = _run_counted(g, tree, 4, 1)
        assert c.seeds_placed == sum(len(pc.seeds) for pc in partials)

    def test_capped_policy_reports_skips(self, workload):
        g, tree = workload
        _, c_all = _run_counted(g, tree, 4, 0, seed_policy="all")
        _, c_cap = _run_counted(g, tree, 4, 0, seed_policy="one_per_partition")
        assert c_all.seeds_skipped == 0
        assert c_cap.seeds_skipped > 0
        assert c_cap.seeds_placed < c_all.seeds_placed


class TestInstrumentedPathEquivalence:
    def test_same_partials_with_and_without_counters(self, workload):
        g, tree = workload
        part = IndexRangePartitioner(g.n, 3)
        for pid in range(3):
            lo, hi = part.range_of(pid)
            plain = local_dbscan(pid, range(lo, hi), g.points, tree, 25.0, 5, part)
            counted = local_dbscan(pid, range(lo, hi), g.points, tree, 25.0, 5,
                                   part, counters=OpCounters())
            assert len(plain) == len(counted)
            for a, b in zip(plain, counted):
                assert a.members == b.members
                assert a.seeds.tolist() == b.seeds.tolist()


class TestMerge:
    def test_counters_merge_sums_fields(self):
        a = OpCounters(range_queries=3, queue_adds=10, queue_removes=10)
        b = OpCounters(range_queries=2, queue_adds=5, queue_removes=5,
                       seeds_placed=1)
        a.merge(b)
        assert a.range_queries == 5
        assert a.queue_adds == 15
        assert a.seeds_placed == 1
