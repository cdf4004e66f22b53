"""Driver-side merging (Algorithm 4): union-find vs the literal single pass."""

import numpy as np
import pytest

from repro.dbscan import (
    NOISE,
    PartialCluster,
    merge_paper,
    merge_partials,
)
from tests.dbscan.test_properties import UnionFind


def pc(partition, local_id, lo, hi, members, seeds=()):
    return PartialCluster(partition, local_id, lo, hi,
                          members=list(members), seeds=list(seeds))


class TestUnionFind:
    def test_initially_disjoint(self):
        uf = UnionFind(5)
        assert uf.components == 5
        assert len({uf.find(i) for i in range(5)}) == 5

    def test_union_reduces_components(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert not uf.union(0, 1)  # already joined
        assert uf.components == 3

    def test_transitive(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(1, 2)
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


class TestPaperFigure4:
    """The worked example from the paper (5000 points, 2 partitions)."""

    def _partials(self):
        c0 = pc(0, 0, 0, 2500, [0, 5, 6, 11, 223, 2300, 23, 45, 1000], seeds=[3000])
        c5 = pc(1, 0, 2500, 5000, [3000, 2501, 4200, 2800, 2600, 3401, 3678])
        return [c0, c5]

    def test_union_find_merges_them(self):
        out = merge_partials(self._partials(), 5000)
        assert out.num_global_clusters == 1
        assert out.num_merges == 1
        # All elements of both partial clusters share a label (Figure 4b).
        members = [0, 5, 6, 11, 223, 2300, 23, 45, 1000,
                   3000, 2501, 4200, 2800, 2600, 3401, 3678]
        assert np.unique(out.labels[members]).size == 1

    def test_paper_strategy_agrees_on_simple_case(self):
        a = merge_partials(self._partials(), 5000)
        b = merge_paper(self._partials(), 5000)
        assert b.num_global_clusters == 1
        np.testing.assert_array_equal(a.labels >= 0, b.labels >= 0)

    def test_unmentioned_points_are_noise(self):
        out = merge_partials(self._partials(), 5000)
        assert out.labels[1] == NOISE
        assert out.labels[4999] == NOISE


class TestMergeChains:
    """A→B→C chains: union-find closes them; Algorithm 4's single pass
    does not re-follow absorbed masters' seeds (Ablation B)."""

    def _chain(self):
        # Partition layout: [0,10), [10,20), [20,30).
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])       # touches B
        b = pc(1, 0, 10, 20, [10, 11], seeds=[20])       # touches C
        c = pc(2, 0, 20, 30, [20, 21, 22])
        return [a, b, c]

    def test_union_find_closes_chain(self):
        out = merge_partials(self._chain(), 30)
        assert out.num_global_clusters == 1
        assert np.unique(out.labels[[0, 10, 20]]).size == 1

    def test_paper_single_pass_closes_this_chain_by_order(self):
        # Processing order a, b, c: a absorbs b; c was already absorbed?
        # No: a's seed digs b only.  b's seeds are not re-dug, so c stays
        # separate — the documented limitation.
        out = merge_paper(self._chain(), 30)
        assert out.num_global_clusters == 2
        assert out.labels[0] == out.labels[10]
        assert out.labels[20] != out.labels[0]

    def test_reverse_chain_order_changes_paper_result(self):
        """Order sensitivity: with C processed first the chain closes
        differently — union-find is order-invariant."""
        chain = list(reversed(self._chain()))
        paper = merge_paper(chain, 30)
        uf = merge_partials(chain, 30)
        assert uf.num_global_clusters == 1
        assert paper.num_global_clusters >= uf.num_global_clusters

    def test_bidirectional_seeds_close_in_single_pass(self):
        """When every piece seeds back (the common case for core-dense
        clusters), even the single pass converges."""
        a = pc(0, 0, 0, 10, [0, 1], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[0, 20])
        c = pc(2, 0, 20, 30, [20, 21], seeds=[10])
        for order in ([a, b, c], [c, b, a], [b, a, c]):
            out = merge_paper([pc(x.partition, x.local_id, x.lo, x.hi,
                                  x.members, x.seeds) for x in order], 30)
            assert out.num_global_clusters == 1, f"order {[x.cid for x in order]}"


class TestOverlappingPointsDiagnostic:
    """`MergeOutcome.overlapping_points` counts the merge evidence the
    single pass left unfollowed — a core member of one global cluster
    that is simultaneously a seed of a different one."""

    def _chain(self):
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[20])
        c = pc(2, 0, 20, 30, [20, 21, 22])
        return [a, b, c]

    def test_split_chain_is_counted(self):
        """b's seed 20 is a core member of c, but {a,b} and {c} end up as
        different global clusters — exactly one overlapping point."""
        out = merge_paper(self._chain(), 30)
        assert out.num_global_clusters == 2
        assert out.overlapping_points == 1

    def test_union_find_reports_zero(self):
        """Union-find merges every such edge, so the diagnostic is 0."""
        out = merge_partials(self._chain(), 30)
        assert out.overlapping_points == 0

    def test_fully_merged_paper_pass_reports_zero(self):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[0])
        out = merge_paper([a, b], 20)
        assert out.num_global_clusters == 1
        assert out.overlapping_points == 0

    def test_border_seed_does_not_count(self):
        """A seed that is only a *border* member elsewhere is legal DBSCAN
        sharing, not a missed merge."""
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11])
        b.borders.add(10)  # 10 is a non-core member of b
        out = merge_paper([a, b], 20)
        assert out.num_global_clusters == 2
        assert out.overlapping_points == 0

    def test_distinct_points_counted_once(self):
        """A repeated seed entry for the same point counts once; two
        distinct unfollowed core seeds count twice."""
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[20, 20])
        c = pc(2, 0, 20, 30, [20, 21, 22])
        assert merge_paper([a, b, c], 30).overlapping_points == 1
        b2 = pc(1, 0, 10, 20, [10, 11], seeds=[20, 21])
        assert merge_paper([a, b2, c], 30).overlapping_points == 2


class TestBorderSeeds:
    def test_unowned_seed_becomes_border_member(self):
        # Seed 15 is nobody's regular member (non-core in its home
        # partition) — it must still join the cluster as a border point.
        a = pc(0, 0, 0, 10, [0, 1], seeds=[15])
        b = pc(1, 0, 10, 20, [11, 12])  # 15 not a member
        out = merge_partials([a, b], 20)
        assert out.labels[15] == out.labels[0]
        assert out.num_global_clusters == 2

    def test_contested_border_first_wins(self):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[25])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[25])
        out = merge_partials([a, b], 30)
        assert out.labels[25] in (out.labels[0], out.labels[10])
        assert out.num_global_clusters == 2


class TestMergePartialsAPI:
    def test_min_cluster_size_filters(self):
        tiny = pc(0, 0, 0, 10, [3])
        big = pc(1, 0, 10, 20, [10, 11, 12, 13])
        out = merge_partials([tiny, big], 20, min_cluster_size=3)
        assert out.labels[3] == NOISE  # filtered away (paper's r1m trick)
        assert out.labels[10] >= 0

    def test_min_cluster_size_groups_index_original_list(self):
        """Regression: with ``min_cluster_size`` filtering, ``groups``
        used to index the *filtered* partials list, so every group id
        after a dropped partial pointed at the wrong cluster."""
        tiny = pc(0, 0, 0, 10, [3])  # filtered out (size 1 < 2)
        a = pc(1, 0, 10, 20, [10, 11], seeds=[20])
        b = pc(2, 0, 20, 30, [20, 21])
        out = merge_partials([tiny, a, b], 30, min_cluster_size=2)
        # a and b merge; their group must name indices 1 and 2 of the
        # caller's list, not 0 and 1 of the filtered one.
        assert out.groups == [[1, 2]]
        assert out.labels[10] == out.labels[20]
        assert out.labels[3] == NOISE

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            merge_partials([], 0, strategy="magic")

    def test_empty_input(self):
        out = merge_partials([], 10)
        assert out.num_global_clusters == 0
        assert (out.labels == NOISE).all()

    def test_many_partials_single_partition_stay_separate(self):
        partials = [pc(0, i, 0, 100, [i * 10, i * 10 + 1]) for i in range(5)]
        out = merge_partials(partials, 100)
        assert out.num_global_clusters == 5
