"""Edge-based merging (DESIGN.md §11): `merge_edges` over digests must
agree with `merge_union_find` over the founder-sorted partials exactly —
same gids, same claims, same labels — while never touching a member
list on the driver.  Both are adapters over `union_find_merge`, so what
these tests compare is the two owner tables (boundary exports vs all
members); `test_merge_golden.py` and the per-seed loop in
`test_properties.py` pin the shared core itself."""

import numpy as np
import pytest

from repro.dbscan import (
    NOISE,
    PartialCluster,
    apply_gid_map,
    digest_from_partials,
    merge_edges,
    merge_partials,
    merge_union_find,
)


def pc(partition, local_id, lo, hi, members, seeds=(), borders=()):
    c = PartialCluster(partition, local_id, lo, hi,
                       members=list(members), seeds=list(seeds))
    c.borders.update(borders)
    return c


def edge_labels(partials, n, min_cluster_size=0):
    plan = merge_edges(digest_from_partials(partials),
                       min_cluster_size=min_cluster_size)
    return apply_gid_map(partials, plan, n), plan


class TestDigestFromPartials:
    def test_exports_are_seed_targeted_members(self):
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[2])
        digests = digest_from_partials([a, b])
        assert [d.partition for d in digests] == [0, 1]
        # 2 is a member of a and a seed of b -> exported by partition 0;
        # 10 symmetrically by partition 1.  Interior members never ship.
        assert [(p, l) for (p, l, _) in digests[0].exports] == [(2, 0)]
        assert [(p, l) for (p, l, _) in digests[1].exports] == [(10, 0)]

    def test_border_member_exports_non_core(self):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], borders=[10])
        digests = digest_from_partials([a, b])
        (point, _, is_core), = digests[1].exports
        assert point == 10 and not is_core

    def test_summaries_carry_sizes_not_lists(self):
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10, 11], borders=[2])
        (d,) = digest_from_partials([a])
        (s,) = d.summaries
        assert (s.founder, s.n_members, s.n_seeds, s.n_borders) == (0, 3, 2, 1)
        assert s.size == a.size


class TestPaperFigure4:
    def _partials(self):
        c0 = pc(0, 0, 0, 2500, [0, 5, 6, 11, 23, 45, 223, 1000, 2300],
                seeds=[3000])
        c5 = pc(1, 0, 2500, 5000, [2501, 2600, 2800, 3000, 3401, 3678, 4200])
        return [c0, c5]

    def test_edge_merge_matches_union_find(self):
        partials = self._partials()
        ref = merge_union_find(partials, 5000)
        labels, plan = edge_labels(partials, 5000)
        np.testing.assert_array_equal(labels, ref.labels)
        assert plan.num_merges == ref.num_merges == 1
        assert plan.num_global_clusters == ref.num_global_clusters == 1
        assert plan.groups == ref.groups

    def test_plan_counts_the_single_edge(self):
        _, plan = edge_labels(self._partials(), 5000)
        assert plan.num_edges == 1
        assert plan.num_partials == 2
        assert plan.num_seeds == 1


class TestChainsAndBorders:
    def test_chain_closes(self):
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[20])
        c = pc(2, 0, 20, 30, [20, 21, 22])
        ref = merge_union_find([a, b, c], 30)
        labels, plan = edge_labels([a, b, c], 30)
        np.testing.assert_array_equal(labels, ref.labels)
        assert plan.num_global_clusters == 1

    def test_border_export_is_not_an_edge(self):
        # 10 is only a *border* member of b: legal DBSCAN sharing, no merge.
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], borders=[10])
        ref = merge_union_find([a, b], 20)
        labels, plan = edge_labels([a, b], 20)
        np.testing.assert_array_equal(labels, ref.labels)
        assert plan.num_edges == 0
        assert plan.num_global_clusters == 2

    def test_unowned_seed_becomes_claim(self):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[15])
        b = pc(1, 0, 10, 20, [11, 12])
        ref = merge_union_find([a, b], 20)
        labels, plan = edge_labels([a, b], 20)
        np.testing.assert_array_equal(labels, ref.labels)
        assert plan.claims == {15: plan.gid_of[(0, 0)]}

    def test_min_cluster_size_filters_like_merge_partials(self):
        tiny = pc(0, 0, 0, 10, [3])
        a = pc(1, 0, 10, 20, [10, 11], seeds=[20])
        b = pc(2, 0, 20, 30, [20, 21])
        ref = merge_partials([tiny, a, b], 30, min_cluster_size=2)
        labels, plan = edge_labels([tiny, a, b], 30, min_cluster_size=2)
        np.testing.assert_array_equal(labels, ref.labels)
        assert labels[3] == NOISE
        assert plan.groups == ref.groups

    def test_empty_digests(self):
        plan = merge_edges([])
        assert plan.num_global_clusters == 0
        assert plan.gid_of == {} and plan.claims == {}
        labels = apply_gid_map([], plan, 10)
        assert (labels == NOISE).all()

    def test_member_labels_ships_eight_bytes_a_point(self):
        """What an `ApplyGidMap` task sends back: member ids once, a gid
        and a count per kept cluster — not a gid per point."""
        from repro.dbscan.merge import member_labels

        a = pc(0, 0, 0, 10, [0, 1, 2, 3], seeds=[10])
        small = pc(0, 1, 0, 10, [7])
        b = pc(1, 0, 10, 20, [10, 11, 12])
        plan = merge_edges(digest_from_partials([a, small, b]),
                           min_cluster_size=2)
        ids, gids, sizes = member_labels([a, small, b], plan.gid_of)
        assert ids.tolist() == [0, 1, 2, 3, 10, 11, 12]
        assert gids.tolist() == [0, 0] and sizes.tolist() == [4, 3]
        assert ids.nbytes == 8 * 7 and gids.nbytes == sizes.nbytes == 8 * 2


class TestContestedBorderSeedDeterminism:
    """Regression: a border seed wanted by two global clusters used to go
    to whichever partial arrived first from the accumulator — an order
    that varies across engine backends.  The tie-break is now pinned to
    ascending founder order in both merge paths."""

    def _contested(self, flip):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[25])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[25])
        return [b, a] if flip else [a, b]

    @pytest.mark.parametrize("flip", [False, True])
    def test_union_find_claim_goes_to_lowest_founder(self, flip):
        out = merge_union_find(self._contested(flip), 30)
        assert out.labels[25] == out.labels[0]

    @pytest.mark.parametrize("flip", [False, True])
    def test_edge_claim_goes_to_lowest_founder(self, flip):
        partials = self._contested(flip)
        labels, _ = edge_labels(partials, 30)
        assert labels[25] == labels[0]

    def test_arrival_order_never_changes_labels(self):
        """Shuffled arrival order: identical point->cluster partition
        (canonical relabel), including the contested claim."""
        from repro.dbscan import relabel_canonical

        a = pc(0, 0, 0, 10, [0, 1], seeds=[25])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[25, 26])
        c = pc(2, 0, 20, 30, [20, 21], seeds=[26])
        base = relabel_canonical(merge_union_find([a, b, c], 30).labels)
        rng = np.random.default_rng(7)
        for _ in range(5):
            order = [[a, b, c][i] for i in rng.permutation(3)]
            got = relabel_canonical(merge_union_find(order, 30).labels)
            np.testing.assert_array_equal(got, base)


class TestDigestOrderInvariance:
    def test_shuffled_digests_same_plan(self):
        a = pc(0, 0, 0, 10, [0, 1, 2], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[20, 25])
        c = pc(2, 0, 20, 30, [20, 21, 22])
        digests = digest_from_partials([a, b, c])
        fwd = merge_edges(list(digests))
        rev = merge_edges(list(reversed(digests)))
        assert fwd.gid_of == rev.gid_of
        assert fwd.claims == rev.claims
        assert fwd.groups == rev.groups
        assert (fwd.num_edges, fwd.num_merges) == (rev.num_edges, rev.num_merges)
