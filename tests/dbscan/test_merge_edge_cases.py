"""Merge edge cases beyond the chain/border scenarios."""

import numpy as np

from repro.dbscan import NOISE, PartialCluster, merge_paper, merge_partials


def pc(partition, local_id, lo, hi, members, seeds=(), borders=()):
    return PartialCluster(partition, local_id, lo, hi,
                          members=list(members), seeds=list(seeds),
                          borders=set(borders))


class TestSeedTopologies:
    def test_mutual_seeds_single_merge(self):
        """Two clusters each seeding the other must merge exactly once."""
        a = pc(0, 0, 0, 10, [0, 1], seeds=[10])
        b = pc(1, 0, 10, 20, [10, 11], seeds=[1])
        out = merge_partials([a, b], 20)
        assert out.num_global_clusters == 1
        assert out.num_merges == 1

    def test_star_topology(self):
        """One hub cluster seeded by many leaves collapses to one."""
        hub = pc(0, 0, 0, 10, list(range(10)))
        leaves = [
            pc(k, 0, k * 10, (k + 1) * 10, [k * 10], seeds=[k - 1])
            for k in range(1, 6)
        ]
        out = merge_partials([hub] + leaves, 60)
        assert out.num_global_clusters == 1

    def test_two_components_stay_apart(self):
        a = pc(0, 0, 0, 10, [0, 1], seeds=[10])
        b = pc(1, 0, 10, 20, [10], seeds=[])
        c = pc(2, 0, 20, 30, [20, 21], seeds=[40])  # seed into empty space
        d = pc(3, 0, 30, 40, [30])
        out = merge_partials([a, b, c, d], 50)
        assert out.num_global_clusters == 3  # {a,b}, {c}, {d}

    def test_seed_pointing_at_noise_is_border_claim(self):
        a = pc(0, 0, 0, 10, [0], seeds=[15])
        out = merge_partials([a], 20)
        assert out.labels[15] == out.labels[0]
        assert out.num_merges == 0

    def test_dangling_seed_out_of_any_cluster(self):
        a = pc(0, 0, 0, 10, [0], seeds=[19])
        out = merge_partials([a], 20)
        # 19 belongs to no cluster's members: claimed as border of a.
        assert out.labels[19] == out.labels[0]
        # Other untouched points remain noise.
        assert out.labels[5] == NOISE

    def test_self_seed_impossible_but_harmless(self):
        """A (mal-formed) seed inside the cluster's own range is ignored by
        ownership rules rather than corrupting the merge."""
        a = pc(0, 0, 0, 10, [0, 5], seeds=[5])
        out = merge_partials([a], 10)
        assert out.num_global_clusters == 1
        assert out.num_merges == 0


class TestStrategiesConsistency:
    def test_paper_never_produces_more_merges_than_union_find(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            p = int(rng.integers(2, 6))
            per = 8
            partials = []
            for k in range(p):
                lo, hi = k * per, (k + 1) * per
                members = list(range(lo, hi))
                n_seeds = int(rng.integers(0, 3))
                seeds = [int(rng.integers(0, p * per)) for _ in range(n_seeds)]
                seeds = [s for s in seeds if not lo <= s < hi]
                partials.append(pc(k, 0, lo, hi, members, seeds))
            uf = merge_partials([_copy(c) for c in partials], p * per)
            pp = merge_paper([_copy(c) for c in partials], p * per)
            assert pp.num_global_clusters >= uf.num_global_clusters, (
                f"trial {trial}: single pass merged more than the closure"
            )

    def test_merge_partials_dispatch(self):
        a = pc(0, 0, 0, 10, [0], seeds=[10])
        b = pc(1, 0, 10, 20, [10])
        for strategy in ("union_find", "paper"):
            out = merge_partials([_copy(a), _copy(b)], 20, strategy=strategy)
            assert out.num_global_clusters == 1


def _copy(c: PartialCluster) -> PartialCluster:
    return PartialCluster(c.partition, c.local_id, c.lo, c.hi,
                          members=list(c.members), seeds=list(c.seeds),
                          borders=set(c.borders))
