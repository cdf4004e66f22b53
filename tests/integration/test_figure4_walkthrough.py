"""The paper's Figure 4 worked example, reconstructed geometrically.

Figure 4: 5000 points, 2 partitions with index ranges [0, 2500) and
[2500, 5000); partial cluster C[0] (from partition 0) contains the SEED
3000, which is a regular element of C[5] (from partition 1); merging
produces one finished cluster covering both ranges.

We build an actual point set in which exactly that happens: one
spatially-connected cluster whose members' indices straddle the 2500
boundary, so partition 0's expansion reaches an index ≥ 2500 (a SEED)
and the merge reunites the halves — then we verify every element of
the story the figure tells.
"""

import numpy as np

from repro.dbscan import SparkDBSCAN, dbscan_sequential
from repro.engine.partitioner import IndexRangePartitioner

N = 5000
EPS = 1.5
MINPTS = 3


def _figure4_points(seed: int = 0) -> np.ndarray:
    """One dense chain cluster + background far away, shuffled so the
    chain's indices straddle both partitions."""
    rng = np.random.default_rng(seed)
    chain_len = 400
    # A connected chain: consecutive points ~1 apart (eps=1.5 connects them).
    chain = np.c_[np.arange(chain_len) * 1.0, np.zeros(chain_len)]
    chain += rng.normal(0, 0.05, chain.shape)
    # Isolated background points, all mutually > eps apart and > eps from
    # the chain (placed on a sparse far-away grid).
    n_bg = N - chain_len
    side = int(np.ceil(np.sqrt(n_bg)))
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    bg = np.c_[gx.ravel()[:n_bg] * 10.0, gy.ravel()[:n_bg] * 10.0 + 1000.0]
    pts = np.vstack([chain, bg])
    return pts[rng.permutation(N)]


class TestFigure4Story:
    def setup_method(self):
        self.points = _figure4_points()
        self.partitioner = IndexRangePartitioner(N, 2)
        model = SparkDBSCAN(EPS, MINPTS, num_partitions=2, keep_partials=True)
        self.result = model.fit(self.points)

    def test_partition_ranges_match_figure(self):
        assert self.partitioner.range_of(0) == (0, 2500)
        assert self.partitioner.range_of(1) == (2500, 5000)

    def test_partial_clusters_carry_cross_partition_seeds(self):
        partials = self.result.partials
        assert partials is not None
        with_seeds = [c for c in partials if len(c.seeds)]
        assert with_seeds, "the chain must produce cross-partition SEEDs"
        for c in with_seeds:
            for s in c.seeds:
                # "the point whose index is greater than 2499 is [a SEED]"
                assert not (c.lo <= s < c.hi)
                assert self.partitioner.partition(s) != c.partition

    def test_seed_is_regular_element_of_master(self):
        partials = self.result.partials
        owner = {}
        for i, c in enumerate(partials):
            for m in c.members:
                owner[m] = i
        cross = 0
        for c in partials:
            for s in c.seeds:
                if s in owner:
                    master = partials[owner[s]]
                    assert master.owns(s)  # a *regular* element there
                    cross += 1
        assert cross >= 1, "at least one SEED must have a master cluster"

    def test_merge_reunites_the_chain(self):
        # After merging, the chain is ONE cluster even though its points
        # live in both partitions.
        seq = dbscan_sequential(self.points, EPS, MINPTS)
        assert self.result.num_clusters == seq.num_clusters == 1
        chain_members = np.flatnonzero(self.result.labels >= 0)
        partitions_touched = {self.partitioner.partition(int(i)) for i in chain_members}
        assert partitions_touched == {0, 1}

    def test_merge_count_matches_partials(self):
        # k partial pieces of one cluster need exactly k-1 merges.
        non_trivial = self.result.num_partial_clusters
        assert self.result.num_merges == non_trivial - 1
