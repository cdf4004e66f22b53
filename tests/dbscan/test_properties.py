"""Property-based DBSCAN tests: the paper's equivalence claim under
arbitrary data, partitioning, and parameters (hypothesis)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import (
    NOISE,
    PartialCluster,
    SparkDBSCAN,
    UnionFind,
    apply_gid_map,
    clusterings_equivalent,
    dbscan_sequential,
    digest_from_partials,
    local_dbscan,
    merge_edges,
    merge_partials,
    merge_union_find,
    union_find_merge,
)
from repro.dbscan import merge as merge_module
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree

#: The production block, and two that split any non-trivial seed list.
SEED_BLOCKS = (1, 7, merge_module.SEED_BLOCK_ROWS)


def seed_block(rows):
    return mock.patch.object(merge_module, "SEED_BLOCK_ROWS", rows)


def plain(partials):
    """Partials as values ``==`` can compare: every field, the int64
    seed array as a list."""
    return [{**vars(c), "seeds": c.seeds.tolist()} for c in partials]


@st.composite
def point_clouds(draw):
    """Small 2-D clouds with clumps, to get interesting cluster structure."""
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


@settings(max_examples=40, deadline=None)
@given(
    pts=point_clouds(),
    p=st.integers(1, 6),
    eps=st.floats(0.5, 8.0),
    minpts=st.integers(2, 6),
)
def test_parallel_equivalent_to_sequential(pts, p, eps, minpts):
    """The paper's central claim, as a property over random workloads."""
    tree = KDTree(pts, leaf_size=8)
    seq = dbscan_sequential(pts, eps, minpts, tree=tree)
    par = SparkDBSCAN(eps, minpts, num_partitions=p).fit(pts, tree=tree)
    ok, why = clusterings_equivalent(seq.labels, par.labels, pts, eps, minpts, tree=tree)
    assert ok, why


@settings(max_examples=30, deadline=None)
@given(pts=point_clouds(), p=st.integers(2, 6), eps=st.floats(0.5, 8.0))
def test_one_per_partition_policy_is_conservative(pts, p, eps):
    """The literal Algorithm 3 cap never *invents* clustered points: its
    clustered set is a subset of the exact policy's clustered set, and
    core structure is preserved."""
    minpts = 3
    tree = KDTree(pts, leaf_size=8)
    exact = SparkDBSCAN(eps, minpts, num_partitions=p).fit(pts, tree=tree)
    capped = SparkDBSCAN(eps, minpts, num_partitions=p,
                         seed_policy="one_per_partition").fit(pts, tree=tree)
    clustered_exact = exact.labels != NOISE
    clustered_capped = capped.labels != NOISE
    assert (clustered_capped <= clustered_exact).all()


@settings(max_examples=30, deadline=None)
@given(pts=point_clouds(), p=st.integers(1, 6), eps=st.floats(0.5, 8.0),
       minpts=st.integers(2, 6))
def test_partial_clusters_partition_own_members(pts, p, eps, minpts):
    """Invariant: within one partition, partial clusters never share
    members, and every member is in the partition's range."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    for pid in range(p):
        lo, hi = part.range_of(pid)
        partials = local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts, part)
        seen: set[int] = set()
        for c in partials:
            assert not (seen & set(c.members))
            seen.update(c.members)
            assert all(lo <= m < hi for m in c.members)
            assert all(not lo <= s < hi for s in c.seeds)


@settings(max_examples=30, deadline=None)
@given(pts=point_clouds(), p=st.integers(1, 6), eps=st.floats(0.5, 8.0),
       minpts=st.integers(2, 6))
def test_merge_is_partition_count_invariant_on_cores(pts, p, eps, minpts):
    """Cluster count must not depend on the number of partitions."""
    tree = KDTree(pts, leaf_size=8)
    one = SparkDBSCAN(eps, minpts, num_partitions=1).fit(pts, tree=tree)
    many = SparkDBSCAN(eps, minpts, num_partitions=p).fit(pts, tree=tree)
    assert one.num_clusters == many.num_clusters
    assert one.num_noise == many.num_noise


def _collected_partials(pts, p, eps, minpts, tree):
    """Partials as the driver sees them: all partitions, founder-sorted
    (the canonical order `CollectPartials` pins after draining)."""
    part = IndexRangePartitioner(len(pts), p)
    partials = []
    for pid in range(p):
        lo, hi = part.range_of(pid)
        partials.extend(local_dbscan(pid, range(lo, hi), pts, tree, eps,
                                     minpts, part))
    partials.sort(key=lambda c: c.members[0])
    return partials


def loop_merge(clusters, owners, min_cluster_size=0):
    """Per-seed reference for `union_find_merge`: one dict lookup and one
    ``union`` per seed, the loop the array core replaced.  Returns
    ``(gid_of, claims, num_edges)``."""
    kept = [ci for ci, row in enumerate(clusters) if row[2] >= min_cluster_size]
    table = {p: (ci, core) for p, ci, core in owners if ci in kept}
    uf = UnionFind(len(clusters))
    num_edges = 0
    for ci in kept:
        for s in clusters[ci][3]:
            oi, core = table.get(s, (None, False))
            if core:
                num_edges += 1
                uf.union(ci, oi)
    gids, gid_of, claims = {}, {}, {}
    for ci in kept:
        gid_of[clusters[ci][0]] = gids.setdefault(uf.find(ci), len(gids))
    for ci in sorted(kept, key=lambda i: clusters[i][1]):
        for s in clusters[ci][3]:
            if s not in table:
                claims.setdefault(s, gid_of[clusters[ci][0]])
    return gid_of, claims, num_edges


def core_inputs(partials):
    """`union_find_merge`'s arguments for collected partials, the owner
    table as ``(point, cluster, is_core)`` triples."""
    clusters = [(c.cid, c.members[0], c.size, c.seeds) for c in partials]
    owners = [(m, ci, m not in c.borders)
              for ci, c in enumerate(partials) for m in c.members]
    return clusters, owners


def owner_arrays(owners):
    table = np.array(owners, dtype=np.int64).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2].astype(bool)


def array_merge(clusters, owners, min_cluster_size=0):
    return union_find_merge(clusters, *owner_arrays(owners), min_cluster_size)


@settings(max_examples=30, deadline=None)
@given(pts=point_clouds(), p=st.integers(1, 6), eps=st.floats(0.5, 8.0),
       minpts=st.integers(2, 6), block=st.sampled_from(SEED_BLOCKS))
def test_edge_merge_equivalent_to_partials_merge(pts, p, eps, minpts, block):
    """DESIGN.md §11's contract as a property: merging digests and
    re-applying the gid map is byte-identical to merging whole partials
    — and, both being adapters over one core, to the per-seed loop,
    whatever the seed block."""
    tree = KDTree(pts, leaf_size=8)
    partials = _collected_partials(pts, p, eps, minpts, tree)
    with seed_block(block):
        ref = merge_union_find(partials, len(pts))
        plan = merge_edges(digest_from_partials(partials))
    labels = apply_gid_map(partials, plan, len(pts))
    np.testing.assert_array_equal(labels, ref.labels)
    assert plan.num_merges == ref.num_merges
    assert plan.num_global_clusters == ref.num_global_clusters
    assert plan.groups == ref.groups
    gid_of, claims, num_edges = loop_merge(*core_inputs(partials))
    assert list(plan.gid_of.items()) == list(gid_of.items())
    assert (plan.claims, plan.num_edges) == (claims, num_edges)


@settings(max_examples=20, deadline=None)
@given(pts=point_clouds(), p=st.integers(2, 5), eps=st.floats(0.5, 8.0),
       size=st.integers(1, 6), block=st.sampled_from(SEED_BLOCKS))
def test_edge_merge_respects_min_cluster_size(pts, p, eps, size, block):
    """The r1m small-partial filter must behave identically in both
    merge paths, kept-set and labels alike."""
    minpts = 3
    tree = KDTree(pts, leaf_size=8)
    partials = _collected_partials(pts, p, eps, minpts, tree)
    with seed_block(block):
        ref = merge_partials(list(partials), len(pts), min_cluster_size=size)
        plan = merge_edges(digest_from_partials(partials),
                           min_cluster_size=size)
    labels = apply_gid_map(partials, plan, len(pts))
    np.testing.assert_array_equal(labels, ref.labels)
    assert plan.groups == ref.groups
    gid_of, claims, _ = loop_merge(*core_inputs(partials), size)
    assert (plan.gid_of, plan.claims) == (gid_of, claims)


def _cluster(cid, founder, seeds, size=10):
    return ((cid, 0), founder, size, list(seeds))


#: Hand-built core inputs aimed at the block boundaries.
BLOCK_CASES = {
    # 20 seeds in one cluster: three blocks of 7, twenty of 1.
    "a cluster whose seeds exceed one block": (
        [_cluster(0, 0, range(100, 120)), _cluster(1, 100, [0])],
        [(0, 0, True)] + [(100 + k, 1, k % 3 != 0) for k in range(20)], 0),
    # 500 is owned by nobody; clusters 2 (founder 5) and 0 (founder 40,
    # merged with 1) both reach it, from seed positions 3 and 11 of the
    # founder walk.  41 is a border row: found, but not an edge.
    "a contested border seed whose claimants fall in different blocks": (
        [_cluster(0, 40, [21, 22, 500]), _cluster(1, 20, [41, 42, 43, 44, 45]),
         _cluster(2, 5, [6, 7, 8, 500])],
        [(40, 0, True), (41, 0, False), (20, 1, True), (21, 1, True),
         (22, 1, True), (5, 2, True)], 0),
    # Both claimants of 500 fit any block of 7 or more, the lower founder
    # listed second and 500 neither end of either seed list: the point
    # sort must keep founder-walk order among equal points.
    "a contested border seed whose lower founder comes later in the block": (
        [_cluster(0, 40, [900, 500, 3]), _cluster(1, 5, [700, 500, 1])],
        [(40, 0, True), (5, 1, True)], 0),
    "an empty owner table": (
        [_cluster(0, 3, [9, 8, 7]), _cluster(1, 1, [8, 3])], [], 0),
    "zero kept clusters": (
        [_cluster(0, 0, [10], size=2), _cluster(1, 10, [0], size=3)],
        [(0, 0, True), (10, 1, True)], 4),
    "no clusters at all": ([], [], 0),
}


@pytest.mark.parametrize("block", SEED_BLOCKS)
@pytest.mark.parametrize("case", BLOCK_CASES)
def test_seed_blocks_do_not_change_the_merge(case, block):
    clusters, owners, size = BLOCK_CASES[case]
    gid_of, claims, num_edges = loop_merge(clusters, owners, size)
    with seed_block(block):
        plan = array_merge(clusters, owners, size)
    assert (plan.gid_of, plan.claims, plan.num_edges) == (
        gid_of, claims, num_edges)
    assert plan.num_global_clusters == len(set(gid_of.values()))
    assert plan.num_merges == len(gid_of) - plan.num_global_clusters
    assert sorted(ci for g in plan.groups for ci in g) == [
        ci for ci, row in enumerate(clusters) if row[2] >= size]


def test_contested_claim_goes_to_the_lower_founder_across_blocks():
    clusters, owners, _ = BLOCK_CASES[
        "a contested border seed whose claimants fall in different blocks"]
    with seed_block(7):
        plan = array_merge(clusters, owners)
    assert plan.claims[500] == plan.gid_of[(2, 0)] != plan.gid_of[(0, 0)]


def test_contested_claim_goes_to_the_lower_founder_within_a_block():
    clusters, owners, _ = BLOCK_CASES[
        "a contested border seed whose lower founder comes later in the block"]
    plan = array_merge(clusters, owners)
    assert plan.claims[500] == plan.gid_of[(1, 0)] != plan.gid_of[(0, 0)]


@pytest.mark.parametrize("block", SEED_BLOCKS)
def test_a_chain_linked_one_block_at_a_time_is_one_group(block):
    """Cluster k reaches only cluster k + 1, seven seeds a cluster, so
    under a block of 7 (or 1) every block brings one link between two
    components the filter has never seen together."""
    m = 40
    clusters = [
        _cluster(k, 1000 * (m - k),
                 [5001 + 7 * k + j for j in range(3)]
                 + [1000 * (m - k - 1)] * (k < m - 1)
                 + [9001 + 7 * k + j for j in range(3)])
        for k in range(m)
    ]
    owners = [(1000 * (m - k), k, True) for k in range(m)]
    gid_of, claims, num_edges = loop_merge(clusters, owners)
    stats = {}
    with seed_block(block):
        plan = union_find_merge(clusters, *owner_arrays(owners), stats=stats)
    assert plan.groups == [list(range(m))]
    assert (plan.gid_of, plan.claims, plan.num_edges) == (
        gid_of, claims, num_edges)
    assert (plan.num_merges, stats["live_pairs"]) == (m - 1, m - 1)
    assert stats["seed_blocks"] == -(-(7 * m - 1) // block)


@pytest.mark.parametrize("block", SEED_BLOCKS)
def test_num_edges_counts_the_hits_the_component_filter_drops(block):
    """Two clusters seeding fifty of each other's core points: one pair
    is live (two when both directions share a block), the other hits
    are filtered — and still counted."""
    clusters = [_cluster(0, 0, range(100, 150)), _cluster(1, 100, range(50))]
    owners = ([(k, 0, True) for k in range(50)]
              + [(100 + k, 1, True) for k in range(50)])
    stats = {}
    with seed_block(block):
        plan = union_find_merge(clusters, *owner_arrays(owners), stats=stats)
    assert plan.num_edges == loop_merge(clusters, owners)[2] == 100
    assert plan.num_merges == 1
    assert stats["live_pairs"] == (2 if block >= 100 else 1)


def test_a_seed_too_large_for_the_point_sort_key_is_refused():
    with pytest.raises(OverflowError):
        array_merge([_cluster(0, 0, [2**62, 1])], [])


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_seed_sequences_of_any_int_type_give_the_same_plan(case):
    clusters, owners, size = BLOCK_CASES[case]
    plans = [
        vars(array_merge(
            [(cid, founder, n, as_seeds(seeds))
             for cid, founder, n, seeds in clusters], owners, size))
        for as_seeds in (list, lambda s: np.array(s, np.int64),
                         lambda s: np.array(s, np.int32))
    ]
    assert plans[0] == plans[1] == plans[2]


def _paper_shaped_partials(seeds_per_cluster):
    """2 048 six-member partials over 12 288 points, every seed a core
    member of another partial — the shape of `paper_r100k_p32`, where
    seeds outnumber points by 25 to 1 and more."""
    rng = np.random.default_rng(0)
    n, per = 12288, 6
    partials = []
    for ci in range(n // per):
        lo = ci * per
        seeds = rng.integers(0, n - per, seeds_per_cluster)
        seeds[seeds >= lo] += per
        partials.append(PartialCluster(
            ci % 32, ci // 32, lo, lo + per,
            members=list(range(lo, lo + per)),
            seeds=np.unique(seeds).tolist(),
        ))
    return n, partials


@pytest.mark.parametrize("seeds_per_cluster", [160, 320])
def test_merge_memory_is_independent_of_the_seed_total(seeds_per_cluster):
    """The join runs in `SEED_BLOCK_ROWS` blocks, so what the merge
    allocates is O(owner table + partials), not O(seeds).  Both adapters
    peak at 1.8 to 2.2 MiB here at either size; joined in one piece (the
    block constant patched to 10**9) they peak at 48 MiB with 160 seeds
    per cluster and 93 MiB with 320."""
    n, partials = _paper_shaped_partials(seeds_per_cluster)
    assert len(partials) >= 2000
    assert sum(len(c.seeds) for c in partials) >= 300_000 * seeds_per_cluster // 160
    digests = digest_from_partials(partials)
    for merge in (lambda: merge_union_find(partials, n),
                  lambda: merge_edges(digests)):
        tracemalloc.start()
        try:
            merge()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, f"{peak / 2**20:.1f} MiB"


@settings(max_examples=25, deadline=None)
@given(pts=point_clouds(), eps=st.floats(0.5, 8.0), minpts=st.integers(2, 6),
       p=st.integers(2, 5))
def test_union_find_merge_order_invariant(pts, eps, minpts, p):
    """Shuffling the accumulator's partial-cluster arrival order must not
    change the union-find merge outcome."""
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    partials = []
    for pid in range(p):
        lo, hi = part.range_of(pid)
        partials.extend(local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts, part))
    a = merge_partials(list(partials), len(pts))
    rng = np.random.default_rng(0)
    shuffled = [partials[i] for i in rng.permutation(len(partials))]
    b = merge_partials(shuffled, len(pts))
    assert a.num_global_clusters == b.num_global_clusters
    np.testing.assert_array_equal(a.labels == NOISE, b.labels == NOISE)
