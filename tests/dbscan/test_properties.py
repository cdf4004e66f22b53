"""Property-based DBSCAN tests: the paper's equivalence claim under
arbitrary data, partitioning, and parameters (hypothesis)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dbscan import (
    MERGE_MODES,
    NOISE,
    ClusterTable,
    MapReduceDBSCAN,
    PartialCluster,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    apply_gid_map,
    clusterings_equivalent,
    dbscan_sequential,
    digest_from_partials,
    local_dbscan,
    merge_edges,
    merge_partials,
    union_find_merge,
)
from repro.dbscan import merge as merge_module
from repro.dbscan.partial import as_table
from repro.dbscan.partial import TABLE_ARRAYS
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from tests.dbscan.test_witness_once import FRAMES, chained_inputs, expansions

#: The production block, and two that split any non-trivial seed list.
SEED_BLOCKS = (1, 7, merge_module.SEED_BLOCK_ROWS)


#: The merge's two probes: a per-point code array, as `merge_partials`
#: runs it (given the point count), and the point-sorted owner table, as
#: `merge_edges` runs it.
PROBES = ("codes", "sorted")


def seed_block(rows):
    return mock.patch.object(merge_module, "SEED_BLOCK_ROWS", rows)


def probe_merge(table, probe, min_cluster_size=0, stats=None):
    """`union_find_merge` over one table through the given probe; the
    codes get the smallest point count that holds every id."""
    n = 1 + int(max(table.members.max(initial=0), table.seeds.max(initial=0),
                    table.orphans.max(initial=0)))
    return union_find_merge(table, min_cluster_size, stats,
                            _n=n if probe == "codes" else None)


def plain(partials):
    """Partials as values ``==`` can compare: every field, the int64
    seed array as a list."""
    return [{**vars(c), "seeds": c.seeds.tolist()} for c in partials]


def gid_map(plan) -> dict:
    """An `EdgeMergePlan`'s gid columns as ``{(partition, local_id):
    gid}``, in column order: what `loop_merge` returns."""
    return dict(zip(zip(plan.partition.tolist(), plan.local_id.tolist()),
                    plan.gid.tolist()))


def plan_view(plan) -> dict:
    """An `EdgeMergePlan` as a value ``==`` can compare: every field,
    the gid columns as `gid_map`."""
    return {"gid_of": gid_map(plan), **{
        k: v for k, v in vars(plan).items()
        if k not in ("partition", "local_id", "gid")}}


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


class UnionFind:
    """Weighted quick-union with path halving: `loop_merge`'s, and the
    kernel reference's, component structure."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, x: int) -> int:
        """Union-find root of the given element."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join two components; True if they were previously disjoint."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


def loop_merge(clusters, owners, min_cluster_size=0, orphans=()):
    """Per-seed reference for `union_find_merge`: one dict lookup and one
    ``union`` per seed, the loop the array core replaced, and one lookup
    per orphan row.  Returns ``(gid_of, claims, num_edges)``."""
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
    reached: dict[int, list[int]] = {}  # cluster -> orphans on its core rows
    for point, nbr in orphans:
        oi, core = table.get(nbr, (None, False))
        if core:
            reached.setdefault(oi, []).append(point)
    for ci in sorted(kept, key=lambda i: clusters[i][1]):
        unowned = [s for s in clusters[ci][3] if s not in table]
        for s in unowned + reached.get(ci, []):
            claims.setdefault(s, gid_of[clusters[ci][0]])
    return gid_of, claims, num_edges


def core_inputs(partials):
    """`loop_merge`'s arguments for collected partials: ``(cid, founder,
    size, seeds)`` rows and the owner table as ``(point, cluster,
    is_core)`` triples."""
    clusters = [(c.cid, c.members[0], c.size, c.seeds) for c in partials]
    owners = [(m, ci, m not in c.borders)
              for ci, c in enumerate(partials) for m in c.members]
    return clusters, owners


def core_table(clusters, owners):
    """`union_find_merge`'s input for `loop_merge`'s: the owner triples
    become the clusters' member rows, and ``down_seeds`` is whatever
    makes `ClusterTable.sizes` the row's size."""
    rows = sorted(owners, key=lambda row: row[1])
    counts = np.bincount([ci for _, ci, _ in rows],
                         minlength=len(clusters)).astype(np.int64)
    seeds = [np.asarray(row[3], dtype=np.int64) for row in clusters]
    num_seeds = np.array([len(x) for x in seeds], dtype=np.int64)
    sizes = np.array([row[2] for row in clusters], dtype=np.int64)
    border = np.array([not core for _, _, core in rows], dtype=bool)
    zeros = np.zeros(len(clusters), dtype=np.int64)
    return ClusterTable(
        task=-1,
        partition=np.array([row[0][0] for row in clusters], dtype=np.int64),
        local_id=np.array([row[0][1] for row in clusters], dtype=np.int64),
        lo=zeros, hi=zeros,
        founder=np.array([row[1] for row in clusters], dtype=np.int64),
        member_count=counts,
        border_count=np.bincount([ci for _, ci, core in rows if not core],
                                 minlength=len(clusters)).astype(np.int64),
        down_seeds=sizes - counts - num_seeds,
        member_ptr=np.append(0, np.cumsum(counts)),
        members=np.array([p for p, _, _ in rows], dtype=np.int64),
        border=border,
        seed_ptr=np.append(0, np.cumsum(num_seeds)),
        seeds=np.concatenate(seeds) if seeds else np.empty(0, np.int64),
    )


def array_merge(clusters, owners, min_cluster_size=0, probe="sorted",
                stats=None):
    return probe_merge(core_table(clusters, owners), probe, min_cluster_size,
                       stats)


@settings(max_examples=40, deadline=None)
@given(pts=st.one_of(point_clouds(), chained_inputs()), p=st.integers(1, 6),
       eps=st.floats(0.5, 8.0), minpts=st.integers(2, 6),
       block=st.sampled_from(SEED_BLOCKS), frame=st.sampled_from(FRAMES),
       witness=st.booleans(), probe=st.sampled_from(PROBES))
def test_edge_merge_equivalent_to_partials_merge(pts, p, eps, minpts, block,
                                                 frame, witness, probe):
    """DESIGN.md §11's contract as a property: merging the tasks'
    projections and re-applying the gid map is byte-identical to merging
    their whole records — and, both passing one core a table, to the
    per-seed loop, the whole record through either probe — whatever the
    seed block, in the range and the cell frame, with full seeds or
    up-pointing seeds plus orphan rows."""
    n = len(pts)
    tables = expansions(frame, pts, eps, minpts, p, witness)
    table = ClusterTable.concat(tables)
    with seed_block(block):
        ref = merge_partials(table, n)
        plan = merge_edges([t.project() for t in tables])
        whole = probe_merge(table, probe)
    labels = apply_gid_map(table, plan, n)
    np.testing.assert_array_equal(labels, ref.labels)
    assert plan.num_merges == ref.num_merges
    assert plan.num_global_clusters == ref.num_global_clusters
    assert plan.groups == ref.groups
    gid_of, claims, num_edges = loop_merge(*core_inputs(table),
                                           orphans=table.orphans.tolist())
    assert list(gid_map(plan).items()) == list(gid_of.items())
    assert (plan.claims, plan.num_edges) == (claims, num_edges)
    assert list(gid_map(whole).items()) == list(gid_of.items())
    assert (whole.claims, whole.num_edges) == (claims, num_edges)


def view_columns(table):
    """The record's columns its `PartialCluster` views carry: all but
    the orphan table, the boundary flags and the op counts."""
    return {f: getattr(table, f).tolist() for f in TABLE_ARRAYS
            if f not in ("orphans", "boundary", "ops")}


@settings(max_examples=30, deadline=None)
@given(pts=st.one_of(point_clouds(), chained_inputs()), p=st.integers(1, 6),
       eps=st.floats(0.5, 8.0), minpts=st.integers(2, 6),
       frame=st.sampled_from(FRAMES), witness=st.booleans())
def test_record_views_round_trip(pts, p, eps, minpts, frame, witness):
    """Record -> `PartialCluster` views -> record loses nothing, for each
    task's table and for their founder-sorted concatenation; and, over
    full seeds (the reference projection keeps no orphan rows), the
    tasks' projections plan exactly the merge `digest_from_partials`
    plans over the views."""
    tables = expansions(frame, pts, eps, minpts, p, witness)
    table = ClusterTable.concat(tables)
    for t in tables + [table]:
        assert view_columns(ClusterTable.from_partials(t)) == view_columns(t)
    if not witness:
        assert plan_view(merge_edges([t.project() for t in tables])) == (
            plan_view(merge_edges(digest_from_partials(list(table)))))


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
        wholes = [probe_merge(as_table(partials), probe, size)
                  for probe in PROBES]
    labels = apply_gid_map(partials, plan, len(pts))
    np.testing.assert_array_equal(labels, ref.labels)
    assert plan.groups == ref.groups
    gid_of, claims, _ = loop_merge(*core_inputs(partials), size)
    for got in [plan] + wholes:
        assert (gid_map(got), got.claims) == (gid_of, claims)


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
    for probe in PROBES:
        with seed_block(block):
            plan = array_merge(clusters, owners, size, probe)
        assert (gid_map(plan), plan.claims, plan.num_edges) == (
            gid_of, claims, num_edges)
        assert plan.num_global_clusters == len(set(gid_of.values()))
        assert plan.num_merges == len(gid_of) - plan.num_global_clusters
        assert sorted(ci for g in plan.groups for ci in g) == [
            ci for ci, row in enumerate(clusters) if row[2] >= size]


def test_contested_claim_goes_to_the_lower_founder_across_blocks():
    clusters, owners, _ = BLOCK_CASES[
        "a contested border seed whose claimants fall in different blocks"]
    for probe in PROBES:
        with seed_block(7):
            plan = array_merge(clusters, owners, probe=probe)
        assert plan.claims[500] == gid_map(plan)[2, 0] != gid_map(plan)[0, 0]


def test_contested_claim_goes_to_the_lower_founder_within_a_block():
    clusters, owners, _ = BLOCK_CASES[
        "a contested border seed whose lower founder comes later in the block"]
    for probe in PROBES:
        plan = array_merge(clusters, owners, probe=probe)
        assert plan.claims[500] == gid_map(plan)[1, 0] != gid_map(plan)[0, 0]


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
    for probe in PROBES:
        stats = {}
        with seed_block(block):
            plan = array_merge(clusters, owners, probe=probe, stats=stats)
        assert plan.groups == [list(range(m))]
        assert (gid_map(plan), plan.claims, plan.num_edges) == (
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
    for probe in PROBES:
        stats = {}
        with seed_block(block):
            plan = array_merge(clusters, owners, probe=probe, stats=stats)
        assert plan.num_edges == loop_merge(clusters, owners)[2] == 100
        assert plan.num_merges == 1
        assert stats["live_pairs"] == (2 if block >= 100 else 1)


def test_a_seed_outside_the_points_is_refused():
    """A seed must name a point: with the point count (owner codes) in
    ``[0, n)``, without it (the sorted table) at least non-negative — a
    code array would read a wrong point on a negative id."""
    for seed in (-1, 10, 12, 2**62):
        partials = [
            PartialCluster(0, 0, 0, 5, members=[0, 1, 2], seeds=[seed]),
            PartialCluster(1, 0, 5, 10, members=[9])]
        with pytest.raises(ValueError,
                           match=rf"^id {seed} is no point in \[0, 10\)$"):
            merge_partials(partials, 10)
        if seed < 0:
            with pytest.raises(ValueError, match=f"^id {seed} is no point$"):
                union_find_merge(as_table(partials))
        else:
            assert union_find_merge(as_table(partials)).claims == {seed: 0}


def test_the_first_of_two_owner_rows_wins():
    """Point 5 has two owner rows: a border row in one cluster and a
    core row in another.  Whichever row comes first decides the probe,
    as `searchsorted`'s leftmost did: a border row links nothing, a
    core row links the cluster seeding 5 to its owner."""
    def partials(border_first):
        rows = [PartialCluster(0, 0, 0, 10, members=[0, 5], borders={5}),
                PartialCluster(1, 0, 10, 20, members=[10, 5])]
        return rows[::1 if border_first else -1] + [
            PartialCluster(2, 0, 20, 30, members=[20], seeds=[5])]
    for border_first, groups in ((True, [[0], [1], [2]]),
                                 (False, [[0, 2], [1]])):
        got = [merge_partials(partials(border_first), 30).groups,
               union_find_merge(as_table(partials(border_first))).groups]
        assert got == [groups, groups]


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_seed_sequences_of_any_int_type_give_the_same_plan(case):
    """Hand-built partials may hold seeds as any int sequence: the one
    coercion to a record (`ClusterTable.from_partials`) makes them int64."""
    clusters, owners, size = BLOCK_CASES[case]
    plans = [
        plan_view(union_find_merge(ClusterTable.from_partials(
            PartialCluster(
                cid[0], cid[1], 0, 0,
                members=[p for p, ci, _ in owners if ci == k],
                seeds=as_seeds(seeds),
                borders={p for p, ci, core in owners if ci == k and not core})
            for k, (cid, _, _, seeds) in enumerate(clusters)), size))
        for as_seeds in (list, lambda s: np.array(s, np.int64),
                         lambda s: np.array(s, np.int32))
    ]
    plans += [plan_view(probe_merge(ClusterTable.from_partials(
        PartialCluster(cid[0], cid[1], 0, 0,
                       members=[p for p, ci, _ in owners if ci == k],
                       seeds=seeds,
                       borders={p for p, ci, core in owners
                                if ci == k and not core})
        for k, (cid, _, _, seeds) in enumerate(clusters)), "codes", size))]
    assert plans[0] == plans[1] == plans[2] == plans[3]


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
    """The join runs in `SEED_BLOCK_ROWS` blocks, gathered a block at a
    time from the seed columns in place, so what the merge allocates is
    O(owner table + partials), not O(seeds).  Both merges get what the
    run path hands them — the collected record, and one projection per
    task (32 here, founders interleaved across them) — and peak at 1.2
    (owner codes) and 1.6 MiB (the sorted table) at either size; joined
    in one piece (the block constant patched to 10**9) they peak at 22
    and 30 MiB with 160 seeds per cluster and 41 and 57 MiB with 320."""
    n, partials = _paper_shaped_partials(seeds_per_cluster)
    assert len(partials) >= 2000
    assert sum(len(c.seeds) for c in partials) >= 300_000 * seeds_per_cluster // 160
    table = ClusterTable.from_partials(partials)
    digest = digest_from_partials(table)
    digests = [digest.take(np.flatnonzero(digest.partition == p))
               for p in range(32)]
    for merge in (lambda: merge_partials(table, n),
                  lambda: merge_edges(digests)):
        peak = traced_peak(merge)
        assert peak <= 3 * 2**20, f"{peak / 2**20:.1f} MiB"


def traced_peak(call):
    """Peak bytes ``call`` allocates, as `tracemalloc` sees them."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_the_edges_merge_allocates_nothing_sized_by_the_id_range():
    """`merge_edges` probes the point-sorted owner table, never a
    per-point code array: on the paper-shaped input with every point id
    spread x1000 (12.3 M ids, a 94 MiB code array) it stays under the
    same 3 MiB as at the dense ids."""
    _, partials = _paper_shaped_partials(160)
    for c in partials:
        c.members = [1000 * p for p in c.members]
        c.seeds = 1000 * np.asarray(c.seeds)
    digest = digest_from_partials(ClusterTable.from_partials(partials))
    digests = [digest.take(np.flatnonzero(digest.partition == p))
               for p in range(32)]
    peak = traced_peak(lambda: merge_edges(digests))
    assert peak <= 3 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("merge_mode", MERGE_MODES)
def test_no_run_path_merge_calls_union_find(merge_mode, monkeypatch):
    """The merge hooks component arrays (`merge._hook`); `UnionFind` is
    only the tests' reference.  Fits in either merge mode and the
    MapReduce reducer run with it patched to raise."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a run-path merge built a UnionFind")

    monkeypatch.setattr(UnionFind, "__init__", refuse)
    assert not hasattr(merge_module, "UnionFind")
    pts = np.random.default_rng(3).normal(size=(300, 2))
    SpatialSparkDBSCAN(0.3, 4, num_partitions=4, merge_mode=merge_mode).fit(pts)
    MapReduceDBSCAN(0.3, 4, num_maps=4).fit(pts)


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
