"""The expansion kernel against the paper's BFS, kept here as its oracle.

`expand_frame` computes clusters by label propagation over the CSR of
one batched query (DESIGN.md §6, "The loop").  `bfs_expand` is the
per-point BFS it replaced — Algorithm 2 with Algorithm 3's SEED rule,
a queue of neighbour rows and a visited/assigned state per id — moved
here unchanged but for the `OpCounters` it always counts.  The two must
agree at set level on every frame: per partial the founder, the member
set, the borders and the seed set (under ``"one_per_partition"`` the
homes seeded, since the BFS keeps the first-met id of a home and the
kernel the lowest), and all seven counters but the capped policy's
``seeds_skipped``, which the kernel counts as distinct dropped pairs.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_clustered, generate_scattered
from repro.dbscan import PartialCluster, SparkDBSCAN
from repro.dbscan.cells import build_cell_assignment, cell_frame
from repro.dbscan.partial import OpCounters, expand_frame, range_frame
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from repro.kdtree import kdtree as kdtree_module
from repro.obs import Tracer
from tests.dbscan.test_partial import _line_points
from tests.dbscan.test_properties import UnionFind
from tests.dbscan.test_properties import plain, point_clouds

POLICIES = ("all", "one_per_partition")
KINDS = ("range", "cell")


def bfs_expand(frame, eps, minpts, seed_policy="all"):
    """The paper's BFS over one frame, and its per-operation counts."""
    c = OpCounters()
    n_own = len(frame.own_points)
    if n_own == 0:
        return [], c
    indptr, indices = frame.tree.query_radius_batch(
        frame.own_points, eps, ids=frame.to_local)
    core = np.diff(indptr) >= minpts
    c.range_queries += n_own
    UNSEEN, VISITED, ASSIGNED = 0, 1, 2
    state = np.zeros(len(frame.tree.points), dtype=np.uint8)
    home_of = frame.home_of(np.arange(n_own, len(state))).tolist()
    partials = []
    for k in range(n_own):
        c.hashtable_lookups += 1
        if state[k]:  # Algorithm 2 line 5: already in hashtable
            continue
        state[k] = VISITED
        c.hashtable_puts += 1
        if not core[k]:
            continue
        state[k] = ASSIGNED
        members, seeds, homes = [k], [], set()
        queue = deque([indices[indptr[k]:indptr[k + 1]]])
        c.queue_adds += len(queue[0])
        while queue:
            row = queue.popleft()
            c.queue_removes += len(row)
            c.hashtable_lookups += 2 * int(np.count_nonzero(row < n_own))
            for p in row[state[row] < ASSIGNED].tolist():
                if p < n_own:
                    if state[p] == UNSEEN:
                        c.hashtable_puts += 1
                        if core[p]:
                            queue.append(indices[indptr[p]:indptr[p + 1]])
                            c.queue_adds += len(queue[-1])
                    members.append(p)
                else:
                    if seed_policy == "one_per_partition":
                        home = home_of[p - n_own]
                        if home in homes:
                            c.seeds_skipped += 1
                            continue
                        homes.add(home)
                    seeds.append(p)
                state[p] = ASSIGNED
        c.hashtable_puts += len(members)
        c.seeds_placed += len(seeds)
        state[seeds] = UNSEEN  # foreign marks last for one cluster
        joined = np.array(members)
        partials.append(PartialCluster(
            frame.partition, len(partials), frame.lo, frame.hi,
            members=frame.to_global(joined).tolist(),
            seeds=frame.to_global(np.array(seeds, dtype=np.int64)),
            borders=set(frame.to_global(joined[~core[joined]]).tolist()),
        ))
    return partials, c


def frames_of(kind, pts, p, eps):
    """Every partition's frame under one plan, and each point's owner."""
    if kind == "range":
        tree = KDTree(pts, leaf_size=8)
        part = IndexRangePartitioner(len(pts), p)
        ends = [part.range_of(q)[1] for q in range(p)]
        home = np.searchsorted(ends, np.arange(len(pts)), side="right")
        return [range_frame(q, pts, tree, part) for q in range(p)], home
    assignment = build_cell_assignment(pts, eps, p)
    home = np.empty(len(pts), dtype=np.int64)
    for q, owned in enumerate(assignment.owned):
        home[owned] = q
    frames = [cell_frame(payload, leaf_size=8)
              for payload in assignment.payloads(pts)]
    return frames, home


def set_view(partials, home=None):
    """Founder, member set, borders and seed set (or seeded homes)."""
    return [
        (c.members[0], sorted(c.members), sorted(c.borders),
         sorted((c.seeds if home is None else home[c.seeds]).tolist()))
        for c in partials
    ]


def kernel(frame, eps, minpts, policy, stats=None):
    return expand_frame(
        frame, eps, minpts, seed_policy=policy, max_neighbors=None,
        neighbor_mode="batched", boundary_out=None, stats=stats,
    )


def assert_kernel_is_the_bfs(kind, pts, p, eps, minpts, policy):
    frames, home = frames_of(kind, pts, p, eps)
    capped = policy == "one_per_partition"
    for frame in frames:
        want, counted = bfs_expand(frame, eps, minpts, policy)
        got = kernel(frame, eps, minpts, policy)
        ((task, got_counters),) = got.op_counters()
        assert task == frame.partition
        assert set_view(got, home if capped else None) == set_view(
            want, home if capped else None), frame.partition
        if capped:
            counted.seeds_skipped = got_counters.seeds_skipped
        assert got_counters == counted, frame.partition
        for c in got:
            assert c.members[1:] == sorted(c.members[1:]) or kind == "cell"
            assert len(set(c.seeds.tolist())) == len(c.seeds)


@settings(max_examples=40, deadline=None)
@given(pts=point_clouds(), p=st.integers(1, 6), eps=st.floats(0.5, 8.0),
       minpts=st.integers(2, 6), policy=st.sampled_from(POLICIES),
       kind=st.sampled_from(KINDS))
def test_kernel_is_the_bfs_on_clumped_clouds(pts, p, eps, minpts, policy, kind):
    assert_kernel_is_the_bfs(kind, pts, p, eps, minpts, policy)


@st.composite
def lattices(draw):
    """Integer points in d = 1 or 2: duplicates, and pairs at exactly eps."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    return rng.integers(0, 9, (n, d)).astype(np.float64)


@settings(max_examples=40, deadline=None)
@given(pts=lattices(), p=st.integers(1, 7),
       eps=st.sampled_from((1.0, 1.5, 2.0)), minpts=st.integers(1, 6),
       policy=st.sampled_from(POLICIES), kind=st.sampled_from(KINDS))
def test_kernel_is_the_bfs_on_duplicates_and_ties(pts, p, eps, minpts, policy,
                                                   kind):
    assert_kernel_is_the_bfs(kind, pts, p, eps, minpts, policy)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_empty_and_single_point_partitions(kind, policy):
    pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    frames, _ = frames_of(kind, pts, 5, 0.6)
    assert sorted(len(f.own_points) for f in frames)[:3] == (
        [0, 0, 1] if kind == "range" else [0, 0, 0])
    assert_kernel_is_the_bfs(kind, pts, 5, 0.6, 1, policy)
    assert_kernel_is_the_bfs(kind, pts, 5, 0.6, 2, policy)


def shuffled_chain(n=2000):
    """A `_line_points` chain whose ids are shuffled along the line, so
    the smallest id travels far: the propagation's worst shape here."""
    pts = _line_points(n)
    return pts[np.random.default_rng(0).permutation(n)]


@pytest.mark.parametrize("policy", POLICIES)
def test_a_2000_point_chain_in_one_partition(policy):
    pts = shuffled_chain()
    for kind, p in (("range", 1), ("range", 3), ("cell", 2)):
        assert_kernel_is_the_bfs(kind, pts, p, 1.5, 2, policy)
    stats = {}
    (frame,), _ = frames_of("range", pts, 1, 1.5)
    (chain,) = kernel(frame, 1.5, 2, policy, stats=stats)
    assert len(chain.members) == 2000 and stats["rounds"] >= 5


@pytest.mark.parametrize("seed", [1, 2])
def test_paper_benchmark_shape(seed):
    """paper_r100k_p32's input and partitioning at the benchmark scale."""
    pts = generate_scattered(n=12800, seed=seed, d=10, points_per_cluster=200,
                             cluster_std=5.0, noise_fraction=0.10).points
    for policy in POLICIES:
        assert_kernel_is_the_bfs("range", pts, 32, 25.0, 5, policy)


def test_capped_policy_keeps_the_lowest_frame_id_per_home():
    pts = generate_clustered(n=600, num_clusters=3, cluster_std=8.0,
                             seed=3).points
    frames, home = frames_of("range", pts, 4, 25.0)
    for frame in frames:
        every = kernel(frame, 25.0, 5, "all")
        capped = kernel(frame, 25.0, 5, "one_per_partition")
        assert len(every) == len(capped)
        for a, b in zip(every, capped):
            lowest = {}
            for s in sorted(a.seeds.tolist(), key=lambda g: frame.to_local[g]):
                lowest.setdefault(int(home[s]), s)
            assert sorted(b.seeds.tolist()) == sorted(lowest.values())


@pytest.mark.parametrize("max_neighbors", [1, 3, 6])
def test_truncated_rows_give_undirected_components(max_neighbors):
    """Under ``max_neighbors`` a row may list a core that does not list
    it back: clusters are the undirected components of the truncated core
    graph, and a non-core point joins the lowest founder in its own row."""
    pts = generate_clustered(n=300, num_clusters=3, cluster_std=8.0,
                             seed=7).points
    eps, minpts = 25.0, 3
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), 2)
    frame = range_frame(0, pts, tree, part)
    n_own = len(frame.own_points)
    indptr, indices = tree.query_radius_batch(
        frame.own_points, eps, max_neighbors, ids=frame.to_local)
    core = np.diff(indptr) >= minpts
    uf = UnionFind(n_own)
    for r in np.flatnonzero(core):
        for q in indices[indptr[r]:indptr[r + 1]]:
            if q < n_own and core[q]:
                uf.union(int(r), int(q))
    founder, want = {}, {}
    for k in np.flatnonzero(core).tolist():
        f = founder.setdefault(uf.find(k), k)
        want.setdefault(f, set()).add(k)
    for k in np.flatnonzero(~core).tolist():
        claims = [founder[uf.find(int(q))]
                  for q in indices[indptr[k]:indptr[k + 1]]
                  if q < n_own and core[q]]
        if claims:
            want[min(claims)].add(k)
    got = expand_frame(frame, eps, minpts, seed_policy="all",
                       max_neighbors=max_neighbors, neighbor_mode="batched",
                       boundary_out=None)
    assert {c.members[0]: set(c.members) for c in got} == want


@pytest.mark.parametrize("max_neighbors", [None, 0, 1, 3])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", KINDS)
def test_expansion_ignores_how_rows_are_cut_into_segments(
        kind, policy, max_neighbors, monkeypatch):
    """The kernel hands the expansion its hits in tile order, one segment
    per (tile, row).  From one tile per leaf to one tile over the whole
    tree the segments differ; the partials, the counters, the boundary
    set and the propagation rounds must not."""
    pts = generate_clustered(n=500, num_clusters=3, cluster_std=8.0,
                             seed=11).points
    frames, _ = frames_of(kind, pts, 3, 25.0)
    runs, segments = [], []
    for tile_cells in (1, kdtree_module.TILE_CELLS, 1 << 62):
        monkeypatch.setattr(kdtree_module, "TILE_CELLS", tile_cells)
        segments.append(len(frames[0].tree.query_radius_segments(
            frames[0].own_points, 25.0, ids=frames[0].to_local)[1]))
        run = []
        for frame in frames:
            stats = {}
            boundary = set() if max_neighbors is None else None
            got = expand_frame(
                frame, 25.0, 5, seed_policy=policy,
                max_neighbors=max_neighbors, neighbor_mode="batched",
                boundary_out=boundary, stats=stats,
            )
            run.append((plain(got), got.op_counters(), boundary,
                        stats["rounds"]))
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]
    # ... though the rows really were cut differently.
    assert segments[0] >= segments[1] >= segments[2]
    assert segments[0] > segments[2]


def _expand_rounds(pts, eps, p=1):
    tracer = Tracer()
    SparkDBSCAN(eps, 2, num_partitions=p, tracer=tracer).fit(pts)
    return [s.labels["rounds"] for s in tracer.spans if s.name == "task.expand"]


def test_task_expand_span_counts_the_rounds():
    blob = _expand_rounds(generate_clustered(
        n=400, num_clusters=2, cluster_std=8.0, seed=5).points, 25.0, p=3)
    assert len(blob) == 3 and min(blob) >= 1
    (chain,) = _expand_rounds(shuffled_chain(), 1.5)
    assert chain > max(blob)
