"""Up-pointing seeds plus orphan rows merge exactly like full seeds.

A cross-partition core pair sits on both cores' rows, so each task need
ship only the seeds whose home partition is above its own.  A border
point no partial owns (an *orphan*) would lose the claimants that reach
it from above; its own task ships its neighbours homed above instead,
and the driver finds the claimants among the owner table's core rows
(DESIGN.md §11, "Witness each pair once").  These tests hold the halved
input to the full one: the same `MergeOutcome` and `EdgeMergePlan`, on
inputs built to have orphans and contested borders, in the range and
the cell frame.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.dbscan import (
    NOISE,
    ClusterTable,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    apply_gid_map,
    build_cell_assignment,
    cell_local_dbscan,
    local_dbscan,
    merge_edges,
    merge_partials,
)
from repro.dbscan.partial import NO_ORPHANS
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from repro.obs import Tracer, TraceReport
from repro.pipeline import RunConfig

FRAMES = ("range", "cells")


def chained_points(seed: int, n_chains: int, length: int,
                   n_fringe: int) -> np.ndarray:
    """Parallel chains of points 0.9 apart, 3.8 apart from each other,
    shuffled, plus ``n_fringe`` points 1.9 off a chain point, between two
    chains or beside the outer ones.  At eps 2 and minpts 5 a chain's
    inner points are cores and chains never touch; a fringe point sees
    one point of each chain within eps and nothing else: a border no
    index range is likely to hold together with its cores (an orphan),
    contested by two clusters when between chains."""
    rng = np.random.default_rng(seed)
    chains = [np.c_[np.arange(length) * 0.9, np.full(length, 3.8 * k)]
              for k in range(n_chains)]
    slot = rng.choice(length // 3 * (n_chains + 1), n_fringe, replace=False)
    row, col = np.divmod(slot, length // 3)
    fringe = np.c_[col * 2.7, row * 3.8 - 1.9]  # 3 chain steps apart
    pts = np.vstack(chains + [fringe])
    return pts[rng.permutation(len(pts))]


#: An input with claimed and contested orphans, its eps, minpts and
#: partition count.
FIXED = chained_points(7, 3, 30, 24), 2.0, 5, 8


def expansions(frame, pts, eps, minpts, p, witness):
    """One `ClusterTable` per partition of the range or the cell frame,
    with its boundary flags and — when ``witness`` — orphan table."""
    if frame == "range":
        tree = KDTree(pts, leaf_size=8)
        part = IndexRangePartitioner(len(pts), p)
        calls = [partial(local_dbscan, pid, range(*part.range_of(pid)), pts,
                         tree, eps, minpts, part) for pid in range(p)]
    else:
        calls = [partial(cell_local_dbscan, payload, eps, minpts, leaf_size=8)
                 for payload in build_cell_assignment(pts, eps, p).payloads(pts)]
    return [call(boundary_out=set(), orphans_out=[] if witness else None)
            for call in calls]


def merged(tables, n):
    """Both merge paths over one run's tables, as the driver runs them:
    the founder-sorted record with every orphan row, and projections."""
    table = ClusterTable.concat(tables)
    outcome = merge_partials(table, n)
    plan = merge_edges([t.project() for t in tables])
    np.testing.assert_array_equal(apply_gid_map(table, plan, n),
                                  outcome.labels)
    return list(table), table.orphans, outcome, plan


def assert_same_merge(pts, frame, eps, minpts, p):
    n = len(pts)
    full = merged(expansions(frame, pts, eps, minpts, p, False), n)
    half = merged(expansions(frame, pts, eps, minpts, p, True), n)
    (full_partials, _, ref, ref_plan), (partials, orphans, got, plan) = full, half
    np.testing.assert_array_equal(got.labels, ref.labels)
    assert (got.num_merges, got.num_global_clusters, got.groups) == (
        ref.num_merges, ref.num_global_clusters, ref.groups)
    for f in ("partition", "local_id", "gid"):
        np.testing.assert_array_equal(getattr(plan, f), getattr(ref_plan, f))
    assert (plan.claims, plan.groups, plan.num_merges) == (
        ref_plan.claims, ref_plan.groups, ref_plan.num_merges)
    assert [c.size for c in partials] == [c.size for c in full_partials]
    assert sum(len(c.seeds) + c.down_seeds for c in partials) == sum(
        len(c.seeds) for c in full_partials)
    return full_partials, orphans, ref


@st.composite
def chained_inputs(draw):
    length = draw(st.integers(3, 30))
    n_chains = draw(st.integers(1, 4))
    slots = length // 3 * (n_chains + 1)
    return chained_points(draw(st.integers(0, 10_000)), n_chains, length,
                          draw(st.integers(0, slots)))


@settings(max_examples=40, deadline=None)
@given(pts=chained_inputs(), p=st.integers(2, 8), eps=st.floats(1.5, 2.5),
       minpts=st.integers(3, 6), frame=st.sampled_from(FRAMES))
def test_up_seeds_and_orphan_rows_merge_like_all_seeds(pts, p, eps, minpts,
                                                       frame):
    assert_same_merge(pts, frame, eps, minpts, p)


def orphan_claimants(pts, eps, partials, labels):
    """Brute force: each point no partial holds, mapped to the set of
    global clusters with a core within eps of it."""
    cores = {m: labels[m] for c in partials for m in c.members
             if m not in c.borders}
    held = {m for c in partials for m in c.members}
    near = cKDTree(pts).query_ball_point(pts, eps)
    return {o: {cores[j] for j in near[o] if j in cores}
            for o in range(len(pts)) if o not in held}


@pytest.mark.parametrize("frame", FRAMES)
def test_the_fixed_input_has_claimed_and_contested_orphans(frame):
    """What the property is worth: on this input the orphan rows, not
    the seeds, decide some claims — without them the halved merge loses
    labels — and some orphans have cores of two clusters within eps."""
    pts, eps, minpts, p = FIXED
    partials, orphans, ref = assert_same_merge(pts, frame, eps, minpts, p)
    claimants = orphan_claimants(pts, eps, partials, ref.labels)
    assert sum(len(c) >= 1 for c in claimants.values()) >= 5
    assert any(len(c) >= 2 for c in claimants.values())
    assert {int(o) for o in orphans[:, 0]} <= set(claimants)
    halved = ClusterTable.concat(expansions(frame, pts, eps, minpts, p, True))
    blind = merge_partials(replace(halved, orphans=NO_ORPHANS), len(pts)).labels
    assert (blind != NOISE).sum() < (ref.labels != NOISE).sum()


def test_orphan_rows_are_the_upper_neighbours_of_points_no_partial_holds():
    pts, eps, minpts, p = FIXED
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), p)
    near = cKDTree(pts).query_ball_point(pts, eps)
    for pid in range(p):
        lo, hi = part.range_of(pid)
        full = local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts, part)
        rows = []
        half = local_dbscan(pid, range(lo, hi), pts, tree, eps, minpts, part,
                            orphans_out=rows)
        held = {m for c in full for m in c.members}
        expect = sorted([o, j] for o in range(lo, hi) if o not in held
                        for j in near[o] if j >= hi)
        assert half.orphans.tolist() == rows[0].tolist() == expect
        for a, b in zip(full, half):
            assert (a.members, a.borders) == (b.members, b.borders)
            up = [s for s in a.seeds.tolist() if s >= hi]
            assert b.seeds.tolist() == up
            assert b.down_seeds == len(a.seeds) - len(up)


@pytest.mark.parametrize("kw", [dict(seed_policy="one_per_partition"),
                                dict(max_neighbors=8)])
def test_orphan_rows_need_every_pair_on_both_rows(kw):
    pts = chained_points(7, 3, 20, 12)
    part = IndexRangePartitioner(len(pts), 3)
    with pytest.raises(ValueError, match="orphans_out"):
        local_dbscan(0, range(*part.range_of(0)), pts, KDTree(pts), 2.0, 4,
                     part, orphans_out=[], **kw)


def test_the_paper_strategy_refuses_orphan_rows():
    with pytest.raises(ValueError, match="paper"):
        merge_partials(replace(ClusterTable.from_partials([]),
                               orphans=np.array([[0, 1]], dtype=np.int64)),
                       0, strategy="paper")


@pytest.mark.parametrize("kw,halved", [
    ({}, True),
    (dict(plan="spatial_edges"), True),
    (dict(plan="cell"), True),
    (dict(seed_policy="one_per_partition"), False),
    (dict(max_neighbors=8), False),
    (dict(min_cluster_size=1), False),
    (dict(merge_strategy="paper"), False),
])
def test_which_configs_witness_once(kw, halved):
    assert RunConfig(eps=1.0, minpts=4, **kw).witness_once is halved


@pytest.mark.parametrize("master", [None, "threads[2]", "processes[2]"])
@pytest.mark.parametrize("make,kw", [
    (SparkDBSCAN, {}),
    (SparkDBSCAN, dict(partitioning="cells", merge_mode="edges")),
    (SparkDBSCAN, dict(partitioning="cells")),
    (SpatialSparkDBSCAN, {}),
    (SpatialSparkDBSCAN, dict(merge_mode="edges")),
])
def test_pipeline_labels_match_a_full_seed_run(make, kw, master):
    """``min_cluster_size=1`` filters nothing (every partial has a
    member) but ships full seeds, so it is the full-seed twin of the
    default run: same labels, about twice the seeds."""
    pts = chained_points(11, 4, 30, 25)
    half = make(2.0, 4, num_partitions=5, master=master, **kw).fit(pts)
    full = make(2.0, 4, num_partitions=5, master=master, min_cluster_size=1,
                **kw).fit(pts)
    np.testing.assert_array_equal(half.labels, full.labels)
    assert 0 < half.num_seeds < full.num_seeds


@pytest.mark.parametrize("merge_mode", ["partials", "edges"])
def test_the_merge_span_reports_the_rows_it_joined(merge_mode):
    """Partials mode on range partitions, edges mode on cells."""
    pts, eps, minpts, p = FIXED
    frame = "cells" if merge_mode == "edges" else "range"
    tracer = Tracer()
    SparkDBSCAN(eps, minpts, num_partitions=p, merge_mode=merge_mode,
                partitioning=frame, tracer=tracer).fit(pts)
    expect = sum(len(e.orphans)
                 for e in expansions(frame, pts, eps, minpts, p, True))
    stats = TraceReport.from_tracer(tracer).merge_stats
    assert stats["orphan_rows"] == expect > 0
