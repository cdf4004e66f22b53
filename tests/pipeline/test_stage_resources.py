"""Stages must not leak engine resources past their own run.

Regression tests for the RES001 findings the flow-sensitive lint
self-scan surfaced in `pipeline/stages_naive.py` (PR 8): the naive
plan's ``ShuffleExpand`` cached two RDDs (the neighbourhood info pass
and the core-edge graph) and never unpersisted them, pinning their
partitions in the block manager for the remaining life of the context.
Both are asserted gone here with a *lent* context — the runner never
stops a lent context, so leaked cache entries would survive and fail
the count below (which they did before the fix).
"""

import os

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.engine import SparkContext
from repro.kdtree import KDTree
from repro.pipeline import PipelineRunner, RunConfig, build_plan


def test_naive_plan_releases_cached_rdds():
    points = generate_clustered(
        n=120, num_clusters=3, cluster_std=6.0, seed=7
    ).points
    config = RunConfig(eps=20.0, minpts=4, plan="naive", num_partitions=2)
    with SparkContext("simulated[2]") as sc:
        state = PipelineRunner(build_plan(config), config).run(points, sc=sc)
        assert state.labels is not None
        assert sc.block_manager.num_memory_blocks == 0


def test_naive_stage_releases_caches_even_when_a_round_fails():
    # The unpersist sits in ``finally`` blocks, so even a mid-stage
    # crash must leave the block manager clean.
    from repro.obs import Tracer
    from repro.pipeline.stages_naive import ShuffleExpand
    from repro.pipeline.state import PipelineState

    points = generate_clustered(
        n=60, num_clusters=2, cluster_std=5.0, seed=3
    ).points
    config = RunConfig(eps=20.0, minpts=4, plan="naive", num_partitions=2)
    with SparkContext("simulated[2]") as sc:
        state = PipelineState(config=config, tracer=Tracer())
        state.points = points
        state.sc = sc
        state.n = len(points)
        state.tree = KDTree(np.asarray(points))
        state.mark("tree", "n")

        # sabotage broadcast after the caches are built: the propagation
        # round raises, the finallys must still unpersist
        real_broadcast = sc.broadcast
        calls = {"n": 0}

        def failing_broadcast(value):
            calls["n"] += 1
            if calls["n"] >= 3:      # tree_b and core_b succeed, lab_b fails
                raise RuntimeError("injected broadcast failure")
            return real_broadcast(value)

        sc.broadcast = failing_broadcast
        try:
            try:
                ShuffleExpand().run(state)
            except RuntimeError:
                pass
            assert sc.block_manager.num_memory_blocks == 0
        finally:
            sc.broadcast = real_broadcast


def _live_broadcasts(sc):
    """Driver-cached broadcast values, handles the manager still tracks,
    and backing files on disk (``processes`` only)."""
    from repro.engine import broadcast

    files = [f for f in os.listdir(sc.spill_dir) if f.startswith("bcast-")]
    return (set(broadcast._local_cache), list(sc.broadcast_manager._issued),
            files)


@pytest.mark.parametrize("master", ["simulated[4]", "processes[2]"])
def test_fits_on_a_lent_context_release_their_broadcasts(master):
    # BroadcastModel's tree and ApplyGidMap's gid map used to stay
    # cached (and on disk under ``processes``) until sc.stop(): three
    # fits left {KDTree, KDTree, dict, KDTree, dict} behind.  Now the
    # only broadcast a fit leaves is the tree the context's memo keeps
    # for the next fit on these points, one and the same every time: the
    # spatial edges fits release their own tree and gid columns.
    # Labels must not change: under ``processes`` ApplyGidMap may
    # recompute the expansion through the lineage, which needs the tree
    # broadcast alive until the fit — not the stage — ends.
    from repro.engine import broadcast

    points = generate_clustered(
        n=400, num_clusters=4, cluster_std=8.0, seed=11
    ).points
    fits = [(SparkDBSCAN, "partials"), (SpatialSparkDBSCAN, "edges"),
            (SpatialSparkDBSCAN, "edges")]
    expected = {make: make(25.0, 5, num_partitions=4).fit(points).labels
                for make, _ in fits}
    kept = []
    with SparkContext(master) as sc:
        clean = _live_broadcasts(sc)
        assert clean[1:] == ([], [])
        for make, mode in fits:
            got = make(
                25.0, 5, num_partitions=4, merge_mode=mode
            ).fit(points, sc=sc)
            np.testing.assert_array_equal(got.labels, expected[make])
            cache, (tree_b,), files = _live_broadcasts(sc)
            assert isinstance(tree_b.value, KDTree)
            assert cache == clean[0] | {tree_b.key}
            assert len(files) == (master == "processes[2]")
            kept.append(tree_b)
    assert kept[1] is kept[0] and kept[2] is kept[0]
    assert set(broadcast._local_cache) == clean[0]


def test_naive_plan_releases_its_tree_broadcast():
    from repro.engine import broadcast

    points = generate_clustered(
        n=120, num_clusters=3, cluster_std=6.0, seed=7
    ).points
    config = RunConfig(eps=20.0, minpts=4, plan="naive", num_partitions=2)
    with SparkContext("simulated[2]") as sc:
        before = set(broadcast._local_cache)
        PipelineRunner(build_plan(config), config).run(points, sc=sc)
        leaked = set(broadcast._local_cache) - before
        assert not any(
            isinstance(broadcast._local_cache[bid], KDTree) for bid in leaked
        )


@pytest.mark.parametrize("fail_round", [False, True])
@pytest.mark.parametrize("master", ["simulated[4]", "processes[2]"])
def test_naive_fit_on_a_lent_context_releases_every_broadcast(master, fail_round):
    # ShuffleExpand used to leave ``core_b`` and one ``lab_b`` per round
    # (rounds + 2 handles, and as many spill files under ``processes``)
    # behind until sc.stop() — also when a propagation round raises.
    points = generate_clustered(
        n=120, num_clusters=3, cluster_std=6.0, seed=7
    ).points
    config = RunConfig(eps=20.0, minpts=4, plan="naive", num_partitions=2)
    with SparkContext(master) as sc:
        clean = _live_broadcasts(sc)
        assert clean[1:] == ([], [])
        runner = PipelineRunner(build_plan(config), config)
        if not fail_round:
            assert runner.run(points, sc=sc).extras["shuffle_rounds"] >= 2
        else:
            real_run_job = sc.run_job
            jobs = {"n": 0}

            def failing_run_job(*args, **kwargs):
                jobs["n"] += 1
                if jobs["n"] == 3:   # info pass, round 1, then round 2
                    raise RuntimeError("injected job failure")
                return real_run_job(*args, **kwargs)

            sc.run_job = failing_run_job
            try:
                with pytest.raises(RuntimeError, match="injected"):
                    runner.run(points, sc=sc)
            finally:
                sc.run_job = real_run_job
        assert _live_broadcasts(sc) == clean


def test_gid_map_broadcast_is_timed_inside_apply_labels():
    # ``timings.driver_merge`` (the harness's driver_s) and the
    # ``driver.apply_labels`` span cover the gid-map broadcast: its
    # pickle and spill under ``processes`` are merge cost.
    from repro.obs import Tracer

    points = generate_clustered(
        n=400, num_clusters=4, cluster_std=8.0, seed=11
    ).points
    tracer = Tracer()
    SpatialSparkDBSCAN(25.0, 5, num_partitions=4, merge_mode="edges",
                       tracer=tracer).fit(points)
    (apply,) = tracer.find("driver.apply_labels")
    tree_b, gid_b = tracer.find("driver.broadcast")
    assert tree_b.end <= apply.start
    assert apply.start <= gid_b.start and gid_b.end <= apply.end
