"""PipelineRunner: stage wiring, crash injection, checkpoint/resume.

The acceptance property for the whole refactor: a crashed run resumed
from its checkpoints produces labels byte-identical to an uninterrupted
run, without re-executing (or even starting the engine for) the stages
upstream of the restored one.
"""

import numpy as np
import pytest

from repro.data import generate_clustered
from repro.obs import MetricsRegistry
from repro.pipeline import (
    LoadPoints,
    MergePartials,
    PipelineCrash,
    PipelineError,
    PipelineRunner,
    Plan,
    RunConfig,
    build_plan,
)
from repro.pipeline.plans import STAGE_MANIFEST
from tests.oracle import dbscan_violation

EPS, MINPTS = 25.0, 5


@pytest.fixture(scope="module")
def data():
    return generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=3).points


@pytest.fixture(scope="module")
def tied():
    """Half of a lattice of step eps, every point twice (10 clusters and
    noise): pairs at exactly eps, zero distances, and leaf splits through
    ties — where a tree rebuilt over reordered points is *not* the
    re-based tree."""
    rng = np.random.default_rng(11)
    axes = np.meshgrid(*[np.arange(16) * EPS] * 2)
    grid = np.stack([a.ravel() for a in axes], axis=1)
    kept = np.repeat(grid[rng.random(len(grid)) < 0.5], 2, axis=0)
    return kept[rng.permutation(len(kept))]


def make_config(plan, **kw):
    algorithm, edges, _ = plan.partition("_edges")
    if edges:
        kw["merge_mode"] = "edges"
    kw.setdefault("num_partitions", 3)
    if algorithm == "mapreduce":
        kw.setdefault("startup_overhead", 0.0)
    return RunConfig(eps=EPS, minpts=MINPTS, algorithm=algorithm, **kw)


def run_plan(config, points, **runner_kw):
    runner = PipelineRunner(build_plan(config), config, **runner_kw)
    return runner.run(points)


class TestPlanValidation:
    def test_must_start_with_load_points(self):
        with pytest.raises(ValueError):
            Plan(name="bad", stages=(MergePartials(),))

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            Plan(name="bad", stages=(LoadPoints(), MergePartials(),
                                     MergePartials()))

    def test_unknown_fail_after_rejected(self, data):
        config = make_config("spark")
        with pytest.raises(ValueError):
            PipelineRunner(build_plan(config), config, fail_after="Teleport")

    def test_missing_requires_raises(self, data):
        # MergePartials without anything providing partials.
        plan = Plan(name="broken", stages=(LoadPoints(), MergePartials()),
                    outputs=("outcome",))
        config = make_config("spark")
        with pytest.raises(PipelineError):
            PipelineRunner(plan, config).run(data)


class TestNonFiniteInputRejected:
    """NaN/inf used to run to completion with numpy RuntimeWarnings (and
    land in garbage INT64_MIN grid cells on the cell plan); `LoadPoints`
    is the one home for the check, so every plan refuses up front."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kw", [
        dict(partitioning="range"),
        dict(partitioning="cells"),
        dict(partitioning="cells", merge_mode="edges"),
    ])
    def test_load_points_raises_before_any_stage(self, data, kw, bad):
        points = data.copy()
        points[17, 3] = bad
        config = make_config("spark", **kw)
        runner = PipelineRunner(build_plan(config), config)
        with np.errstate(all="raise"), \
                pytest.raises(ValueError, match="finite") as exc:
            runner.run(points)
        assert "\n" not in str(exc.value)

    def test_finite_input_still_runs(self, data):
        state = run_plan(make_config("spark", partitioning="cells"), data)
        assert state.labels.shape == (len(data),)


#: (plan, stage to crash after, stages that must be skipped on resume,
#: input fixture).  The spatial plans also crash after *every* stage on
#: tied input: their tree is never checkpointed, so a resumed run must
#: re-derive exactly the tree (and order) the cold run clustered under.
CRASH_MATRIX = [
    ("spark", "CollectPartials",
     {"BuildIndex", "PartitionPlan", "BroadcastModel", "LocalExpand"}, "data"),
    ("spatial", "CollectPartials",
     {"PartitionPlan", "BroadcastModel", "LocalExpand"}, "data"),
    ("naive", "ShuffleExpand", {"BuildIndex"}, "data"),
    ("mapreduce", "LocalExpand", {"BuildIndex", "PartitionPlan"}, "data"),
    ("sequential", "SequentialExpand", {"BuildIndex"}, "data"),
] + [
    (plan, stage, set(), "tied")
    for plan in ("spatial", "spatial_edges") for stage in STAGE_MANIFEST[plan]
]
CRASH_IDS = [
    f"{plan}-{stage}-" + (f"skipped{i}" if points == "data" else points)
    for i, (plan, stage, _, points) in enumerate(CRASH_MATRIX)
]


class TestCrashResume:
    @pytest.mark.parametrize(
        "plan,kill_after,skipped,points", CRASH_MATRIX, ids=CRASH_IDS
    )
    def test_resume_matches_uninterrupted(
        self, plan, kill_after, skipped, points, request, tmp_path
    ):
        points = request.getfixturevalue(points)
        config = make_config(plan)
        reference = run_plan(config, points)
        assert dbscan_violation(points, reference.labels, EPS, MINPTS) is None

        with pytest.raises(PipelineCrash):
            run_plan(config, points, checkpoint_dir=str(tmp_path),
                     fail_after=kill_after)

        resumed = run_plan(config, points, checkpoint_dir=str(tmp_path),
                           resume=True)
        killed = next(
            s for s in build_plan(config).stages if s.name == kill_after
        )
        assert resumed.stage_status[kill_after] == (
            "restored" if killed.checkpointable else "run"
        )
        for name in skipped:
            assert resumed.stage_status[name] == "skipped"
        assert np.array_equal(resumed.labels, reference.labels)

    def test_resume_never_starts_engine(self, data, tmp_path):
        config = make_config("spark")
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.sc is None          # merge ran purely from artifacts
        assert resumed.stage_status["MergePartials"] == "run"

    def test_changed_eps_invalidates_checkpoints(self, data, tmp_path):
        config = make_config("spark")
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")

        other = RunConfig(eps=EPS + 1.0, minpts=MINPTS, algorithm="spark",
                          num_partitions=3)
        cold = run_plan(other, data, checkpoint_dir=str(tmp_path), resume=True)
        # Nothing restored: the new eps keys a different run directory.
        assert all(s == "run" for s in cold.stage_status.values())

    def test_changed_data_invalidates_checkpoints(self, data, tmp_path):
        config = make_config("spark")
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")
        other = data.copy()
        other[0, 0] += 1.0
        cold = run_plan(config, other, checkpoint_dir=str(tmp_path),
                        resume=True)
        assert all(s == "run" for s in cold.stage_status.values())

    def test_resume_without_checkpoints_runs_everything(self, data, tmp_path):
        config = make_config("spark")
        state = run_plan(config, data, checkpoint_dir=str(tmp_path),
                         resume=True)
        assert all(s == "run" for s in state.stage_status.values())

    def test_spatial_resume_restores_partials_in_caller_order(
        self, data, tmp_path
    ):
        config = make_config("spatial", keep_partials=True)
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert np.array_equal(resumed.perm, reference.perm)
        ref = {(c.partition, c.local_id):
               (sorted(c.members), sorted(c.seeds), sorted(c.borders))
               for c in reference.partials}
        res = {(c.partition, c.local_id):
               (sorted(c.members), sorted(c.seeds), sorted(c.borders))
               for c in resumed.partials}
        assert ref == res


#: (kill_after, stages that must be skipped on resume) for the edge-merge
#: tail.  Killing after ApplyGidMap leaves only RelabelFilter, a pure
#: driver transform — MergeEdges is restored too, not skipped: the
#: frontend reads its partial/seed counts off the plan (an edges plan
#: output); killing after MergeEdges must re-run the expansion
#: (ApplyGidMap needs the executor-resident member lists) but restores
#: the merge plan; killing after CollectEdges restores the digest.
EDGE_CRASH_MATRIX = [
    ("CollectEdges", set()),
    ("MergeEdges", {"CollectEdges"}),
    ("ApplyGidMap", {"BuildIndex", "PartitionPlan", "BroadcastModel",
                     "LocalExpand", "CollectEdges"}),
]


class TestEdgeMergeCrashResume:
    @pytest.mark.parametrize("kill_after,skipped", EDGE_CRASH_MATRIX)
    def test_resume_matches_uninterrupted(self, kill_after, skipped, data,
                                          tmp_path):
        config = make_config("spark", merge_mode="edges")
        reference = run_plan(config, data)
        partials_ref = run_plan(make_config("spark"), data)
        np.testing.assert_array_equal(reference.labels, partials_ref.labels)

        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after=kill_after)
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status[kill_after] == "restored"
        for name in skipped:
            assert resumed.stage_status[name] == "skipped"
        np.testing.assert_array_equal(resumed.labels, reference.labels)

    def test_spatial_edges_resume(self, data, tmp_path):
        config = make_config("spatial", merge_mode="edges")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="ApplyGidMap")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["ApplyGidMap"] == "restored"
        assert resumed.stage_status["MergeEdges"] == "restored"
        np.testing.assert_array_equal(resumed.labels, reference.labels)
        np.testing.assert_array_equal(resumed.perm, reference.perm)

    def test_cell_edges_resume(self, data, tmp_path):
        config = make_config("spark", partitioning="cells",
                             merge_mode="edges")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="ApplyGidMap")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["ApplyGidMap"] == "restored"
        np.testing.assert_array_equal(resumed.labels, reference.labels)

    def test_full_restore_never_starts_engine(self, data, tmp_path):
        config = make_config("spark", merge_mode="edges")
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="ApplyGidMap")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.sc is None          # relabel ran purely from artifacts
        assert resumed.stage_status["RelabelFilter"] == "run"


class TestCheckpointMetrics:
    def test_miss_then_hit_counters(self, data, tmp_path):
        config = make_config("spark")
        reg = MetricsRegistry()
        run_plan(config, data, checkpoint_dir=str(tmp_path),
                 metrics_registry=reg)
        misses = reg.get("repro_checkpoint_misses_total")
        assert misses.value(stage="CollectPartials") == 1
        assert reg.get("repro_checkpoint_hits_total") is None

        reg2 = MetricsRegistry()
        run_plan(config, data, checkpoint_dir=str(tmp_path), resume=True,
                 metrics_registry=reg2)
        hits = reg2.get("repro_checkpoint_hits_total")
        assert hits.value(stage="MergePartials") == 1

    def test_no_store_no_counters(self, data):
        reg = MetricsRegistry()
        run_plan(make_config("spark"), data, metrics_registry=reg)
        assert reg.get("repro_checkpoint_misses_total") is None


class TestStageSpans:
    def test_pipeline_stage_spans_emitted(self, data):
        from repro.obs import Tracer

        tracer = Tracer()
        run_plan(make_config("spark"), data, tracer=tracer)
        stage_spans = [s for s in tracer.spans if s.name == "pipeline.stage"]
        ran = {s.labels["stage"] for s in stage_spans}
        assert {"LoadPoints", "BuildIndex", "LocalExpand", "MergePartials"} <= ran
        assert all(s.labels["status"] == "run" for s in stage_spans)
        # Legacy span vocabulary is still present alongside.
        names = {s.name for s in tracer.spans}
        assert {"dbscan.fit", "driver.kdtree_build", "driver.merge"} <= names
