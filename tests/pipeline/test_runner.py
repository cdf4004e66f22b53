"""PipelineRunner: stage wiring, crash injection, checkpoint/resume.

The acceptance property for the whole refactor: a crashed run resumed
from its checkpoints produces labels byte-identical to an uninterrupted
run, without re-executing (or even starting the engine for) the stages
upstream of the restored one.
"""

import json
import tempfile

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
    kw.setdefault("num_partitions", 3)
    if plan == "mapreduce":
        kw.setdefault("startup_overhead", 0.0)
    return RunConfig(eps=EPS, minpts=MINPTS, plan=plan, **kw)


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
        dict(plan="spark"),
        dict(plan="cell"),
        dict(plan="cell_edges"),
    ])
    def test_load_points_raises_before_any_stage(self, data, kw, bad):
        points = data.copy()
        points[17, 3] = bad
        config = make_config(**kw)
        runner = PipelineRunner(build_plan(config), config)
        with np.errstate(all="raise"), \
                pytest.raises(ValueError, match="finite") as exc:
            runner.run(points)
        assert "\n" not in str(exc.value)

    def test_finite_input_still_runs(self, data):
        state = run_plan(make_config("cell"), data)
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

    def test_a_collect_document_of_another_format_runs_cold(self, data,
                                                            tmp_path):
        """A checkpoint whose manifest records no format — here the
        `CollectPartials` JSON document written before ``down_seeds``
        and orphan rows existed — is never loaded: the stage runs cold
        and the labels are the uninterrupted run's."""
        config = make_config("spark")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")
        (run_dir,) = tmp_path.iterdir()
        for artifact in run_dir.glob("CollectPartials.*"):
            artifact.unlink()
        (run_dir / "CollectPartials.json").write_text(json.dumps({
            "n": len(data),
            "partials": [
                {"partition": c.partition, "local_id": c.local_id,
                 "lo": c.lo, "hi": c.hi, "members": c.members,
                 "seeds": c.seeds.tolist(), "borders": sorted(c.borders),
                 "status": c.status}
                for c in reference.partials
            ],
            "counters": None,
        }))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest.pop("format", None)
        manifest["stages"]["CollectPartials"] = {
            "files": ["CollectPartials.json"]}
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["CollectPartials"] == "run"
        assert np.array_equal(resumed.labels, reference.labels)

    def test_a_cell_plan_document_of_another_format_runs_cold(self, data,
                                                              tmp_path):
        """The same for the cell plan: a `CellPartition` document written
        before super-cell packing (no ``super_side`` / ``num_super_cells``)
        under a manifest that records no format is never loaded, so
        `CellPartition.load` can read both keys unconditionally."""
        config = make_config("cell")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CellPartition")
        (run_dir,) = tmp_path.iterdir()
        artifact = run_dir / "CellPartition.json"
        doc = json.loads(artifact.read_text())
        del doc["super_side"], doc["num_super_cells"]
        artifact.write_text(json.dumps(doc))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "CellPartition" in manifest["stages"]
        manifest.pop("format", None)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["CellPartition"] == "run"
        assert np.array_equal(resumed.labels, reference.labels)

    def test_a_format_1_collect_checkpoint_runs_cold(self, data, tmp_path):
        """Checkpoint format 1 kept the op counters in a JSON header next
        to npz columns without them; under format 2 such a directory is
        never loaded, and the run's labels are the uninterrupted run's."""
        config = make_config("spark")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="CollectPartials")
        (run_dir,) = tmp_path.iterdir()
        npz = run_dir / "CollectPartials.npz"
        with np.load(npz) as arrays:
            columns = {k: arrays[k] for k in arrays.files
                       if k not in ("ops", "ops_len")}
        np.savez(npz, **columns)
        (run_dir / "CollectPartials.json").write_text(json.dumps(
            {"n": len(data), "counters": None}))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["format"] = 1
        manifest["stages"]["CollectPartials"] = {
            "files": ["CollectPartials.npz", "CollectPartials.json"]}
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["CollectPartials"] == "run"
        assert np.array_equal(resumed.labels, reference.labels)

    @pytest.mark.parametrize("plan, stage", [
        ("spark", "CollectPartials"), ("spatial", "CollectPartials"),
        ("cell", "CollectPartials"), ("spatial_edges", "CollectEdges")])
    def test_an_int64_collect_checkpoint_resumes(self, data, tmp_path, plan,
                                                 stage):
        """Format 2 written with int64 ids, before ids took `id_dtype`:
        the columns load as they were written, every later stage takes
        them in that dtype, and the labels (and, in partials mode, the
        kept partials, spatial remap included) are the uninterrupted
        run's."""
        from tests.dbscan.test_properties import plain

        edges = plan.endswith("_edges")
        config = make_config(plan, keep_partials=not edges)
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after=stage)
        (run_dir,) = tmp_path.iterdir()
        npz = run_dir / f"{stage}.npz"
        with np.load(npz) as arrays:
            columns = {k: arrays[k] for k in arrays.files}
        for f in ("members", "seeds", "founder", "orphans"):
            assert columns[f].dtype == np.int32
            columns[f] = columns[f].astype(np.int64)
        np.savez(npz, **columns)
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status[stage] == "restored"
        assert np.array_equal(resumed.labels, reference.labels)
        if not edges:
            assert resumed.partials.seeds.dtype == np.int64
            assert plain(resumed.partials) == plain(reference.partials)

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

        other = RunConfig(eps=EPS + 1.0, minpts=MINPTS, plan="spark",
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
#: tail of the ``spatial_edges`` plan.  Killing after ApplyGidMap leaves
#: only RelabelFilter, a pure driver transform, and the SpatialReorder
#: whose permutation it undoes — MergeEdges is restored too, not skipped: the
#: frontend reads its partial/seed counts off the plan (an edges plan
#: output); killing after MergeEdges must re-run the expansion
#: (ApplyGidMap needs the executor-resident member lists) but restores
#: the merge plan; killing after CollectEdges restores the digest.
EDGE_CRASH_MATRIX = [
    ("CollectEdges", set()),
    ("MergeEdges", {"CollectEdges"}),
    ("ApplyGidMap", {"PartitionPlan", "BroadcastModel", "LocalExpand",
                     "CollectEdges"}),
]


class TestEdgeMergeCrashResume:
    @pytest.mark.parametrize("kill_after,skipped", EDGE_CRASH_MATRIX)
    def test_resume_matches_uninterrupted(self, kill_after, skipped, data,
                                          tmp_path):
        config = make_config("spatial_edges")
        reference = run_plan(config, data)
        partials_ref = run_plan(make_config("spatial"), data)
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
        config = make_config("spatial_edges")
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
        config = make_config("cell_edges")
        reference = run_plan(config, data)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="ApplyGidMap")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.stage_status["ApplyGidMap"] == "restored"
        np.testing.assert_array_equal(resumed.labels, reference.labels)

    def test_full_restore_never_starts_engine(self, data, tmp_path):
        config = make_config("spatial_edges")
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after="ApplyGidMap")
        resumed = run_plan(config, data, checkpoint_dir=str(tmp_path),
                           resume=True)
        assert resumed.sc is None          # relabel ran purely from artifacts
        assert resumed.stage_status["RelabelFilter"] == "run"


class TestOpCounts:
    """The op counts ride in the collected `ClusterTable` records: one
    accumulator per SEED fit, and a resumed run reports what the cold
    run counted, whether or not the crashed run had a registry."""

    def test_one_accumulator_per_seed_fit(self, data):
        from repro.dbscan import SparkDBSCAN
        from repro.engine import SparkContext

        reg = MetricsRegistry()
        sc = SparkContext("simulated[2]")
        try:
            SparkDBSCAN(EPS, MINPTS, num_partitions=3,
                        metrics_registry=reg).fit(data, sc=sc)
            assert len(sc.accumulators._params) == 1
        finally:
            sc.stop()
        ops = reg.get("repro_dbscan_ops_total")
        assert ops.value(op="range_queries", partition=2) > 0

    @pytest.mark.parametrize("plan,stage", [
        ("spark", "CollectPartials"), ("spatial_edges", "CollectEdges"),
        ("cell", "CollectPartials"), ("cell_edges", "CollectEdges"),
    ])
    def test_resumed_collect_reports_the_cold_counts(self, plan, stage,
                                                     data, tmp_path):
        config = make_config(plan)
        cold = MetricsRegistry()
        run_plan(config, data, metrics_registry=cold)
        with pytest.raises(PipelineCrash):
            run_plan(config, data, checkpoint_dir=str(tmp_path),
                     fail_after=stage)
        resumed = MetricsRegistry()
        state = run_plan(config, data, checkpoint_dir=str(tmp_path),
                         resume=True, metrics_registry=resumed)
        assert state.stage_status[stage] == "restored"
        want = cold.get("repro_dbscan_ops_total").expose()
        assert "range_queries" in want
        assert resumed.get("repro_dbscan_ops_total").expose() == want


class TestOwnedScratchDir:
    """A scratch directory the run creates (the MapReduce plan's tree
    cache and spills) is removed when the run ends, crash included; a
    caller's ``tmp_dir`` stays."""

    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_a_fit_leaves_nothing(self, data, tmpdir_root):
        from repro.dbscan import MapReduceDBSCAN

        MapReduceDBSCAN(EPS, MINPTS, num_maps=3,
                        startup_overhead=0.0).fit(data)
        assert list(tmpdir_root.iterdir()) == []

    def test_a_crash_leaves_nothing(self, data, tmpdir_root, tmp_path):
        with pytest.raises(PipelineCrash):
            run_plan(make_config("mapreduce"), data,
                     checkpoint_dir=str(tmp_path / "ckpt"),
                     fail_after="LocalExpand")
        assert list(tmpdir_root.iterdir()) == []

    def test_the_cli_leaves_nothing(self, tmpdir_root, capsys):
        from repro.cli import main

        assert main(["run", "c10k", "--plan", "mapreduce",
                     "--partitions", "2"]) == 0
        assert list(tmpdir_root.iterdir()) == []

    def test_a_callers_tmp_dir_stays(self, data, tmpdir_root, tmp_path):
        given = tmp_path / "given"
        run_plan(make_config("mapreduce", tmp_dir=str(given)), data)
        assert (given / "kdtree.cache.pkl").exists()
        assert list(tmpdir_root.iterdir()) == []


class TestFitTracer:
    """The engine records a fit's jobs into the fit's tracer, also on a
    context the fit was lent, and the registry is folded from them."""

    TASK_FAMILIES = {"repro_task_attempts_total", "repro_task_run_seconds",
                     "repro_task_cpu_seconds", "repro_task_peak_rss_bytes"}

    def test_a_fit_on_a_lent_context_records_its_jobs(self):
        from repro.dbscan import SparkDBSCAN
        from repro.engine import SparkContext
        from repro.obs import Tracer

        points = generate_clustered(n=2000, seed=3).points
        own, tracer, reg = Tracer(), Tracer(), MetricsRegistry()
        sc = SparkContext("local", tracer=own)
        try:
            SparkDBSCAN(3.0, 5, num_partitions=4, tracer=tracer,
                        metrics_registry=reg).fit(points, sc=sc)
        finally:
            sc.stop()
        tasks = [s for s in tracer.spans if s.name.startswith("task[")]
        assert len(tasks) == 4
        assert any(s.name == "engine.job" for s in tracer.spans)
        assert {name for name in reg._instruments
                if name.startswith("repro_task_")} == self.TASK_FAMILIES
        # The context's own tracer saw its creation, not the fit's jobs.
        assert [s.name for s in own.spans] == ["engine.context"]

    def test_the_registry_folds_only_this_fits_spans(self, data):
        from repro.dbscan import SparkDBSCAN
        from repro.obs import Tracer

        tracer = Tracer()
        SparkDBSCAN(EPS, MINPTS, num_partitions=3, tracer=tracer).fit(data)
        reg = MetricsRegistry()
        SparkDBSCAN(EPS, MINPTS, num_partitions=3, tracer=tracer,
                    metrics_registry=reg).fit(data)
        attempts = reg.get("repro_task_attempts_total")
        assert attempts.value(stage=0, outcome="succeeded") == 3


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
