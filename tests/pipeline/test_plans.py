"""`STAGE_MANIFEST` is the one plan table: the linter reads it off the
AST and `build_plan` instantiates it, so there is no second copy to
keep in sync — what is left to pin is that every row builds, that the
five SEED plans are the head × tail products they claim to be, and that
the frontends compose the rows they should."""

import pytest

from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.pipeline import PipelineRunner, Stage
from repro.pipeline.config import RunConfig
from repro.pipeline.plans import (
    PLAN_OUTPUTS,
    SHUFFLE_FREE_PLANS,
    SIZE_MANIFEST,
    STAGE_MANIFEST,
    build_plan,
)

HEADS = {
    "spark": ("LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
              "LocalExpand"),
    "spatial": ("LoadPoints", "SpatialReorder", "PartitionPlan",
                "BroadcastModel", "LocalExpand"),
    "cell": ("LoadPoints", "CellPartition", "LocalIndexExpand"),
}
PARTIALS_TAIL = ("CollectPartials", "MergePartials", "RelabelFilter")
EDGES_TAIL = ("CollectEdges", "MergeEdges", "ApplyGidMap", "RelabelFilter")


def config_for(name: str, **kwargs) -> RunConfig:
    return RunConfig(eps=25.0, minpts=5, plan=name, **kwargs)


def test_every_manifest_row_builds_from_a_resolving_config():
    for name, row in STAGE_MANIFEST.items():
        plan = build_plan(config_for(name))
        assert plan.name == name
        assert tuple(type(s).__name__ for s in plan.stages) == row
        assert all(isinstance(s, Stage) for s in plan.stages)
        assert plan.outputs == ("labels",) + PLAN_OUTPUTS[name]
        provided = {key for s in plan.stages for key in s.provides}
        assert set(plan.outputs) <= provided, name


def test_manifest_covers_every_plan():
    # Five SEED plans, then sequential, naive and mapreduce.
    assert len(STAGE_MANIFEST) == 8
    assert set(PLAN_OUTPUTS) == set(STAGE_MANIFEST)
    assert set(SHUFFLE_FREE_PLANS) <= set(STAGE_MANIFEST)
    assert {cls for row in STAGE_MANIFEST.values() for cls in row} \
        == set(SIZE_MANIFEST)


@pytest.mark.parametrize("head", sorted(HEADS))
def test_product_plans_are_head_plus_tail(head):
    """Every head takes the partials tail; only the spatial heads take
    the edges tail (index ranges make the digest the whole record)."""
    assert STAGE_MANIFEST[head] == HEADS[head] + PARTIALS_TAIL
    assert STAGE_MANIFEST.get(f"{head}_edges") == (
        None if head == "spark" else HEADS[head] + EDGES_TAIL)


def test_edges_plans_never_output_partials():
    for name, outputs in PLAN_OUTPUTS.items():
        assert ("partials" in outputs) == (name in HEADS)


def test_spatial_plans_output_the_permutation_relabel_reads():
    """`RelabelFilter` takes no constructor arguments; listing ``perm``
    (and ``partials``) as plan outputs is what keeps `SpatialReorder`
    from being skipped when a resume restores everything downstream."""
    for name in ("spatial", "spatial_edges"):
        assert "perm" in PLAN_OUTPUTS[name]
        plan = build_plan(config_for(name))
        runner = PipelineRunner(plan, config_for(name))
        decisions = runner._plan_decisions(plan.stages[1:], None)
        assert decisions["SpatialReorder"] == "run"


def test_plan_name_resolution():
    """The frontends keep their selectors and only compose the row name."""
    for make, kwargs, row in [
        (SparkDBSCAN, {}, "spark"),
        (SparkDBSCAN, dict(partitioning="cells"), "cell"),
        (SpatialSparkDBSCAN, dict(merge_mode="edges"), "spatial_edges"),
        (SparkDBSCAN, dict(partitioning="cells", merge_mode="edges"),
         "cell_edges"),
        # keep_partials is a runtime knob: it never changes the plan.
        (SpatialSparkDBSCAN, dict(keep_partials=True), "spatial"),
    ]:
        assert make(25.0, 5, **kwargs).config.plan == row


def test_shuffle_free_plans_are_the_paper_pipelines():
    assert SHUFFLE_FREE_PLANS == (
        "spark", "spatial", "cell", "spatial_edges", "cell_edges",
    )


def test_stages_take_no_constructor_arguments():
    """What varies between plans sharing a stage class comes from the
    RunConfig at run time, not from a builder restating it."""
    for name in STAGE_MANIFEST:
        for stage in build_plan(config_for(name)).stages:
            assert type(stage).__init__ is object.__init__, type(stage)
