"""`STAGE_MANIFEST` is the one plan table: the linter reads it off the
AST and `build_plan` instantiates it, so there is no second copy to
keep in sync — what is left to pin is that every row builds, that the
six SEED plans are the head × tail product they claim to be, and that
configs resolve to the rows they should."""

import pytest

from repro.pipeline import PipelineRunner, Stage
from repro.pipeline.config import RunConfig
from repro.pipeline.plans import (
    PLAN_OUTPUTS,
    SHUFFLE_FREE_PLANS,
    SIZE_MANIFEST,
    STAGE_MANIFEST,
    build_plan,
    plan_name,
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
    """A RunConfig that resolves to the named plan.

    The ``cell`` plan is not an algorithm: it is the spark plan re-based
    via ``partitioning="cells"``; the ``*_edges`` plans are the same
    compositions with the edge-based merge tail (``merge_mode="edges"``).
    """
    if name.endswith("_edges"):
        name = name[: -len("_edges")]
        kwargs["merge_mode"] = "edges"
    if name == "cell":
        return RunConfig(eps=25.0, minpts=5, algorithm="spark",
                         partitioning="cells", **kwargs)
    return RunConfig(eps=25.0, minpts=5, algorithm=name, **kwargs)


def test_every_manifest_row_builds_from_a_resolving_config():
    for name, row in STAGE_MANIFEST.items():
        config = config_for(name)
        assert plan_name(config) == name
        plan = build_plan(config)
        assert plan.name == name
        assert tuple(type(s).__name__ for s in plan.stages) == row
        assert all(isinstance(s, Stage) for s in plan.stages)
        outputs, algo_label = PLAN_OUTPUTS[name]
        assert plan.outputs == ("labels",) + outputs
        assert plan.algo_label == algo_label
        provided = {key for s in plan.stages for key in s.provides}
        assert set(plan.outputs) <= provided, name


def test_manifest_covers_every_plan():
    assert set(PLAN_OUTPUTS) == set(STAGE_MANIFEST)
    assert set(SHUFFLE_FREE_PLANS) <= set(STAGE_MANIFEST)
    assert {cls for row in STAGE_MANIFEST.values() for cls in row} \
        == set(SIZE_MANIFEST)


@pytest.mark.parametrize("head", sorted(HEADS))
def test_product_plans_are_head_plus_tail(head):
    tail = PARTIALS_TAIL
    if head == "cell":
        # Same stage, own class name: BENCHMARK.json times CellCollect.
        tail = ("CellCollect",) + PARTIALS_TAIL[1:]
    assert STAGE_MANIFEST[head] == HEADS[head] + tail
    assert STAGE_MANIFEST[f"{head}_edges"] == HEADS[head] + EDGES_TAIL


def test_edges_plans_never_output_partials():
    for name, (outputs, _) in PLAN_OUTPUTS.items():
        assert ("partials" in outputs) == (name in HEADS)


def test_spatial_plans_output_the_permutation_relabel_reads():
    """`RelabelFilter` takes no constructor arguments; listing ``perm``
    (and ``partials``) as plan outputs is what keeps `SpatialReorder`
    from being skipped when a resume restores everything downstream."""
    for name in ("spatial", "spatial_edges"):
        assert "perm" in PLAN_OUTPUTS[name][0]
        plan = build_plan(config_for(name))
        runner = PipelineRunner(plan, config_for(name))
        decisions = runner._plan_decisions(plan.stages[1:], None)
        assert decisions["SpatialReorder"] == "run"


def test_plan_name_resolution():
    assert plan_name(config_for("spark")) == "spark"
    assert plan_name(config_for("cell")) == "cell"
    assert plan_name(config_for("spark_edges")) == "spark_edges"
    assert plan_name(config_for("spatial_edges")) == "spatial_edges"
    assert plan_name(config_for("cell_edges")) == "cell_edges"
    # keep_partials is a runtime knob: it never changes the plan.
    assert plan_name(config_for("spatial", keep_partials=True)) == "spatial"


def test_shuffle_free_plans_are_the_paper_pipelines():
    assert SHUFFLE_FREE_PLANS == (
        "spark", "spatial", "cell",
        "spark_edges", "spatial_edges", "cell_edges",
    )


def test_stages_take_no_constructor_arguments():
    """What varies between plans sharing a stage class comes from the
    RunConfig at run time, not from a builder restating it."""
    for name in STAGE_MANIFEST:
        for stage in build_plan(config_for(name)).stages:
            assert type(stage).__init__ is object.__init__, type(stage)
