"""Plan compositions: one table, `STAGE_MANIFEST`, read by everyone.

The paper's driver program is one fixed sequence; the frontends are
small edits of it (Section IV vs. the Section V baselines).  Each plan
is a row of `STAGE_MANIFEST` — stage *class* names in execution order —
and `build_plan` instantiates the row for the plan a `RunConfig`
resolves to (`plan_name`).  The six SEED plans are the product of three
heads and two merge tails:

==============  ==========================================================
``spark``       LoadPoints → BuildIndex → PartitionPlan → BroadcastModel →
                LocalExpand → (tail)
``spatial``     the same head with SpatialReorder, which also builds the
                index, for BuildIndex (RelabelFilter undoes the permutation)
``cell``        LoadPoints → CellPartition → LocalIndexExpand → (tail) —
                cell partitions with local indexes and an eps-halo; no
                BuildIndex, no BroadcastModel (``partitioning="cells"``)
partials tail   CollectPartials (CellCollect on the cell plan) →
                MergePartials → RelabelFilter
``*_edges``     CollectEdges → MergeEdges → ApplyGidMap → RelabelFilter:
                executors ship digests, not partial clusters
                (``merge_mode="edges"``, DESIGN.md §11)
``sequential``  the degenerate single-partition plan (Algorithm 1)
``naive``       the shuffle-per-round baseline the paper argues against
``mapreduce``   two-round MR-DBSCAN over the mini-MapReduce runtime
==============  ==========================================================

Stages take no constructor arguments: whatever varies between plans
that share a stage class (what `LocalExpand` ships, whether
`RelabelFilter` has a permutation to undo) is read from the `RunConfig`
and the pipeline state at run time.

``Plan.outputs`` names the state keys a frontend reads off the final
state; the runner works backwards from them to decide which stages can be
skipped outright when a resume restores their downstream consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import stages, stages_cells, stages_mapreduce, stages_naive
from .config import RunConfig
from .stages import LoadPoints, Stage


@dataclass(frozen=True)
class Plan:
    """An ordered stage composition plus the keys its caller consumes."""

    name: str
    stages: tuple[Stage, ...]
    outputs: tuple[str, ...] = ("labels",)
    algo_label: str = field(default="")

    def __post_init__(self) -> None:
        if not self.stages or not isinstance(self.stages[0], LoadPoints):
            raise ValueError("every plan must start with LoadPoints")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in plan: {names}")

    def stage_names(self) -> tuple[str, ...]:
        """The stage names, in execution order."""
        return tuple(s.name for s in self.stages)


# Every plan's stages, once, as stage *class* names.  Pure literals on
# purpose: `build_plan` instantiates a row by name, and the
# whole-program linter (repro.lint.plans) reads the same rows straight
# off the AST — without importing or executing anything — to verify each
# plan's requires/provides chain and to derive the SHF001 entry points.
STAGE_MANIFEST = {
    "spark": (
        "LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectPartials", "MergePartials", "RelabelFilter",
    ),
    "spatial": (
        "LoadPoints", "SpatialReorder", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectPartials", "MergePartials", "RelabelFilter",
    ),
    "cell": (
        "LoadPoints", "CellPartition", "LocalIndexExpand", "CellCollect",
        "MergePartials", "RelabelFilter",
    ),
    "spark_edges": (
        "LoadPoints", "BuildIndex", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectEdges", "MergeEdges", "ApplyGidMap",
        "RelabelFilter",
    ),
    "spatial_edges": (
        "LoadPoints", "SpatialReorder", "PartitionPlan", "BroadcastModel",
        "LocalExpand", "CollectEdges", "MergeEdges", "ApplyGidMap",
        "RelabelFilter",
    ),
    "cell_edges": (
        "LoadPoints", "CellPartition", "LocalIndexExpand", "CollectEdges",
        "MergeEdges", "ApplyGidMap", "RelabelFilter",
    ),
    "sequential": ("LoadPoints", "BuildIndex", "SequentialExpand"),
    "naive": ("LoadPoints", "BuildIndex", "ShuffleExpand", "NaiveRelabel"),
    "mapreduce": (
        "LoadPoints", "MRBuildIndex", "PartitionPlan", "MRLocalExpand",
        "MRCollect", "MRRelabel",
    ),
}

# What each plan's frontend reads off the final state (beyond
# ``labels``), and the label its ``dbscan.fit`` span carries.  An edges
# plan never brings partials to the driver, so it cannot output them;
# its partial/seed counts live in the merge plan, which a resume
# therefore restores (O(partials) JSON) instead of skipping.
PLAN_OUTPUTS = {
    "spark": (("outcome", "partials"), "SparkDBSCAN"),
    "spatial": (("outcome", "partials", "perm"), "SpatialSparkDBSCAN"),
    "cell": (("outcome", "partials"), "SparkDBSCAN[cells]"),
    "spark_edges": (("outcome", "merge_plan"), "SparkDBSCAN[edges]"),
    "spatial_edges": (
        ("outcome", "merge_plan", "perm"), "SpatialSparkDBSCAN[edges]",
    ),
    "cell_edges": (("outcome", "merge_plan"), "SparkDBSCAN[cells,edges]"),
    "sequential": ((), "sequential"),
    "naive": (("propagated",), "NaiveSparkDBSCAN"),
    "mapreduce": (("mr_round1", "mr_round2"), "MapReduceDBSCAN"),
}

# Plans under the paper's zero-shuffle contract (Algorithms 3-4): their
# stage classes are SHF001 entry points, so a stage added to these
# compositions is automatically under the shuffle-free proof.
SHUFFLE_FREE_PLANS = (
    "spark", "spatial", "cell", "spark_edges", "spatial_edges", "cell_edges",
)

# Static per-stage size-class contract (DESIGN.md §8.7).  Pure literals
# again: ``repro.lint.sizeclass`` reads the ``input``/``output`` classes
# straight off the AST to seed the size-class abstract interpretation
# (the SCL rules), and ``repro.lint.plans`` verifies every entry names a
# manifest stage class, every manifest stage is covered, and the classes
# are drawn from the O(1) ⊑ O(cells) ⊑ O(partials) ⊑ O(edges) ⊑
# O(points) lattice.  "input"/"output" describe the *driver-resident*
# data a stage consumes/produces — a stage whose work lives in a lazy
# RDD plan is O(1) on the driver even though executors touch O(points).
SIZE_MANIFEST = {
    "LoadPoints": {"input": "O(points)", "output": "O(points)"},
    "SpatialReorder": {"input": "O(points)", "output": "O(points)"},
    "BuildIndex": {"input": "O(points)", "output": "O(points)"},
    "PartitionPlan": {"input": "O(1)", "output": "O(1)"},
    "BroadcastModel": {"input": "O(points)", "output": "O(1)"},
    "CellPartition": {"input": "O(points)", "output": "O(points)"},
    "LocalExpand": {"input": "O(1)", "output": "O(1)"},
    "LocalIndexExpand": {"input": "O(1)", "output": "O(1)"},
    "CollectPartials": {"input": "O(points)", "output": "O(points)"},
    "CellCollect": {"input": "O(points)", "output": "O(points)"},
    "CollectEdges": {"input": "O(edges)", "output": "O(edges)"},
    "MergeEdges": {"input": "O(edges)", "output": "O(partials)"},
    "MergePartials": {"input": "O(points)", "output": "O(points)"},
    "ApplyGidMap": {"input": "O(partials)", "output": "O(points)"},
    "RelabelFilter": {"input": "O(points)", "output": "O(points)"},
    "SequentialExpand": {"input": "O(points)", "output": "O(points)"},
    "ShuffleExpand": {"input": "O(points)", "output": "O(points)"},
    "NaiveRelabel": {"input": "O(points)", "output": "O(points)"},
    "MRBuildIndex": {"input": "O(points)", "output": "O(points)"},
    "MRLocalExpand": {"input": "O(1)", "output": "O(1)"},
    "MRCollect": {"input": "O(points)", "output": "O(points)"},
    "MRRelabel": {"input": "O(points)", "output": "O(points)"},
}


def plan_name(config: RunConfig) -> str:
    """The plan a config resolves to.

    ``partitioning="cells"`` swaps the spark composition for the cell
    plan; ``merge_mode="edges"`` swaps the merge tail; every other
    config maps straight to its algorithm name.
    """
    base = "cell" if config.partitioning == "cells" else config.algorithm
    if config.merge_mode == "edges":
        return f"{base}_edges"
    return base


def build_plan(config: RunConfig) -> Plan:
    """The plan composition for ``config.algorithm``/``partitioning``/
    ``merge_mode``: the manifest row, instantiated."""
    name = plan_name(config)
    outputs, algo_label = PLAN_OUTPUTS[name]
    return Plan(
        name=name,
        stages=tuple(_stage_class(cls)() for cls in STAGE_MANIFEST[name]),
        outputs=("labels",) + outputs,
        algo_label=algo_label,
    )


def _stage_class(name: str) -> type[Stage]:
    for module in (stages, stages_cells, stages_mapreduce, stages_naive):
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(f"STAGE_MANIFEST names unknown stage class {name!r}")
