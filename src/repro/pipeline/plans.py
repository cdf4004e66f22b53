"""Plan compositions: one table, `STAGE_MANIFEST`, read by everyone.

The paper's driver program is one fixed sequence; the frontends are
small edits of it (Section IV vs. the Section V baselines).  Each plan
is a row of `STAGE_MANIFEST` — stage *class* names in execution order —
and `build_plan` instantiates the row a `RunConfig` names
(``RunConfig.plan``).  The five SEED plans are three heads with the
partials tail, and the two spatial heads with the edges tail:

==============  ==========================================================
``spark``       LoadPoints → BuildIndex → PartitionPlan → BroadcastModel →
                LocalExpand → (tail)
``spatial``     the same head with SpatialReorder, which also builds the
                index, for BuildIndex (RelabelFilter undoes the permutation)
``cell``        LoadPoints → CellPartition → LocalIndexExpand → (tail) —
                cell partitions with local indexes and an eps-halo; no
                BuildIndex, no BroadcastModel (DESIGN.md §10)
partials tail   CollectPartials → MergePartials → RelabelFilter
edges tail      ``spatial_edges``, ``cell_edges``: CollectEdges →
                MergeEdges → ApplyGidMap → RelabelFilter — executors
                ship digests, not partial clusters (DESIGN.md §11)
``sequential``  the degenerate single-partition plan (Algorithm 1)
``naive``       the shuffle-per-round baseline the paper argues against
``mapreduce``   two-round MR-DBSCAN over the mini-MapReduce runtime
==============  ==========================================================

The ``spark`` head has no edges row: on index ranges the digest is the
whole record (DESIGN.md §11).

Stages take no constructor arguments: whatever varies between plans
that share a stage class (what `LocalExpand` ships, whether
`RelabelFilter` has a permutation to undo) is read from the `RunConfig`
and the pipeline state at run time.

``Plan.outputs`` names the state keys a frontend reads off the final
state; the runner works backwards from them to decide which stages can be
skipped outright when a resume restores their downstream consumers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import stages, stages_cells, stages_mapreduce, stages_naive
from .config import RunConfig
from .stages import LoadPoints, Stage


@dataclass(frozen=True)
class Plan:
    """An ordered stage composition plus the keys its caller consumes."""

    name: str
    stages: tuple[Stage, ...]
    outputs: tuple[str, ...] = ("labels",)

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
        "LoadPoints", "CellPartition", "LocalIndexExpand", "CollectPartials",
        "MergePartials", "RelabelFilter",
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
# ``labels``).  An edges plan never brings partials to the driver, so it
# cannot output them; its partial/seed counts live in the merge plan,
# which a resume therefore restores (O(partials) JSON) instead of
# skipping.
PLAN_OUTPUTS = {
    "spark": ("outcome", "partials"),
    "spatial": ("outcome", "partials", "perm"),
    "cell": ("outcome", "partials"),
    "spatial_edges": ("outcome", "merge_plan", "perm"),
    "cell_edges": ("outcome", "merge_plan"),
    "sequential": (),
    "naive": ("propagated",),
    "mapreduce": ("mr_round1", "mr_round2"),
}

# Plans under the paper's zero-shuffle contract (Algorithms 3-4): their
# stage classes are SHF001 entry points, so a stage added to these
# compositions is automatically under the shuffle-free proof.
SHUFFLE_FREE_PLANS = ("spark", "spatial", "cell", "spatial_edges", "cell_edges")

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


def build_plan(config: RunConfig) -> Plan:
    """The manifest row ``config.plan``, instantiated."""
    return Plan(
        name=config.plan,
        stages=tuple(_stage_class(cls)() for cls in STAGE_MANIFEST[config.plan]),
        outputs=("labels",) + PLAN_OUTPUTS[config.plan],
    )


def _stage_class(name: str) -> type[Stage]:
    for module in (stages, stages_cells, stages_mapreduce, stages_naive):
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(f"STAGE_MANIFEST names unknown stage class {name!r}")
