"""Composable driver pipeline behind every DBSCAN frontend.

All five frontends (`repro.dbscan`) are thin compositions of the stages
in this package, executed by one `PipelineRunner`:

- `RunConfig` — the single frozen config replacing the kwarg sprawl;
- `Stage` subclasses — the paper's driver steps as typed objects;
- `Plan` / `build_plan` / `STAGE_MANIFEST` — the plan table and its
  instantiation;
- `PipelineRunner` — spans + metrics per stage, checkpoint/resume;
- `CheckpointStore` — content-hashed per-stage artifacts on disk.

See DESIGN.md §9 for the architecture and checkpoint format.
"""

from .config import ALGORITHMS, HASHED_FIELDS, PARTITIONINGS, RunConfig
from .checkpoint import CheckpointError, CheckpointStore
from .state import PipelineState
from .stages import (
    ApplyGidMap,
    BroadcastModel,
    BuildIndex,
    CollectEdges,
    CollectPartials,
    LoadPoints,
    LocalExpand,
    MergeEdges,
    MergePartials,
    PartitionPlan,
    PipelineError,
    RelabelFilter,
    SequentialExpand,
    SpatialReorder,
    Stage,
)
from .stages_cells import CellCollect, CellPartition, LocalIndexExpand
from .stages_naive import NaiveRelabel, ShuffleExpand
from .stages_mapreduce import MRBuildIndex, MRCollect, MRLocalExpand, MRRelabel
from .plans import (
    SHUFFLE_FREE_PLANS,
    STAGE_MANIFEST,
    Plan,
    build_plan,
    plan_name,
)
from .runner import RESTORED, RUN, SKIPPED, PipelineCrash, PipelineRunner

__all__ = [
    "ALGORITHMS",
    "HASHED_FIELDS",
    "PARTITIONINGS",
    "RunConfig",
    "CheckpointError",
    "CheckpointStore",
    "PipelineState",
    "Stage",
    "PipelineError",
    "LoadPoints",
    "SpatialReorder",
    "BuildIndex",
    "PartitionPlan",
    "BroadcastModel",
    "LocalExpand",
    "CollectPartials",
    "MergePartials",
    "CollectEdges",
    "MergeEdges",
    "ApplyGidMap",
    "RelabelFilter",
    "SequentialExpand",
    "CellPartition",
    "LocalIndexExpand",
    "CellCollect",
    "ShuffleExpand",
    "NaiveRelabel",
    "MRBuildIndex",
    "MRLocalExpand",
    "MRCollect",
    "MRRelabel",
    "Plan",
    "STAGE_MANIFEST",
    "SHUFFLE_FREE_PLANS",
    "build_plan",
    "plan_name",
    "PipelineRunner",
    "PipelineCrash",
    "RUN",
    "RESTORED",
    "SKIPPED",
]
