"""The paper's contribution end-to-end: DBSCAN as a Spark job (Algorithm 2).

Driver side::

    1. read / receive points, build the kd-tree          (driver)
    2. broadcast tree + parameters                        (driver)
    3. parallelize point indices into p range partitions  (driver)
    4. foreachPartition: local DBSCAN with SEED placement (executors)
    5. partial clusters flow back through an accumulator  (executors→driver)
    6. dig SEEDs, merge partial clusters                  (driver)

Executors never talk to each other — no shuffle stage exists anywhere
in the job's lineage, which is the property the whole design buys.

Since the pipeline refactor this class is a thin shim: the sequence
above lives in `repro.pipeline` as a composition of typed stages
(the ``spark`` row of `repro.pipeline.STAGE_MANIFEST`), and ``fit`` just
assembles a `RunConfig`, hands it to a `PipelineRunner`, and repackages
the final state as the historical result object.  Labels, partials, and
counters are byte-identical to the pre-refactor monolithic
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import SparkContext
from ..kdtree import KDTree
from ..obs.spans import NULL_TRACER, Tracer
from ..pipeline.config import RunConfig
from .core import ClusteringResult
from .partial import PartialCluster


@dataclass
class SparkDBSCANResult(ClusteringResult):
    """ClusteringResult plus the collected partial clusters (optional,
    as `PartialCluster` views of the collected `ClusterTable`).

    ``perm`` is set by `SpatialSparkDBSCAN`: the spatial reordering that
    was applied before partitioning (``perm[k]`` is the original index of
    reordered point ``k``).  ``None`` when no reordering happened.
    """

    partials: list[PartialCluster] | None = None
    perm: np.ndarray | None = None


class SparkDBSCAN:
    """Parallel DBSCAN with SEED-based shuffle-free merging.

    Parameters
    ----------
    eps, minpts:
        DBSCAN density parameters (paper Table I uses 25.0 / 5).
    num_partitions:
        Number of executor partitions; the paper runs one per core.
    master:
        Engine master URL; defaults to ``simulated[num_partitions]``
        (serial execution with per-task timing, see DESIGN.md §2).
        Use ``processes[k]`` for real parallel execution.
    seed_policy:
        ``"all"`` (exact, default) or ``"one_per_partition"``
        (Algorithm 3 literal) — see `repro.dbscan.partial`.
    merge_strategy:
        ``"union_find"`` (default) or ``"paper"`` (Algorithm 4 literal).
    max_neighbors:
        Optional kd-tree pruning cap (the paper's r1m branch-pruning).
    neighbor_mode:
        ``"per_point"`` or ``"batched"``: validated, without effect here.
        Both values run the same code — executors answer all owned
        neighbourhoods with one vectorised kernel call, then expand over
        its hits in tile order (DESIGN.md §6) — and the frozen benchmark
        passes it.
    min_cluster_size:
        Drop partial clusters smaller than this before merging (the
        paper's r1m small-cluster filter).
    leaf_size:
        kd-tree leaf size.
    keep_partials:
        Retain partial clusters on the result for inspection.  Under
        `RunConfig.witness_once` (the defaults) they carry only their
        up-pointing seeds; the orphan rows that complete them are not
        kept.
    partitioning:
        ``"range"`` (default): the paper's contiguous index slicing with
        a whole-tree broadcast.  ``"cells"``: eps-grid cell partitions
        with partition-local kd-trees and an eps-halo — the driver never
        builds a global index and never broadcasts anything
        dataset-sized (DESIGN.md §10).  Labels are byte-identical.
    merge_mode:
        ``"partials"`` (default): executors ship whole partial clusters
        to the driver (the paper's path).  ``"edges"``: executors ship
        compact partition digests, the driver union-finds over cluster
        keys — O(edges + partials), not O(points) — and a second
        distributed pass applies the broadcast gid map (DESIGN.md §11).
        Labels are byte-identical.
    tracer:
        `repro.obs.Tracer` receiving the run's phase spans (DESIGN.md
        §7).  Defaults to the no-op `NULL_TRACER`; labels are identical
        either way.
    metrics_registry:
        `repro.obs.MetricsRegistry` receiving every task attempt's
        `TaskMetrics` (attempts, run and CPU seconds, peak worker RSS,
        shuffle bytes) and the executors' `OpCounters` (closed forms of
        the expansion's arrays, shipped through a second accumulator only
        when a registry is present).  Labels are identical either way.
    checkpoint_dir, resume, fail_after:
        Per-stage checkpointing (DESIGN.md §9): with ``checkpoint_dir``
        set, checkpointable stages persist their outputs keyed by the
        config+data content hash; ``resume=True`` restores completed
        stages instead of re-running them; ``fail_after`` injects a
        `repro.pipeline.PipelineCrash` after the named stage (testing).

    All parameter validation lives in `repro.pipeline.RunConfig`.
    """

    #: pipeline plan this frontend composes (subclasses override).
    ALGORITHM = "spark"

    def __init__(
        self,
        eps: float,
        minpts: int,
        num_partitions: int = 4,
        master: str | None = None,
        seed_policy: str = "all",
        merge_strategy: str = "union_find",
        max_neighbors: int | None = None,
        min_cluster_size: int = 0,
        leaf_size: int = 64,
        keep_partials: bool = False,
        neighbor_mode: str = "per_point",
        partitioning: str = "range",
        merge_mode: str = "partials",
        tracer: Tracer | None = None,
        metrics_registry=None,
        sanitize: bool = False,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fail_after: str | None = None,
    ):
        self.config = RunConfig(
            eps=eps,
            minpts=minpts,
            algorithm=self.ALGORITHM,
            num_partitions=num_partitions,
            master=master,
            seed_policy=seed_policy,
            merge_strategy=merge_strategy,
            max_neighbors=max_neighbors,
            min_cluster_size=min_cluster_size,
            leaf_size=leaf_size,
            keep_partials=keep_partials,
            neighbor_mode=neighbor_mode,
            partitioning=partitioning,
            merge_mode=merge_mode,
            sanitize=sanitize,
        )
        self.tracer = tracer or NULL_TRACER
        self.metrics_registry = metrics_registry
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fail_after = fail_after

    def __getattr__(self, name: str):
        # Legacy attribute surface: the old kwargs lived directly on the
        # instance; forward them to the config so callers keep working.
        if name in ("config", "__setstate__"):
            raise AttributeError(name)
        if name == "master":
            return self.config.resolved_master
        try:
            return getattr(self.config, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def _fit_state(self, points: np.ndarray, sc=None, tree=None):
        """Run this frontend's plan and return the final pipeline state."""
        # Imported lazily: repro.pipeline's stage modules import from
        # repro.dbscan, so a module-level import here would be circular.
        from ..pipeline.plans import build_plan
        from ..pipeline.runner import PipelineRunner

        runner = PipelineRunner(
            build_plan(self.config),
            self.config,
            tracer=self.tracer,
            metrics_registry=self.metrics_registry,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            fail_after=self.fail_after,
        )
        return runner.run(points, sc=sc, tree=tree, algo_label=type(self).__name__)

    def fit(
        self,
        points: np.ndarray,
        sc: SparkContext | None = None,
        *,
        tree: KDTree | None = None,
    ) -> SparkDBSCANResult:
        """Run the full job; returns labels plus the driver/executor
        timing split the paper's figures are built from.

        ``tree`` (keyword-only) lends a prebuilt kd-tree, skipping the
        build — used when timing query cost separately.
        """
        state = self._fit_state(points, sc=sc, tree=tree)
        partials = state.partials
        if partials is not None:
            num_partials, num_seeds = len(partials), len(partials.seeds)
        else:
            # merge_mode="edges": no full records reach the driver; the
            # counts come from the projections via MergeEdges.
            plan = state.extras["merge_plan"]
            num_partials, num_seeds = plan.num_partials, plan.num_seeds
        return SparkDBSCANResult(
            labels=state.labels,
            timings=state.timings,
            num_partial_clusters=num_partials,
            num_seeds=num_seeds,
            num_merges=state.outcome.num_merges,
            partials=(list(partials or []) if self.config.keep_partials
                      else None),
            perm=state.perm,
        )
