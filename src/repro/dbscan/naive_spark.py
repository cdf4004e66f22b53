"""The *traditional* shuffle-based parallel DBSCAN the paper argues against.

Section IV-A: "According to the traditional method, we need to update
data points' state by map function and then propagate this update to
other executors ... it will introduce a shuffle operation."  This
module implements that traditional method so the SEED design has a
measurable opponent (Ablation D):

1. one parallel pass computes each point's core flag and its
   density-reachability edges (core → neighbour);
2. cluster discovery is iterative min-label propagation over the core
   graph — **every iteration is a join + reduceByKey, i.e. two shuffle
   stages**, repeated until the labelling converges;
3. border points take the label of any adjacent core point.

The result is the same clustering; the cost is O(graph diameter)
shuffle rounds with all-points record volume in each, versus zero
shuffles for the SEED algorithm.

The propagation body lives in `repro.pipeline.stages_naive` (the plan
is the ``naive`` row of `repro.pipeline.STAGE_MANIFEST`); this class is
the thin frontend shim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import SparkContext
from ..obs.spans import NULL_TRACER, Tracer
from ..pipeline.config import RunConfig
from .core import ClusteringResult


@dataclass
class NaiveSparkResult(ClusteringResult):
    """ClusteringResult plus shuffle-round/byte accounting."""
    shuffle_rounds: int = 0
    shuffle_bytes: int = 0


class NaiveSparkDBSCAN:
    """Shuffle-per-round parallel DBSCAN (the baseline design)."""

    def __init__(
        self,
        eps: float,
        minpts: int,
        num_partitions: int = 4,
        master: str | None = None,
        max_rounds: int = 100,
        leaf_size: int = 64,
        tracer: Tracer | None = None,
        sanitize: bool = False,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fail_after: str | None = None,
    ):
        self.config = RunConfig(
            eps=eps,
            minpts=minpts,
            plan="naive",
            num_partitions=num_partitions,
            master=master,
            max_rounds=max_rounds,
            leaf_size=leaf_size,
            sanitize=sanitize,
        )
        self.tracer = tracer or NULL_TRACER
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fail_after = fail_after

    def __getattr__(self, name: str):
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

    def fit(
        self, points: np.ndarray, sc: SparkContext | None = None
    ) -> NaiveSparkResult:
        """Run the clustering over the given points."""
        from ..pipeline.plans import build_plan
        from ..pipeline.runner import PipelineRunner

        runner = PipelineRunner(
            build_plan(self.config),
            self.config,
            tracer=self.tracer,
            checkpoint_dir=self.checkpoint_dir,
            resume=self.resume,
            fail_after=self.fail_after,
        )
        state = runner.run(points, sc=sc, algo_label=type(self).__name__)
        return NaiveSparkResult(
            labels=state.labels,
            timings=state.timings,
            shuffle_rounds=state.extras["shuffle_rounds"],
            shuffle_bytes=state.extras["shuffle_bytes"],
        )
