"""DBSCAN over the mini-MapReduce runtime — the paper's Figure 7 baseline.

The paper implemented its own MapReduce DBSCAN to compare against the
Spark version ("we have implemented our own DBSCAN with MapReduce
approach", Section V-D).  Following the MR-DBSCAN family of designs
[He et al. 2014], the computation takes **two MapReduce rounds**, and —
unlike the Spark job — pays MapReduce's structural costs:

- the kd-tree cannot be broadcast: every map task re-loads it from a
  distributed-cache file on disk (Spark executors deserialise it once);
- partial clusters travel to the reducer through sorted on-disk spills;
- round 2 re-materialises every (point, label) record through the
  shuffle again to produce the final relabelled output.

Wall-clock on p cores is the measured-task makespan plus the configured
per-job startup overhead, identical methodology to the Spark side.

The two MR jobs live in `repro.pipeline.stages_mapreduce` (the plan is
the ``mapreduce`` row of `repro.pipeline.STAGE_MANIFEST`); this class is
the thin frontend shim.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..mapreduce import JobStats
from ..obs.spans import NULL_TRACER, Tracer
from ..pipeline.config import RunConfig
from .core import ClusteringResult


@dataclass
class MRDBSCANResult(ClusteringResult):
    """ClusteringResult plus per-MR-job statistics."""
    job_stats: list[JobStats] = field(default_factory=list)

    def wall_on(self, slots: int) -> float:
        """End-to-end MR wall-clock on ``slots`` cores: both jobs plus
        the driver-side tree build."""
        return self.timings.kdtree_build + sum(s.wall(slots) for s in self.job_stats)


class MapReduceDBSCAN:
    """Two-round MapReduce DBSCAN (see module docstring).

    ``startup_overhead`` is charged once per MR job (two jobs per fit) —
    it models job submission / JVM spin-up, which our in-process runtime
    does not otherwise pay.  The default (1.0 s) is deliberately modest
    compared to real Hadoop; Figure 7's benchmark reports results both
    with and without it.
    """

    def __init__(
        self,
        eps: float,
        minpts: int,
        num_maps: int = 4,
        seed_policy: str = "all",
        startup_overhead: float = 1.0,
        leaf_size: int = 64,
        tmp_dir: str | None = None,
        tracer: Tracer | None = None,
        checkpoint_dir: str | None = None,
        resume: bool = False,
        fail_after: str | None = None,
    ):
        self.config = RunConfig(
            eps=eps,
            minpts=minpts,
            algorithm="mapreduce",
            num_partitions=num_maps,
            seed_policy=seed_policy,
            startup_overhead=startup_overhead,
            leaf_size=leaf_size,
            tmp_dir=tmp_dir or tempfile.mkdtemp(prefix="mrdbscan-"),
        )
        self.tracer = tracer or NULL_TRACER
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fail_after = fail_after

    @property
    def num_maps(self) -> int:
        """Map-task count (the MR name for ``num_partitions``)."""
        return self.config.num_partitions

    def __getattr__(self, name: str):
        if name in ("config", "__setstate__"):
            raise AttributeError(name)
        try:
            return getattr(self.config, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    def fit(self, points: np.ndarray, sc=None) -> MRDBSCANResult:
        """Run the clustering over the given points.

        ``sc`` exists only for frontend-contract uniformity; the
        MapReduce runtime has no Spark engine to lend, so it is unused.
        """
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
        state = runner.run(points, algo_label=type(self).__name__)
        job1_stats: JobStats = state.extras["job1_stats"]
        job2_stats: JobStats = state.extras["job2_stats"]
        merge_info = state.extras["mr_merge_info"]
        timings = state.timings
        timings.executor_task_durations = (
            job1_stats.map_task_durations + job2_stats.map_task_durations
        )
        timings.executor_total = (
            job1_stats.total_task_time + job2_stats.total_task_time
        )
        timings.executor_max = max(timings.executor_task_durations, default=0.0)
        return MRDBSCANResult(
            labels=state.labels,
            timings=timings,
            num_partial_clusters=int(merge_info.get("num_partials", 0)),
            num_merges=int(merge_info.get("num_merges", 0)),
            job_stats=[job1_stats, job2_stats],
        )
