"""DAG scheduler: lineage graph → stages → tasks.

Given the final RDD of an action, the scheduler walks the dependency
graph, cutting it into stages at `ShuffleDependency` edges (wide deps).
Parent (shuffle-map) stages materialize bucket files via the shuffle
manager; the result stage computes the action's function per partition.
Shuffle-stage outputs are reused across jobs, like Spark's map-output
tracker.

This mirrors the paper's description of Spark internals (Section II-B):
"Stages are a unit of execution ... generated by the DAGScheduler from
the graph of RDD dependencies."
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..obs.spans import NULL_TRACER, Tracer, routed
from .accumulator import AccumulatorRegistry
from .executor import Task, TaskOutcome
from .fault import FaultPlan
from .metrics import JobMetrics, StageMetrics
from .rdd import RDD, ShuffleDependency
from .shuffle import ShuffleManager
from .task_scheduler import TaskScheduler


@dataclass
class Stage:
    """A pipelined run of narrow transformations, cut at shuffle edges."""
    stage_id: int
    rdd: RDD[Any]
    shuffle_dep: ShuffleDependency | None = None  # None => result stage
    parents: list["Stage"] = field(default_factory=list)

    @property
    def is_shuffle_map(self) -> bool:
        """True for map-side (shuffle-writing) stages."""
        return self.shuffle_dep is not None

    @property
    def num_tasks(self) -> int:
        """One task per partition of the stage's RDD."""
        return self.rdd.num_partitions


def _shuffle_deps(rdd: RDD[Any]) -> list[ShuffleDependency]:
    """The shuffle edges feeding ``rdd``'s stage: walk the narrow deps
    (all 1:1, so a task's partition index carries over) up to each wide one."""
    found: list[ShuffleDependency] = []
    visited: set[int] = set()
    stack = [rdd]
    while stack:
        r = stack.pop()
        if r.rdd_id in visited:
            continue
        visited.add(r.rdd_id)
        for dep in r.deps:
            if isinstance(dep, ShuffleDependency):
                found.append(dep)
            else:
                stack.append(dep.parent)
    return found


class DAGScheduler:
    """Turns lineage graphs into stages and runs them in order."""
    def __init__(
        self,
        task_scheduler: TaskScheduler,
        shuffle_manager: ShuffleManager,
        accumulators: AccumulatorRegistry,
        tracer: Tracer = NULL_TRACER,
        sanitize: bool = False,
    ):
        self.task_scheduler = task_scheduler
        self.shuffle_manager = shuffle_manager
        self.accumulators = accumulators
        self.tracer = tracer
        self.sanitize = sanitize
        self._next_job_id = itertools.count()
        self._next_stage_id = itertools.count()
        self._completed_shuffles: set[int] = set()
        self.job_metrics: list[JobMetrics] = []

    # -- stage construction -------------------------------------------------
    def _build_stages(self, final_rdd: RDD[Any]) -> Stage:
        shuffle_stages: dict[int, Stage] = {}

        def parent_stages(rdd: RDD[Any]) -> list[Stage]:
            return [shuffle_stage(dep) for dep in _shuffle_deps(rdd)]

        def shuffle_stage(dep: ShuffleDependency) -> Stage:
            if dep.shuffle_id in shuffle_stages:
                return shuffle_stages[dep.shuffle_id]
            stage = Stage(next(self._next_stage_id), dep.parent, dep)
            shuffle_stages[dep.shuffle_id] = stage
            stage.parents = parent_stages(dep.parent)
            return stage

        result_stage = Stage(next(self._next_stage_id), final_rdd, None)
        result_stage.parents = parent_stages(final_rdd)
        return result_stage

    # -- shuffle input resolution --------------------------------------------
    def _resolve_shuffle_inputs(
        self, rdd: RDD[Any], partition: int
    ) -> dict[tuple[int, int], list[str]]:
        """Collect bucket paths for every ShuffledRDD inside this stage."""
        return {
            (dep.shuffle_id, partition): self.shuffle_manager.map_output_paths(
                dep.shuffle_id, dep.parent.num_partitions, partition
            )
            for dep in _shuffle_deps(rdd)
        }

    # -- execution ------------------------------------------------------------
    def run_job(
        self,
        final_rdd: RDD[Any],
        func: Callable[[int, Any], Any],
        fault_plan: FaultPlan | None = None,
    ) -> list[Any]:
        """Execute an action; returns per-partition results in order."""
        job_id = next(self._next_job_id)
        plan = fault_plan or FaultPlan()
        t0 = time.perf_counter()
        metrics = JobMetrics(job_id)
        tracer = routed(self.tracer)

        with tracer.span("engine.job", cat="engine", job_id=job_id) as job_span:
            result_stage = self._build_stages(final_rdd)

            # Topological run of ancestor shuffle stages.
            def run_stage_tree(stage: Stage) -> None:
                for parent in stage.parents:
                    run_stage_tree(parent)
                if stage.is_shuffle_map:
                    with tracer.span(
                        "engine.stage", cat="engine", job_id=job_id,
                        stage_id=stage.stage_id, kind="shuffle_map",
                        num_tasks=stage.num_tasks,
                    ):
                        self._run_shuffle_stage(job_id, stage, plan, metrics)

            for parent in result_stage.parents:
                run_stage_tree(parent)
            with tracer.span(
                "engine.stage", cat="engine", job_id=job_id,
                stage_id=result_stage.stage_id, kind="result",
                num_tasks=result_stage.num_tasks,
            ):
                outcomes = self._run_result_stage(
                    job_id, result_stage, func, plan, metrics
                )
            metrics.wall_time = time.perf_counter() - t0
            job_span.annotate(
                num_stages=len(metrics.stages),
                total_task_time=round(metrics.total_executor_time, 6),
            )
        self.job_metrics.append(metrics)
        return [outcomes[p].value for p in sorted(outcomes)]

    def _stage_metrics(self, metrics: JobMetrics, stage_id: int) -> StageMetrics:
        sm = StageMetrics(stage_id)
        metrics.stages.append(sm)
        return sm

    def _run_shuffle_stage(
        self, job_id: int, stage: Stage, plan: FaultPlan, metrics: JobMetrics
    ) -> None:
        dep = stage.shuffle_dep
        assert dep is not None
        if dep.shuffle_id in self._completed_shuffles:
            return
        sm = self._stage_metrics(metrics, stage.stage_id)
        bucket_dir = self.shuffle_manager.bucket_dir(dep.shuffle_id)
        tasks = [
            Task(
                job_id=job_id,
                stage_id=stage.stage_id,
                partition=p,
                attempt=0,
                rdd=stage.rdd,
                kind="shuffle_map",
                partitioner=dep.partitioner,
                shuffle_id=dep.shuffle_id,
                bucket_dir=bucket_dir,
                shuffle_inputs=self._resolve_shuffle_inputs(stage.rdd, p),
                fault_plan=plan,
                sanitize=self.sanitize,
            )
            for p in stage.rdd.partitions()
        ]
        completed = self.task_scheduler.run_task_set(
            tasks, on_outcome=lambda o: self._record(job_id, sm, o)
        )
        for p, outcome in completed.items():
            self.shuffle_manager.register_map_output(
                dep.shuffle_id, p, outcome.map_output_paths
            )
        self._completed_shuffles.add(dep.shuffle_id)

    def _run_result_stage(
        self,
        job_id: int,
        stage: Stage,
        func: Callable[[int, Any], Any],
        plan: FaultPlan,
        metrics: JobMetrics,
    ) -> dict[int, TaskOutcome]:
        sm = self._stage_metrics(metrics, stage.stage_id)
        tasks = [
            Task(
                job_id=job_id,
                stage_id=stage.stage_id,
                partition=p,
                attempt=0,
                rdd=stage.rdd,
                kind="result",
                func=func,
                shuffle_inputs=self._resolve_shuffle_inputs(stage.rdd, p),
                fault_plan=plan,
                sanitize=self.sanitize,
            )
            for p in stage.rdd.partitions()
        ]
        return self.task_scheduler.run_task_set(
            tasks, on_outcome=lambda o: self._record(job_id, sm, o)
        )

    def _record(self, job_id: int, sm: StageMetrics, outcome: TaskOutcome) -> None:
        """The one place a task attempt fans out: always into `JobMetrics`,
        into the running fit's (else this job's) trace when one is live."""
        tracer = routed(self.tracer)
        tm = outcome.metrics
        if tm is not None:
            sm.task_metrics.append(tm)
            if tracer.enabled:
                # Task attempts may have run in worker threads/processes or
                # the simulated backend; graft their measured durations into
                # the trace as one lane per partition.
                tracer.add_span(
                    f"task[s{tm.stage_id},p{tm.partition}]",
                    tm.run_time,
                    cat="engine",
                    tid=f"task-p{tm.partition}",
                    job_id=job_id,
                    stage_id=tm.stage_id,
                    partition=tm.partition,
                    attempt=tm.attempt,
                    succeeded=tm.succeeded,
                    shuffle_bytes_written=tm.shuffle_bytes_written,
                    shuffle_bytes_read=tm.shuffle_bytes_read,
                    worker_pid=tm.worker_pid,
                    cpu_time=tm.cpu_time,
                    peak_rss=tm.peak_rss,
                )
            if outcome.telemetry is not None:
                # Worker-side sub-phase spans: rebase onto the driver
                # clock, preserve the worker pid, one lane per task.
                from ..obs.collect import merge_telemetry

                merge_telemetry(
                    tracer, outcome.telemetry, tm.worker_pid,
                    f"task-s{tm.stage_id}p{tm.partition}",
                )
        if outcome.fatal:
            # A violation belongs to the context whose job ran the task;
            # the task scheduler re-raises it right after this returns.
            tracer.instant(
                "sanitizer.violation", cat="sanitizer", detail=outcome.error,
                error_type=outcome.error_type, stage_id=outcome.stage_id,
                partition=outcome.partition,
            )
        if outcome.succeeded:
            self.accumulators.apply_task_updates(
                job_id, outcome.stage_id, outcome.partition, outcome.acc_updates
            )
