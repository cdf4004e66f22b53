"""Task execution: what runs on an executor.

A `Task` bundles everything needed to compute one partition of one
stage: the stage's final RDD (with its narrow lineage), resolved
shuffle-input paths, a fault plan, and either a result function or
shuffle-write instructions.  `run_task` executes it against an
executor-local `BlockManager`, installing a `TaskContext` so that
accumulators and metrics behave with Spark semantics.

Worker processes get a process-global block manager, mirroring Spark's
one-block-manager-per-executor layout.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from . import task_context
from .errors import TaskError
from .fault import FaultPlan
from .metrics import TaskMetrics
from .rdd import RDD, TaskRuntime
from .storage import BlockManager


@dataclass
class Task:
    """Everything an executor needs to compute one partition of one stage."""
    job_id: int
    stage_id: int
    partition: int
    attempt: int
    rdd: RDD[Any]
    kind: str  # "result" | "shuffle_map"
    func: Callable[[int, Any], Any] | None = None      # result tasks
    partitioner: Any = None                             # shuffle-map tasks
    shuffle_id: int = -1
    bucket_dir: str = ""
    shuffle_inputs: dict[tuple[int, int], list[str]] = field(default_factory=dict)
    fault_plan: FaultPlan = field(default_factory=FaultPlan)
    sanitize: bool = False
    # Stamped by the TaskScheduler from run-level settings: ship a
    # WorkerTelemetry buffer back / profile resources / trace allocations.
    collect_telemetry: bool = False
    profile: bool = False
    profile_alloc: bool = False

    def __getstate__(self) -> dict[str, Any]:
        # Only the pickle is narrowed: retries and speculative duplicates
        # are `dataclasses.replace` copies of the driver's whole task.
        return {**self.__dict__, "rdd": self.rdd.for_split(self.partition)}


@dataclass
class TaskOutcome:
    """Result envelope of one task attempt."""
    stage_id: int
    partition: int
    attempt: int
    succeeded: bool
    value: Any = None
    error: str = ""
    metrics: TaskMetrics | None = None
    acc_updates: dict[int, Any] = field(default_factory=dict)
    map_output_paths: dict[int, str] = field(default_factory=dict)
    # Sanitizer violations are not retryable: the scheduler aborts the
    # job immediately, re-raising the error type named here.
    fatal: bool = False
    error_type: str = ""
    # Worker-side observability payloads, shipped back across the
    # process boundary and merged by the DAG scheduler.
    telemetry: Any = None  # repro.obs.collect.WorkerTelemetry | None
    profile: Any = None    # repro.obs.profile.TaskResourceProfile | None


def run_task(
    task: Task,
    block_manager: BlockManager,
    deserialize_s: float | None = None,
    deserialize_nbytes: int = 0,
) -> TaskOutcome:
    """Execute one task attempt; never raises — failures become outcomes.

    ``deserialize_s`` / ``deserialize_nbytes`` let a process-backend
    entry point report how long unpickling the task took; the time is
    grafted in as a ``task.deserialize`` span *before* the telemetry
    anchor (negative start), since the work predates the buffer.
    """
    metrics = TaskMetrics(task.stage_id, task.partition, task.attempt)
    metrics.worker_pid = os.getpid()
    telemetry = None
    if task.collect_telemetry:
        from ..obs.collect import WorkerTelemetry

        telemetry = WorkerTelemetry.create(
            tid=f"task-s{task.stage_id}p{task.partition}"
        )
        if deserialize_s is not None:
            telemetry.add_span(
                "task.deserialize", start=-deserialize_s, dur=deserialize_s,
                nbytes=deserialize_nbytes,
            )
    profiler = None
    if task.profile:
        from ..obs.profile import TaskProfiler

        profiler = TaskProfiler(alloc=task.profile_alloc)
        profiler.start()
    ctx = task_context.TaskContext(
        task.stage_id, task.partition, task.attempt, metrics,
        sanitize=task.sanitize, telemetry=telemetry,
    )
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        with task_context.activate(ctx):
            task.fault_plan.check(task.stage_id, task.partition, task.attempt)
            delay = task.fault_plan.delay_for(task.stage_id, task.partition)
            if delay > 0:
                time.sleep(delay)
            runtime = TaskRuntime(block_manager, task.shuffle_inputs)
            if task.kind == "result":
                assert task.func is not None
                value = task.func(task.partition, task.rdd.iterator(task.partition, runtime))
                map_paths: dict[int, str] = {}
            elif task.kind == "shuffle_map":
                from .shuffle import write_map_output

                records = task.rdd.iterator(task.partition, runtime)
                map_paths, nbytes = write_map_output(
                    task.bucket_dir,
                    task.shuffle_id,
                    task.partition,
                    records,
                    task.partitioner,
                )
                metrics.shuffle_bytes_written = nbytes
                value = None
            else:  # pragma: no cover - guarded by construction
                raise ValueError(f"unknown task kind {task.kind!r}")
            # Broadcast write-barrier: re-hash every broadcast this task
            # touched, *inside* the context so a mutation fails the task.
            ctx.verify_broadcasts()
        metrics.run_time = time.perf_counter() - start
        metrics.cpu_time = time.process_time() - cpu_start
        metrics.succeeded = True
        if telemetry is not None:
            telemetry.add_span(
                "task.run", start=start - telemetry.perf_anchor,
                dur=metrics.run_time, cpu_s=metrics.cpu_time,
                stage=task.stage_id, partition=task.partition,
                attempt=task.attempt,
            )
        return TaskOutcome(
            task.stage_id,
            task.partition,
            task.attempt,
            succeeded=True,
            value=value,
            metrics=metrics,
            acc_updates=dict(ctx.acc_updates),
            map_output_paths=map_paths,
            telemetry=telemetry,
            profile=profiler.stop() if profiler is not None else None,
        )
    except BaseException as exc:  # noqa: BLE001 - report, scheduler decides
        metrics.run_time = time.perf_counter() - start
        metrics.cpu_time = time.process_time() - cpu_start
        err = TaskError(task.stage_id, task.partition, task.attempt, exc)
        from .sanitize import SanitizerError

        if telemetry is not None:
            telemetry.add_span(
                "task.run", start=start - telemetry.perf_anchor,
                dur=metrics.run_time, cpu_s=metrics.cpu_time,
                stage=task.stage_id, partition=task.partition,
                attempt=task.attempt, failed=True,
            )
        return TaskOutcome(
            task.stage_id,
            task.partition,
            task.attempt,
            succeeded=False,
            error=str(err),
            metrics=metrics,
            fatal=isinstance(exc, SanitizerError),
            error_type=type(exc).__name__,
            telemetry=telemetry,
            profile=profiler.stop() if profiler is not None else None,
        )


# ---------------------------------------------------------------------------
# Worker-process entry points (process backend).  Each worker process keeps
# one block manager for its lifetime — "one per executor", like Spark.
# ---------------------------------------------------------------------------

_worker_block_manager: BlockManager | None = None


def _get_worker_block_manager() -> BlockManager:
    global _worker_block_manager
    if _worker_block_manager is None:
        _worker_block_manager = BlockManager()
    return _worker_block_manager


def process_entry(blob: bytes) -> bytes:
    """Run a cloudpickled Task in a worker process.

    Returns a pickled *envelope* ``(outcome_payload, trailer)`` where
    ``outcome_payload`` is the pickled `TaskOutcome` and ``trailer``
    carries the timing of pickling that outcome (``None`` when the task
    collected no telemetry).  Serialization necessarily happens *after*
    the outcome — and its telemetry buffer — is sealed, so the driver
    side (`ProcessBackend.run`) grafts the ``task.serialize`` span from
    the trailer once the outcome is unpickled.
    """
    import cloudpickle

    t0 = time.perf_counter()
    task: Task = cloudpickle.loads(blob)
    deserialize_s = time.perf_counter() - t0
    outcome = run_task(
        task, _get_worker_block_manager(),
        deserialize_s=deserialize_s if task.collect_telemetry else None,
        deserialize_nbytes=len(blob),
    )
    try:
        t1 = time.perf_counter()
        payload = cloudpickle.dumps(outcome)
    except Exception as exc:  # unpicklable result value
        fallback = TaskOutcome(
            task.stage_id,
            task.partition,
            task.attempt,
            succeeded=False,
            error=f"task result not serializable: {exc!r}",
            metrics=outcome.metrics,
            telemetry=outcome.telemetry,
            profile=outcome.profile,
        )
        t1 = time.perf_counter()
        payload = cloudpickle.dumps(fallback)
        outcome = fallback
    serialize_s = time.perf_counter() - t1
    trailer = None
    if outcome.telemetry is not None:
        trailer = {
            "start": t1 - outcome.telemetry.perf_anchor,
            "dur": serialize_s,
            "nbytes": len(payload),
        }
    return cloudpickle.dumps((payload, trailer))
