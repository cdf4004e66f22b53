"""Task execution: what runs on an executor.

A `Task` bundles everything needed to compute one partition of one
stage: the stage's final RDD (with its narrow lineage), resolved
shuffle-input paths, a fault plan, and either a result function or
shuffle-write instructions.  `run_task` executes it against an
executor-local `BlockManager`, installing a `TaskContext` so that
accumulators and metrics behave with Spark semantics.

Worker processes get a process-global block manager, mirroring Spark's
one-block-manager-per-executor layout, renewed for each context they
serve (`serve`).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..obs.spans import Tracer
from . import task_context
from .broadcast import _drop_cached, _reset_process_cache
from .errors import TaskError
from .fault import FaultPlan
from .metrics import TaskMetrics, peak_rss_bytes
from .rdd import RDD, TaskRuntime
from .storage import BlockManager

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


#: The `Task` fields every task of a stage shares (`Task.stage_part`).
_STAGE_FIELDS = ("rdd", "func", "partitioner")


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
    # Stamped by the TaskScheduler when a tracer is live: record the
    # task's sub-phases on a worker `Tracer` shipped back with the outcome.
    collect_telemetry: bool = False

    def stage_part(self) -> tuple[RDD[Any], Callable[[int, Any], Any] | None, Any]:
        """What every task of this stage shares, as Spark's "task binary":
        the stripped lineage (`RDD.stripped`), ``func`` and
        ``partitioner``."""
        return self.rdd.stripped(), self.func, self.partitioner

    def own_part(self) -> tuple[dict[str, Any], dict[int, Any]]:
        """What only this task ships: its other fields and its split's
        source data.  Retries and speculative duplicates are
        `dataclasses.replace` copies of the driver's whole task."""
        fields = {k: v for k, v in vars(self).items() if k not in _STAGE_FIELDS}
        return fields, self.rdd.split_data(self.partition)

    @classmethod
    def assemble(
        cls,
        stage: tuple[RDD[Any], Callable[[int, Any], Any] | None, Any],
        own: tuple[dict[str, Any], dict[int, Any]],
    ) -> "Task":
        """The task a `stage_part` and an `own_part` were taken from; the
        lineage is refilled in place."""
        rdd, func, partitioner = stage
        fields, data = own
        rdd.refill(fields["partition"], data)
        return cls(rdd=rdd, func=func, partitioner=partitioner, **fields)


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
    # The attempt's worker tracer, shipped back across the process
    # boundary and merged into the trace by the DAG scheduler.
    telemetry: Tracer | None = None


def run_task(
    task: Task,
    block_manager: BlockManager,
    deserialize_s: float | None = None,
    deserialize_nbytes: int = 0,
) -> TaskOutcome:
    """Execute one task attempt; never raises — failures become outcomes.

    Every attempt, failed or not, comes back with its `TaskMetrics`:
    run and CPU seconds over the same window and the worker's peak RSS
    after it.  ``deserialize_s`` / ``deserialize_nbytes`` let a
    process-backend entry point report how long unpickling the task
    took; the time is grafted in as a ``task.deserialize`` span *before*
    the worker tracer's origin (negative start), since the work predates
    the tracer.
    """
    metrics = TaskMetrics(task.stage_id, task.partition, task.attempt)
    metrics.worker_pid = os.getpid()
    telemetry = None
    if task.collect_telemetry:
        telemetry = Tracer()
        if deserialize_s is not None:
            telemetry.add_span(
                "task.deserialize", deserialize_s, cat="worker",
                start=-deserialize_s, nbytes=deserialize_nbytes,
            )
    ctx = task_context.TaskContext(
        task.stage_id, task.partition, task.attempt, metrics,
        sanitize=task.sanitize, telemetry=telemetry,
    )
    failure: BaseException | None = None
    value: Any = None
    map_paths: dict[int, str] = {}
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
            else:  # pragma: no cover - guarded by construction
                raise ValueError(f"unknown task kind {task.kind!r}")
            # Broadcast write-barrier: re-hash every broadcast this task
            # touched, *inside* the context so a mutation fails the task.
            ctx.verify_broadcasts()
    except BaseException as exc:  # noqa: BLE001 - report, scheduler decides
        failure = exc
    metrics.run_time = time.perf_counter() - start
    metrics.cpu_time = time.process_time() - cpu_start
    metrics.peak_rss = peak_rss_bytes()
    metrics.succeeded = failure is None
    if telemetry is not None:
        telemetry.add_span(
            "task.run", metrics.run_time, cat="worker",
            start=start - telemetry._origin, cpu_s=metrics.cpu_time,
            stage=task.stage_id, partition=task.partition,
            attempt=task.attempt, **({} if failure is None else {"failed": True}),
        )
    if failure is None:
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
        )
    from .sanitize import SanitizerError

    return TaskOutcome(
        task.stage_id,
        task.partition,
        task.attempt,
        succeeded=False,
        error=str(TaskError(task.stage_id, task.partition, task.attempt, failure)),
        metrics=metrics,
        fatal=isinstance(failure, SanitizerError),
        error_type=type(failure).__name__,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# Worker-process entry points (process backend).  Each worker process keeps
# one block manager per lease — "one per executor", like Spark.  A worker
# outlives the context that forked it (the backend hands its pool on to
# the next context), so it serves one lease after another.
# ---------------------------------------------------------------------------

_worker_block_manager: BlockManager | None = None


def serve(conn: Connection) -> None:
    """A worker process's loop, until the driver closes its end of
    ``conn``.  A task message is ``((evicted, released), binary, part)``:
    the worker drops the cached blocks of the ``evicted`` RDD ids and the
    values of the ``released`` broadcast keys, runs the task and sends
    back its envelope.  ``None`` ends the lease: the worker drops
    what the stopped context left in it and sends nothing."""
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            _end_lease()
            continue
        (evicted, released), binary, part = message
        for rdd_id in evicted:
            _get_worker_block_manager().evict(rdd_id)
        for key in released:
            _drop_cached(key)
        try:
            reply: tuple[Any, Any] = process_entry(binary, part)
        except Exception as exc:  # the task did not unpickle here
            reply = (None, exc)
        try:
            conn.send(reply)
        except OSError:  # the driver stopped waiting for this attempt
            return


def _get_worker_block_manager() -> BlockManager:
    global _worker_block_manager
    if _worker_block_manager is None:
        _worker_block_manager = BlockManager()
    return _worker_block_manager


def _end_lease() -> None:
    """Drop every broadcast value and cached block, so nothing of a
    stopped context stays in an idle worker or reaches the next one."""
    global _worker_block_manager
    _worker_block_manager = None
    _reset_process_cache()


def dumps(obj: Any) -> tuple[bytes, str]:
    """``obj`` pickled for the other side of the process boundary, and
    the codec that did it: C `pickle` at the highest protocol, or
    ``cloudpickle`` when C pickle raises (a lambda, a local function, a
    lock) or its bytes name ``__main__``.  A kept worker forked before a
    ``__main__`` definition cannot resolve it by reference; cloudpickle
    ships it by value.  Either way the bytes decode with `pickle.loads`."""
    try:
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        if b"__main__" not in data:
            return data, "pickle"
    except (pickle.PicklingError, AttributeError, TypeError):
        pass   # a lambda, a local object, a lock: cloudpickle or raise
    import cloudpickle

    return cloudpickle.dumps(obj, pickle.HIGHEST_PROTOCOL), "cloudpickle"


def process_entry(binary: bytes, part: bytes) -> tuple[bytes, dict[str, Any] | None]:
    """Run a task in a worker process from its stage's pickled
    `Task.stage_part` (``binary``) and its own `Task.own_part`
    (``part``).  Both are unpickled for every task, so each attempt gets
    its own copy of the stage's closure.

    Returns an *envelope* ``(outcome_payload, trailer)`` where
    ``outcome_payload`` is the outcome encoded by `dumps` and ``trailer``
    carries the time and the codec of that encoding (``None`` when the
    task was not traced).  Serialization necessarily happens *after* the
    outcome — and its worker tracer — is sealed, so the driver
    side (`backends._unpack`) grafts the ``task.serialize`` span from
    the trailer once the outcome is unpickled.
    """
    t0 = time.perf_counter()
    task = Task.assemble(pickle.loads(binary), pickle.loads(part))
    deserialize_s = time.perf_counter() - t0
    outcome = run_task(
        task, _get_worker_block_manager(),
        deserialize_s=deserialize_s if task.collect_telemetry else None,
        deserialize_nbytes=len(binary) + len(part),
    )
    try:
        t1 = time.perf_counter()
        payload, codec = dumps(outcome)
    except Exception as exc:  # unpicklable result value
        fallback = TaskOutcome(
            task.stage_id,
            task.partition,
            task.attempt,
            succeeded=False,
            error=f"task result not serializable: {exc!r}",
            metrics=outcome.metrics,
            telemetry=outcome.telemetry,
        )
        t1 = time.perf_counter()
        payload, codec = dumps(fallback)
        outcome = fallback
    serialize_s = time.perf_counter() - t1
    trailer = None
    if outcome.telemetry is not None:
        trailer = {
            "start": t1 - outcome.telemetry._origin,
            "dur": serialize_s,
            "nbytes": len(payload),
            "codec": codec,
        }
    return payload, trailer
