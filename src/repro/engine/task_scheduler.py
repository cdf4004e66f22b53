"""Task scheduler: retries and speculative execution.

Spark retries a failed task (default 4 attempts) because lineage makes
recomputation safe; only after the retry budget is exhausted does the
job abort.  This is the property the paper contrasts with MPI, where
"one failed process causes the whole job to fail" (Section I) — and it
is exercised directly by the fault-injection tests.

Speculative execution attacks the paper's ``t_straggling`` term
(Section IV-C): when a straggler task runs far beyond the median of its
already-finished siblings, the scheduler launches a duplicate attempt
with the straggler's injected delay stripped (modelling placement on a
healthy executor); whichever attempt finishes first wins, and the
accumulator registry's exactly-once rule discards the loser's updates.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Callable

from ..obs.spans import NULL_TRACER, Tracer, routed
from . import sanitize
from .backends import Backend
from .errors import JobAbortedError
from .executor import Task, TaskOutcome
from .fault import FaultPlan


def _raise_sanitizer(outcome: TaskOutcome) -> None:
    """Re-raise a fatal sanitizer violation reported by a task.

    Sanitizer errors are not retryable (a mutated broadcast stays
    mutated), so the job aborts on the first one instead of burning the
    retry budget.  The original error type is reconstructed from the
    outcome so callers can catch e.g. `BroadcastMutationError` even when
    the task ran in a worker process.  The violation already reached
    this job's trace through `DAGScheduler._record`.
    """
    exc_type = sanitize.FATAL_ERROR_TYPES.get(
        outcome.error_type, sanitize.SanitizerError
    )
    raise exc_type(outcome.error)


class TaskScheduler:
    """Runs task sets with retries and optional speculation."""
    def __init__(
        self,
        backend: Backend,
        max_task_failures: int = 4,
        speculation: bool = False,
        speculation_multiplier: float = 2.0,
        tracer: Tracer = NULL_TRACER,
    ):
        if max_task_failures < 1:
            raise ValueError("max_task_failures must be >= 1")
        if speculation_multiplier <= 1.0:
            raise ValueError("speculation_multiplier must exceed 1.0")
        self.backend = backend
        self.max_task_failures = max_task_failures
        self.speculation = speculation
        self.speculation_multiplier = speculation_multiplier
        self.speculative_launches = 0
        self.tracer = tracer

    def run_task_set(
        self,
        tasks: list[Task],
        on_outcome: Callable[[TaskOutcome], None] | None = None,
    ) -> dict[int, TaskOutcome]:
        """Run all tasks; return the first successful outcome per partition.

        ``on_outcome`` observes every attempt (success or failure) — the
        DAG scheduler uses it to record metrics for all attempts.
        """
        tracer = routed(self.tracer)
        if tracer.enabled:  # worker tracers are only worth filling then
            # Stamp the run-level setting onto every task here, once —
            # retries go through dataclasses.replace and inherit it.
            tasks = [
                dataclasses.replace(t, collect_telemetry=True) for t in tasks
            ]
        by_partition = {t.partition: t for t in tasks}
        completed: dict[int, TaskOutcome] = {}
        pending = list(tasks)
        if self.speculation:
            pending = self._speculative_pass(pending, on_outcome, completed)
        while pending:
            retries: list[Task] = []
            for outcome in self.backend.run(pending):
                if on_outcome is not None:
                    on_outcome(outcome)
                if outcome.succeeded:
                    # Exactly-once per partition: a speculative duplicate
                    # success is dropped here.
                    completed.setdefault(outcome.partition, outcome)
                else:
                    if outcome.fatal:
                        _raise_sanitizer(outcome)
                    next_attempt = outcome.attempt + 1
                    if next_attempt >= self.max_task_failures:
                        raise JobAbortedError(
                            f"task for partition {outcome.partition} failed "
                            f"{next_attempt} times; last error: {outcome.error}"
                        )
                    original = by_partition[outcome.partition]
                    tracer.instant(
                        "task_retry", cat="engine",
                        stage_id=original.stage_id,
                        partition=outcome.partition, attempt=next_attempt,
                    )
                    retries.append(dataclasses.replace(original, attempt=next_attempt))
            pending = retries
        return completed

    def _speculative_pass(
        self,
        tasks: list[Task],
        on_outcome: Callable[[TaskOutcome], None] | None,
        completed: dict[int, TaskOutcome],
    ) -> list[Task]:
        """Identify stragglers by duration vs the median sibling and re-run
        them without their injected delay; returns tasks still unresolved
        (failures, handed back to the retry loop)."""
        outcomes: list[TaskOutcome] = []
        failures: list[Task] = []
        by_partition = {t.partition: t for t in tasks}
        for outcome in self.backend.run(tasks):
            if on_outcome is not None:
                on_outcome(outcome)
            outcomes.append(outcome)
        durations = [
            o.metrics.run_time for o in outcomes if o.succeeded and o.metrics
        ]
        median = statistics.median(durations) if durations else 0.0
        threshold = median * self.speculation_multiplier
        respawn: list[Task] = []
        for o in outcomes:
            if not o.succeeded:
                if o.fatal:
                    _raise_sanitizer(o)
                # Same retry budget as the main loop: requeueing here
                # without the check would grant failed tasks one extra
                # attempt whenever speculation is on.
                next_attempt = o.attempt + 1
                if next_attempt >= self.max_task_failures:
                    raise JobAbortedError(
                        f"task for partition {o.partition} failed "
                        f"{next_attempt} times; last error: {o.error}"
                    )
                failures.append(
                    dataclasses.replace(by_partition[o.partition], attempt=next_attempt)
                )
                continue
            if (
                median > 0
                and o.metrics is not None
                and o.metrics.run_time > threshold
            ):
                # Straggler: duplicate on a "healthy executor" — same task,
                # higher attempt number, injected delay removed.
                original = by_partition[o.partition]
                clean = dataclasses.replace(
                    original,
                    attempt=o.attempt + 1,
                    fault_plan=FaultPlan(fail_attempts=original.fault_plan.fail_attempts),
                )
                respawn.append(clean)
                self.speculative_launches += 1
                routed(self.tracer).instant(
                    "speculative_launch", cat="engine",
                    stage_id=original.stage_id, partition=o.partition,
                    attempt=o.attempt + 1,
                    straggler_run_time=round(o.metrics.run_time, 6),
                )
            completed.setdefault(o.partition, o)
        for o2 in self.backend.run(respawn) if respawn else []:
            if on_outcome is not None:
                on_outcome(o2)
            if not o2.succeeded and o2.fatal:
                _raise_sanitizer(o2)
            if o2.succeeded:
                prev = completed[o2.partition]
                if o2.metrics and prev.metrics and o2.metrics.run_time < prev.metrics.run_time:
                    completed[o2.partition] = o2
        return failures
