"""Exception hierarchy for the mini-Spark engine.

Mirrors the failure taxonomy that matters for the paper's discussion of
fault tolerance (Section II-B): task-level failures that the scheduler
retries, job-level failures surfaced to the driver, and fetch failures
during shuffle reads.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class TaskError(EngineError):
    """A task raised an exception while executing on an executor.

    Carries enough context for the task scheduler to decide whether to
    retry (lineage makes recomputation safe) or abort the job.
    """

    def __init__(self, stage_id: int, partition: int, attempt: int, cause: BaseException):
        self.stage_id = stage_id
        self.partition = partition
        self.attempt = attempt
        self.cause = cause
        super().__init__(
            f"task failed: stage={stage_id} partition={partition} "
            f"attempt={attempt}: {cause!r}"
        )


class JobAbortedError(EngineError):
    """A job was aborted after a task exhausted its retry budget."""

    def __init__(self, reason: str, cause: BaseException | None = None):
        self.reason = reason
        self.cause = cause
        super().__init__(reason)


class ShuffleFetchError(EngineError):
    """A reduce-side task failed to fetch a map output block."""

    def __init__(self, shuffle_id: int, map_partition: int, reduce_partition: int):
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition
        self.reduce_partition = reduce_partition
        super().__init__(
            f"missing shuffle output: shuffle={shuffle_id} "
            f"map={map_partition} reduce={reduce_partition}"
        )


class InjectedFault(EngineError):
    """Raised by the fault-injection layer to simulate an executor crash."""

    def __init__(self, description: str = "injected fault"):
        super().__init__(description)


class ContextStoppedError(EngineError):
    """An operation was attempted on a stopped SparkContext."""
