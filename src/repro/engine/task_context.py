"""Per-task execution context (thread-local), like Spark's TaskContext.

Carries the task's identity, its metrics object, and the task-local
accumulator buffer.  `Accumulator.add` resolves through this so that
updates made inside executor code are buffered and shipped back with
the task result instead of mutating driver state mid-flight.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from .accumulator import AccumulatorParam
from .metrics import TaskMetrics

_tls = threading.local()


@dataclass
class TaskContext:
    """Identity, metrics, and accumulator buffer of the running task."""
    stage_id: int
    partition: int
    attempt: int
    metrics: TaskMetrics
    acc_updates: dict[int, Any] = field(default_factory=dict)
    _acc_params: dict[int, AccumulatorParam[Any]] = field(default_factory=dict)
    sanitize: bool = False
    # The task's worker `Tracer` when the run is traced; task code
    # reaches it through repro.obs.collect.task_span, never directly.
    telemetry: Any = None
    # bid -> (broadcast handle, the value object this task observed);
    # re-verified against the broadcast-time hash at task end.
    _broadcasts: dict[int, tuple[Any, Any]] = field(default_factory=dict)

    def accumulate(self, aid: int, param: AccumulatorParam[Any], term: Any) -> None:
        """Buffer an accumulator update for this task."""
        if aid in self.acc_updates:
            self.acc_updates[aid] = param.add(self.acc_updates[aid], term)
        else:
            self.acc_updates[aid] = param.add(param.zero(), term)
            self._acc_params[aid] = param

    def describe(self) -> str:
        """Task identity for sanitizer messages."""
        return (
            f"stage={self.stage_id} partition={self.partition} "
            f"attempt={self.attempt}"
        )

    def note_broadcast(self, broadcast: Any, value: Any) -> None:
        """Remember a broadcast touched by this task (write-barrier)."""
        self._broadcasts.setdefault(broadcast.bid, (broadcast, value))

    def verify_broadcasts(self) -> None:
        """Re-hash every touched broadcast; raise on mutation."""
        for broadcast, value in self._broadcasts.values():
            broadcast.verify(value, self.describe())


def get() -> TaskContext | None:
    """The TaskContext of the currently-running task, or None on the driver."""
    return getattr(_tls, "ctx", None)


def set_context(ctx: TaskContext | None) -> None:
    """Install (or clear) the current thread's TaskContext."""
    _tls.ctx = ctx


class activate:
    """Context manager installing a TaskContext for the current thread."""

    def __init__(self, ctx: TaskContext):
        self._ctx = ctx
        self._prev: TaskContext | None = None

    def __enter__(self) -> TaskContext:
        self._prev = get()
        set_context(self._ctx)
        return self._ctx

    def __exit__(self, *exc: object) -> None:
        set_context(self._prev)
