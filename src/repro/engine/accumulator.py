"""Accumulators: add-only shared variables merged at the driver.

Spark semantics (paper Section IV-B): tasks only *add* to an
accumulator through an associative operation; the driver observes the
merged value.  The paper uses an accumulator as a "writable" channel to
bring partial clusters back from executors to the driver — so unlike
the classic counter use-case, values here can be lists of cluster
objects.

Exactly-once guarantee: updates from a task attempt are applied only
when that attempt *succeeds*, and only the **first** successful attempt
per (stage, partition) is applied.  Retried or speculative duplicates
are discarded — this is tested explicitly, because double-counted
partial clusters would corrupt the DBSCAN merge phase.
"""

from __future__ import annotations

import operator
import threading
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")


class AccumulatorParam(Generic[T]):
    """Defines the zero value and the associative add for an accumulator."""

    def __init__(self, zero: Callable[[], T], add: Callable[[T, T], T]):
        self.zero = zero
        self.add = add


# Builtins and `operator.add`, not lambdas: C pickle ships them by
# reference, so a task holding an accumulator needs no cloudpickle.
INT_SUM = AccumulatorParam[int](zero=int, add=operator.add)
FLOAT_SUM = AccumulatorParam[float](zero=float, add=operator.add)
LIST_CONCAT = AccumulatorParam[list](zero=list, add=operator.add)


class Accumulator(Generic[T]):
    """Handle to an accumulator.

    On the driver, ``.value`` reads the merged total.  Inside a task the
    handle accumulates into a task-local buffer (keyed by accumulator
    id) that travels back with the task result.
    """

    def __init__(self, aid: int, param: AccumulatorParam[T], registry: "AccumulatorRegistry"):
        self.aid = aid
        self.param = param
        self._registry: AccumulatorRegistry | None = registry  # driver only

    def add(self, term: T) -> None:
        """Add one element."""
        from . import task_context

        ctx = task_context.get()
        if ctx is not None:
            ctx.accumulate(self.aid, self.param, term)
        elif self._registry is not None:
            self._registry.apply_direct(self.aid, term)
        else:
            raise RuntimeError("accumulator used outside both task and driver")

    def __iadd__(self, term: T) -> "Accumulator[T]":
        self.add(term)
        return self

    @property
    def value(self) -> T:
        """The current value (driver-only).

        A read inside a task raises `AccumulatorReadError` on every
        backend: on shared-memory backends it would otherwise observe
        half-merged driver state, on processes a registry-less copy.
        """
        return self._driver_registry().current_value(self.aid)

    def drain(self) -> T:
        """Hand the merged value over once (driver-only, like `value`):
        the registry keeps its zero value in its place, so what was
        collected lives only as long as the caller holds it."""
        return self._driver_registry().drain(self.aid)

    def _driver_registry(self) -> "AccumulatorRegistry":
        from . import task_context

        ctx = task_context.get()
        if ctx is not None:
            from .sanitize import AccumulatorReadError

            raise AccumulatorReadError(
                f"accumulator {self.aid} read inside task [{ctx.describe()}]; "
                "accumulators are write-only on executors — only the driver "
                "may read .value"
            )
        if self._registry is None:
            raise RuntimeError("accumulator value is only readable on the driver")
        return self._registry

    def __getstate__(self) -> dict[str, Any]:
        # Ship only the id + param to executors; the registry stays driver-side.
        return {"aid": self.aid, "param": self.param, "_registry": None}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)


class AccumulatorRegistry:
    """Driver-side store of accumulator values with exactly-once merging."""

    def __init__(self) -> None:
        self._values: dict[int, Any] = {}
        self._params: dict[int, AccumulatorParam[Any]] = {}
        self._applied: set[tuple[int, int, int]] = set()  # (job, stage, partition)
        self._next_id = 0
        self._lock = threading.Lock()

    def new_accumulator(self, param: AccumulatorParam[T]) -> Accumulator[T]:
        """Create an accumulator with the given param."""
        with self._lock:
            aid = self._next_id
            self._next_id += 1
            self._values[aid] = param.zero()
            self._params[aid] = param
        return Accumulator(aid, param, self)

    def current_value(self, aid: int) -> Any:
        """The merged value so far."""
        with self._lock:
            return self._values[aid]

    def drain(self, aid: int) -> Any:
        """The merged value so far, its slot reset to the zero value.
        The exactly-once keys stay: a late duplicate of a task that
        already reported still merges nothing."""
        with self._lock:
            value, self._values[aid] = self._values[aid], self._params[aid].zero()
        return value

    def apply_direct(self, aid: int, term: Any) -> None:
        """Driver-side add (outside any task)."""
        with self._lock:
            self._values[aid] = self._params[aid].add(self._values[aid], term)

    def apply_task_updates(
        self,
        job_id: int,
        stage_id: int,
        partition: int,
        updates: dict[int, Any],
    ) -> bool:
        """Merge a successful task's buffered updates.

        Returns False (and merges nothing) if an earlier successful
        attempt for the same (job, stage, partition) already reported —
        the exactly-once rule.
        """
        key = (job_id, stage_id, partition)
        with self._lock:
            if key in self._applied:
                return False
            self._applied.add(key)
            for aid, term in updates.items():
                if aid not in self._values:
                    # Accumulator created on an executor copy we never saw;
                    # refuse quietly rather than guess a zero/param.
                    continue
                self._values[aid] = self._params[aid].add(self._values[aid], term)
        return True
