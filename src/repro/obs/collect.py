"""Worker-side telemetry: task spans and metric deltas shipped cross-process.

After PR 2 the span layer stopped at the scheduler boundary: under the
``processes`` backend every task ran as one opaque block, because the
driver's `Tracer` lives in the driver process and cannot be (and must
not be) pickled into task closures.  This module is the distributed
half: a picklable `WorkerTelemetry` buffer is created *inside* the
worker by `repro.engine.executor.run_task`, task code brackets its
sub-phases with `task_span`, and the buffer rides back to the driver
attached to the `TaskOutcome`, where `merge_telemetry` grafts the spans
into the driver tracer — worker pid preserved, timestamps rebased to
the driver clock — so one Perfetto trace shows the whole run.

Clock rebase
------------
Worker spans are recorded as ``perf_counter()`` offsets from the
buffer's creation instant (``perf_anchor``).  ``perf_counter`` is only
meaningful within one process, so the buffer also records the wall
clock at the same instant (``wall_anchor``); the driver tracer records
its own pair (`Tracer._origin` / `Tracer._origin_wall`).  At merge
time::

    same process     base = telemetry.perf_anchor - tracer._origin
    other process    base = telemetry.wall_anchor - tracer._origin_wall

and every span lands at ``base + span.start`` on the tracer timeline.
The cross-process path inherits wall-clock granularity and any drift
between ``time.time`` and ``perf_counter`` over the run — negligible
(sub-millisecond) at task timescales, and irrelevant for the same-pid
fast path the thread/local/simulated backends take.

Task code never imports the engine at module level here: the active
buffer is found through the thread-local `TaskContext`, imported
lazily, so this module stays importable from either side of the
``obs``/``engine`` boundary.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from .spans import _NULL_HANDLE, Tracer

__all__ = [
    "WorkerSpan",
    "WorkerTelemetry",
    "current_telemetry",
    "merge_telemetry",
    "task_span",
]


@dataclass
class WorkerSpan:
    """One timed sub-phase recorded inside a worker task (picklable)."""

    name: str
    start: float            # seconds since the telemetry anchor (may be < 0)
    dur: float
    cpu_s: float = 0.0
    cat: str = "worker"
    labels: dict[str, Any] = field(default_factory=dict)

    def annotate(self, **labels: Any) -> "WorkerSpan":
        """Attach labels; returns self for chaining (Span-compatible)."""
        self.labels.update(labels)
        return self


class _WorkerSpanHandle:
    """Context manager recording one `WorkerSpan` on a telemetry buffer."""

    __slots__ = ("_telemetry", "_span", "_t0", "_cpu0")

    def __init__(self, telemetry: "WorkerTelemetry", span: WorkerSpan):
        self._telemetry = telemetry
        self._span = span
        self._t0 = 0.0
        self._cpu0 = 0.0

    def __enter__(self) -> WorkerSpan:
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._span.start = self._t0 - self._telemetry.perf_anchor
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span.dur = time.perf_counter() - self._t0
        self._span.cpu_s = time.process_time() - self._cpu0
        self._telemetry.spans.append(self._span)


@dataclass
class WorkerTelemetry:
    """Picklable per-task telemetry buffer created inside the worker.

    Carries the worker's pid, the two clock anchors (see module
    docstring), the recorded sub-phase spans, and buffered counter
    deltas destined for the driver's metrics registry.
    """

    pid: int
    wall_anchor: float      # time.time() at creation — cross-process rebase
    perf_anchor: float      # perf_counter() at creation — same-process rebase
    tid: str = "worker"
    spans: list[WorkerSpan] = field(default_factory=list)
    # (metric name, help text, amount, labels) — folded into counters.
    metric_deltas: list[tuple[str, str, float, dict[str, Any]]] = field(
        default_factory=list
    )

    @classmethod
    def create(cls, tid: str = "worker") -> "WorkerTelemetry":
        """New buffer anchored to this process's clocks, right now."""
        return cls(
            pid=os.getpid(),
            wall_anchor=time.time(),  # clock-rebase anchor, not task output
            perf_anchor=time.perf_counter(),
            tid=tid,
        )

    def now(self) -> float:
        """Seconds since the anchor (this process only)."""
        return time.perf_counter() - self.perf_anchor

    def span(self, name: str, **labels: Any) -> _WorkerSpanHandle:
        """Open a timed sub-phase; use as a context manager."""
        return _WorkerSpanHandle(
            self, WorkerSpan(name=name, start=0.0, dur=0.0, labels=labels)
        )

    def add_span(
        self,
        name: str,
        start: float,
        dur: float,
        cpu_s: float = 0.0,
        **labels: Any,
    ) -> WorkerSpan:
        """Record an externally measured sub-phase.  ``start`` is seconds
        relative to the anchor; negative values (work done before the
        buffer existed, e.g. task deserialization) are legal."""
        span = WorkerSpan(name=name, start=start, dur=dur, cpu_s=cpu_s,
                          labels=labels)
        self.spans.append(span)
        return span

    def inc(self, name: str, amount: float = 1.0, help: str = "",
            **labels: Any) -> None:
        """Buffer a counter increment to apply at the driver registry."""
        self.metric_deltas.append((name, help, float(amount), labels))

    def phase_totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.dur
        return totals


def current_telemetry() -> WorkerTelemetry | None:
    """The running task's telemetry buffer, or None (driver / untraced)."""
    # Imported lazily: repro.engine imports repro.obs.spans at module
    # level, so the reverse import must not run at obs import time.
    from ..engine import task_context

    ctx = task_context.get()
    return getattr(ctx, "telemetry", None) if ctx is not None else None


def task_span(name: str, **labels: Any):
    """Bracket a sub-phase of task code; no-op outside a telemetry-
    collecting task (costs one thread-local read).

    ::

        with task_span("task.kdtree_build", n=len(points)) as sp:
            tree = KDTree(points)
            sp.annotate(leaves=tree.num_leaves)
    """
    telemetry = current_telemetry()
    if telemetry is None:
        return _NULL_HANDLE
    return telemetry.span(name, **labels)


def merge_telemetry(
    tracer: Tracer,
    telemetry: WorkerTelemetry,
    registry: Any = None,
) -> None:
    """Fold one task's worker telemetry into the driver-side stores.

    Spans are grafted into ``tracer`` rebased to its timeline with the
    worker pid preserved (see module docstring for the two-anchor
    scheme); buffered metric deltas are folded into ``registry``.
    """
    if tracer.enabled and telemetry.spans:
        if telemetry.pid == os.getpid():
            base = telemetry.perf_anchor - tracer._origin
        else:
            base = telemetry.wall_anchor - tracer._origin_wall
        for ws in telemetry.spans:
            tracer.add_span(
                ws.name, ws.dur, cat=ws.cat, tid=telemetry.tid,
                start=base + ws.start, pid=telemetry.pid, cpu_s=ws.cpu_s,
                **ws.labels,
            )
    if registry is not None:
        for name, help_text, amount, labels in telemetry.metric_deltas:
            registry.counter(
                name, help_text, tuple(sorted(labels))
            ).inc(amount, **labels)
