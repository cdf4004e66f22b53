"""Worker-side spans: each traced task attempt records into a `Tracer`
of its own, which ships back to the driver with the task's outcome.

The driver's `Tracer` lives in the driver process and is never pickled
into task closures.  When a run is traced (`Task.collect_telemetry`),
`repro.engine.executor.run_task` creates a fresh `Tracer` *inside* the
worker; task code brackets its sub-phases with `task_span`, which opens
``cat="worker"`` spans on it, nested as the code nests them.  The
tracer rides back on the `TaskOutcome` (it pickles without its lock and
span stack), where `merge_telemetry` grafts its spans into the driver
tracer — worker pid preserved, timestamps rebased to the driver clock —
so one Perfetto trace shows the whole run.

Clock rebase
------------
A tracer's span times are ``perf_counter()`` offsets from its creation
(`Tracer._origin`).  ``perf_counter`` is only meaningful within one
process, so every tracer also records the wall clock at the same
instant (`Tracer._origin_wall`).  At merge time::

    same process     base = worker._origin - tracer._origin
    other process    base = worker._origin_wall - tracer._origin_wall

and every worker span lands at ``base + span.start`` on the driver
tracer's timeline.  The cross-process path inherits wall-clock
granularity and any drift between ``time.time`` and ``perf_counter``
over the run — negligible (sub-millisecond) at task timescales, and
irrelevant for the same-pid path the thread/local/simulated backends
take.

Task code never imports the engine at module level here: the active
tracer is found through the thread-local `TaskContext`, imported
lazily, so this module stays importable from either side of the
``obs``/``engine`` boundary.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any

from .spans import _NULL_HANDLE, Tracer

__all__ = ["current_telemetry", "merge_telemetry", "task_span"]


def current_telemetry() -> Tracer | None:
    """The running task's tracer, or None (driver / untraced)."""
    # Imported lazily: repro.engine imports repro.obs.spans at module
    # level, so the reverse import must not run at obs import time.
    from ..engine import task_context

    ctx = task_context.get()
    return getattr(ctx, "telemetry", None) if ctx is not None else None


def task_span(name: str, **labels: Any):
    """Bracket a sub-phase of task code; no-op outside a traced task
    (costs one thread-local read).

    ::

        with task_span("task.kdtree_build", n=len(points)) as sp:
            tree = KDTree(points)
            sp.annotate(leaves=tree.num_leaves)
    """
    tracer = current_telemetry()
    if tracer is None:
        return _NULL_HANDLE
    return tracer.span(name, cat="worker", **labels)


def merge_telemetry(tracer: Tracer, worker: Tracer, pid: int, tid: str) -> None:
    """Graft one task attempt's worker spans into the driver tracer:
    rebased onto its timeline (see the module docstring), under the
    worker's ``pid`` on the task's lane ``tid``, nesting depth kept."""
    spans = worker.spans
    if not (tracer.enabled and spans):
        return
    if pid == os.getpid():
        base = worker._origin - tracer._origin
    else:
        base = worker._origin_wall - tracer._origin_wall
    grafted = [
        replace(s, start=base + s.start, end=base + s.end, pid=pid, tid=tid)
        for s in spans
    ]
    with tracer._lock:
        tracer._spans.extend(grafted)
