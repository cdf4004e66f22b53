"""Observability: structured span tracing, a metrics registry, and
trace-driven reports.

Four pieces (DESIGN.md §7), over one span type:

- `spans` — `Tracer` / `Span`: nestable timed regions with labels,
  exported as Chrome trace-event JSON lines (Perfetto-loadable).  The
  module singleton `NULL_TRACER` is the zero-overhead default.  The
  driver and every traced executor task record into a `Tracer`.
- `registry` — `MetricsRegistry` of labelled Counter/Gauge/Histogram
  instruments with Prometheus text exposition; `TaskMetrics` (run and
  CPU seconds, peak RSS, shuffle bytes per attempt) and `OpCounters`
  bridge in via `record_task_metrics`/`record_op_counters`.
- `report` — computes the paper's headline splits (Fig 5 kd-tree
  fraction, Fig 6 driver/executor time and partial-cluster counts,
  merge stats) directly from a trace, plus skew/straggler diagnostics
  and a text timeline renderer; `repro trace` prints all three.
- `collect` — the distributed half: `task_span` records a task's
  sub-phases on the worker `Tracer` created inside the executor, which
  ships back on the `TaskOutcome` and is merged into the driver tracer
  with worker pids preserved and timestamps rebased to the driver
  clock.
"""

from .spans import NULL_TRACER, NullTracer, Span, Tracer, load_trace
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    record_op_counters,
    record_task_metrics,
)
from .report import (
    TraceReport,
    format_report,
    format_skew_report,
    render_timeline,
)
from .collect import merge_telemetry, task_span

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "TraceReport",
    "Tracer",
    "format_report",
    "format_skew_report",
    "load_trace",
    "merge_telemetry",
    "parse_exposition",
    "record_op_counters",
    "record_task_metrics",
    "render_timeline",
    "task_span",
]
