"""Observability: structured span tracing, a metrics registry, and
trace-driven reports.

Four pieces (DESIGN.md §7):

- `spans` — `Tracer` / `Span`: nestable timed regions with labels,
  exported as Chrome trace-event JSON lines (Perfetto-loadable).  The
  module singleton `NULL_TRACER` is the zero-overhead default.
- `registry` — `MetricsRegistry` of labelled Counter/Gauge/Histogram
  instruments with Prometheus text exposition; `TaskMetrics` (run and
  CPU seconds, peak RSS, shuffle bytes per attempt) and `OpCounters`
  bridge in via `record_task_metrics`/`record_op_counters`.
- `report` — computes the paper's headline splits (Fig 5 kd-tree
  fraction, Fig 6 driver/executor time and partial-cluster counts,
  merge stats) directly from a trace, plus skew/straggler diagnostics
  and a text timeline renderer.
- `collect` — the distributed half: a picklable `WorkerTelemetry`
  buffer created inside executor workers, shipped back on the
  `TaskOutcome`, and merged into the driver tracer with worker pids
  preserved and timestamps rebased to the driver clock.
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
from .collect import WorkerTelemetry, merge_telemetry, task_span

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
    "WorkerTelemetry",
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
