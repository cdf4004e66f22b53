"""Observability: structured span tracing, a metrics registry, and
trace-driven reports.

Four pieces (DESIGN.md §7), over one span type and one recorder:

- `spans` — `Tracer` / `Span`: nestable timed regions with labels,
  exported as Chrome trace-event JSON lines (Perfetto-loadable).  The
  module singleton `NULL_TRACER` is the zero-overhead default.  The
  driver and every traced executor task record into a `Tracer`; a
  fit's engine records go to the fit's tracer (`fit_scope`).
- `registry` — `MetricsRegistry` of labelled Counter/Gauge/Histogram
  instruments with Prometheus text exposition, filled by `fold_trace`
  from a fit's spans (task attempts with their CPU seconds and peak
  RSS, stage op counts, broadcast, merge and halo labels): the
  exposition is a fold of the trace, not a second recorder.
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
    fold_trace,
    parse_exposition,
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
    "fold_trace",
    "format_report",
    "format_skew_report",
    "load_trace",
    "merge_telemetry",
    "parse_exposition",
    "render_timeline",
    "task_span",
]
