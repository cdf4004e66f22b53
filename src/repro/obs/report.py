"""Trace reports: the paper's headline splits computed from spans.

The whole point of the span layer is that Figure 5 (kd-tree fraction),
Figure 6 (driver vs executor split, partial-cluster counts) and the
merge-graph statistics fall out of one trace instead of ad-hoc timers:

- **kd-tree fraction** — ``driver.kdtree_build`` over the whole run
  (build + executor work + merge), the exact denominator Figure 5 uses;
- **driver vs executor** — sum of top-level ``cat="driver"`` spans vs
  the ``cat="executor"`` per-partition expansion spans (their max is
  the parallel executor wall-clock, paper configuration one partition
  per core);
- **partials / merge stats** — carried as labels on the expansion and
  ``driver.merge`` spans;
- **jobs table and skew** — one fold over the engine's task-attempt
  spans, keyed by (job, stage, partition), gives the per-job/per-stage
  summary (tasks, failed attempts, task seconds, shuffle bytes) and
  the per-partition costs of the heaviest job-stage.

`TraceReport.from_events` consumes the Chrome trace events written by
`Tracer.write_jsonl`, so it works identically on a live tracer
(``TraceReport.from_tracer``) and on a file read back from disk
(``repro trace t.jsonl``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .spans import Tracer, iter_complete_events

__all__ = [
    "JobRow",
    "StageRow",
    "TraceReport",
    "format_report",
    "format_skew_report",
    "render_timeline",
]

#: Span names considered driver-side algorithm phases.  Anything with
#: ``cat="driver"`` counts; this ordering is only used for display.
DRIVER_PHASE_ORDER = (
    "driver.load",
    "driver.kdtree_build",
    "driver.setup",
    "driver.broadcast",
    "driver.accumulator_drain",
    "driver.merge",
    "driver.apply_labels",
    "driver.relabel",
)


def _contains(outer: dict[str, Any], inner: dict[str, Any]) -> bool:
    """True iff ``outer`` strictly contains ``inner`` in time on one lane."""
    if outer is inner or outer.get("tid") != inner.get("tid"):
        return False
    o0, o1 = outer["ts"], outer["ts"] + outer["dur"]
    i0, i1 = inner["ts"], inner["ts"] + inner["dur"]
    return o0 <= i0 and i1 <= o1 and (o1 - o0) > (i1 - i0)


@dataclass
class StageRow:
    """One stage of the jobs table, folded from its task-attempt spans."""

    failed_attempts: int = 0
    total_task_s: float = 0.0         # successful attempts, duplicates included
    max_task_s: float = 0.0
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    # partition -> (seconds, worker pid) of its winning (fastest
    # successful) attempt, matching StageMetrics.task_durations under
    # speculation; retries' failed attempts never enter.
    winners: dict[int, tuple[float, int]] = field(default_factory=dict)

    @property
    def num_tasks(self) -> int:
        """Distinct partitions with a successful attempt."""
        return len(self.winners)


@dataclass
class JobRow:
    """One job of the jobs table: its wall-clock and its stages."""

    wall_s: float = 0.0               # the ``engine.job`` span
    stages: dict[int, StageRow] = field(default_factory=dict)

    @property
    def failed_attempts(self) -> int:
        """Failed task attempts across the job's stages."""
        return sum(s.failed_attempts for s in self.stages.values())


@dataclass
class TraceReport:
    """Headline numbers extracted from one run's span trace."""

    wall_s: float = 0.0               # trace extent: max end − min start
    kdtree_build_s: float = 0.0
    driver_s: float = 0.0             # top-level cat="driver" spans
    executor_total_s: float = 0.0     # sum of cat="executor" spans
    executor_max_s: float = 0.0       # slowest executor span
    engine_task_s: float = 0.0        # cat="engine" task-attempt spans
    num_executor_spans: int = 0
    num_spans: int = 0                # all complete events folded in
    driver_phases: dict[str, float] = field(default_factory=dict)
    partials_by_partition: dict[int, int] = field(default_factory=dict)
    merge_stats: dict[str, Any] = field(default_factory=dict)
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    broadcast_bytes: int = 0
    # -- distributed telemetry (PR 7): worker sub-phases + skew ------------
    worker_phase_s: dict[str, float] = field(default_factory=dict)
    worker_pids: list[int] = field(default_factory=list)
    # -- the jobs table: engine.context instant + job/stage/attempt spans --
    app_name: str = "?"
    master: str = "?"
    jobs: dict[int, JobRow] = field(default_factory=dict)
    # partition -> winning successful attempt's seconds / worker pid, for
    # the job-stage whose winning attempts sum largest (the expansion)
    partition_costs: dict[int, float] = field(default_factory=dict)
    partition_pids: dict[int, int] = field(default_factory=dict)
    halo_stats: dict[str, Any] = field(default_factory=dict)

    # -- derived ------------------------------------------------------------
    @property
    def whole_s(self) -> float:
        """Figure 5's denominator: build + executor work + merge."""
        return (
            self.kdtree_build_s
            + self.executor_total_s
            + self.driver_phases.get("driver.merge", 0.0)
        )

    @property
    def kdtree_fraction(self) -> float:
        """kd-tree build / whole DBSCAN (Figure 5)."""
        return self.kdtree_build_s / self.whole_s if self.whole_s else 0.0

    @property
    def kdtree_permille(self) -> float:
        """Figure 5's unit: per-mille of the whole run."""
        return 1000.0 * self.kdtree_fraction

    @property
    def total_partials(self) -> int:
        """Partial clusters across all partitions (Figure 6)."""
        return sum(self.partials_by_partition.values())

    @property
    def is_empty(self) -> bool:
        """True when no complete span event was folded in (an empty
        trace, or one holding only instant/metadata events)."""
        return self.num_spans == 0

    @property
    def imbalance_ratio(self) -> float:
        """Skew: slowest partition over the mean partition cost.

        1.0 is perfectly balanced; a ratio of r means the parallel
        executor wall-clock is r× the balanced ideal — the number the
        paper's Fig 8 speedup losses reduce to.
        """
        costs = list(self.partition_costs.values())
        if not costs:
            return 0.0
        mean = sum(costs) / len(costs)
        return max(costs) / mean if mean > 0 else 0.0

    @property
    def makespan_s(self) -> float:
        """Critical path at one partition per core: the slowest
        partition's winning task time bounds the stage wall-clock."""
        return max(self.partition_costs.values(), default=0.0)

    @property
    def straggler_partition(self) -> int | None:
        """Partition on the critical path (None without task costs)."""
        if not self.partition_costs:
            return None
        return max(self.partition_costs, key=self.partition_costs.__getitem__)

    @property
    def halo_overhead_fraction(self) -> float:
        """Cell plan: replicated halo bytes over total shipped payload."""
        halo = float(self.halo_stats.get("halo_nbytes", 0))
        payload = float(self.halo_stats.get("payload_nbytes", 0))
        return halo / payload if payload > 0 else 0.0

    @classmethod
    def from_events(cls, events: list[dict[str, Any]]) -> "TraceReport":
        """Fold Chrome trace events into a report.

        Total on an empty (or instant-only) trace: returns the explicit
        empty report (``is_empty``) rather than raising.
        """
        xs = list(iter_complete_events(events))
        report = cls()
        if not xs:
            return report
        min_start = min(e["ts"] for e in xs)
        max_end = max(e["ts"] + e["dur"] for e in xs)
        # Extent of the trace, not distance from t=0: merged worker
        # traces (and any trimmed trace) legitimately start after 0.
        report.wall_s = (max_end - min_start) / 1e6
        report.num_spans = len(xs)
        driver = [e for e in xs if e.get("cat") == "driver"]
        for e in xs:
            name = e.get("name", "?")
            cat = e.get("cat", "")
            dur_s = e["dur"] / 1e6
            args = e.get("args") or {}
            if cat == "driver":
                # Sum only top-level driver spans: a nested driver span
                # (driver.broadcast inside driver.setup) is already
                # counted by its parent.
                if not any(_contains(o, e) for o in driver):
                    report.driver_s += dur_s
                report.driver_phases[name] = (
                    report.driver_phases.get(name, 0.0) + dur_s
                )
                if name == "driver.kdtree_build":
                    report.kdtree_build_s += dur_s
                if name == "driver.merge":
                    report.merge_stats = {
                        k: v for k, v in args.items()
                        if k not in ("cpu_ms", "depth")
                    }
                if name == "driver.broadcast":
                    report.broadcast_bytes += int(args.get("nbytes", 0))
                if name == "driver.setup":
                    for k in ("halo_nbytes", "payload_nbytes", "halo_points"):
                        if k in args:
                            report.halo_stats[k] = args[k]
            elif cat == "executor":
                report.executor_total_s += dur_s
                report.executor_max_s = max(report.executor_max_s, dur_s)
                report.num_executor_spans += 1
                if "partition" in args and "partials" in args:
                    p = int(args["partition"])
                    report.partials_by_partition[p] = (
                        report.partials_by_partition.get(p, 0)
                        + int(args["partials"])
                    )
            elif cat == "engine":
                written = int(args.get("shuffle_bytes_written", 0))
                read = int(args.get("shuffle_bytes_read", 0))
                report.shuffle_bytes_written += written
                report.shuffle_bytes_read += read
                # A hand-built trace without job/stage labels is one group.
                job_id = int(args.get("job_id", 0))
                if name == "engine.context":
                    report.app_name = str(args.get("app_name", "?"))
                    report.master = str(args.get("master", "?"))
                elif name == "engine.job":
                    report.jobs.setdefault(job_id, JobRow()).wall_s = dur_s
                elif name.startswith("task["):  # an attempt; instants are not
                    report.engine_task_s += dur_s
                    if "partition" not in args:
                        continue
                    job = report.jobs.setdefault(job_id, JobRow())
                    stage = job.stages.setdefault(
                        int(args.get("stage_id", 0)), StageRow())
                    stage.shuffle_bytes_written += written
                    stage.shuffle_bytes_read += read
                    if not args.get("succeeded", True):
                        stage.failed_attempts += 1
                        continue
                    stage.total_task_s += dur_s
                    stage.max_task_s = max(stage.max_task_s, dur_s)
                    p = int(args["partition"])
                    if p not in stage.winners or dur_s < stage.winners[p][0]:
                        stage.winners[p] = (dur_s, int(args.get("worker_pid", 0)))
            elif cat == "worker":
                report.worker_phase_s[name] = (
                    report.worker_phase_s.get(name, 0.0) + dur_s
                )
                pid = int(e.get("pid", 0))
                if pid and pid not in report.worker_pids:
                    report.worker_pids.append(pid)
        # The skew numbers describe the job-stage whose winning attempts
        # sum largest — the expansion, not a later sub-millisecond pass.
        heaviest = max(
            (s.winners for j in report.jobs.values() for s in j.stages.values()),
            key=lambda w: sum(cost for cost, _ in w.values()), default={},
        )
        for p, (cost, pid) in sorted(heaviest.items()):
            report.partition_costs[p] = cost
            if pid:
                report.partition_pids[p] = pid
        report.worker_pids.sort()
        return report

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "TraceReport":
        """Report directly off a live tracer's spans."""
        return cls.from_events(tracer.to_events())


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def format_report(report: TraceReport) -> str:
    """Render the headline splits as text."""
    lines = ["=== trace report ==="]
    if report.is_empty:
        lines.append("(no spans)")
        return "\n".join(lines)
    lines.append(f"wall span              {_fmt_s(report.wall_s)}")
    lines.append(
        f"kd-tree build          {_fmt_s(report.kdtree_build_s)}  "
        f"({report.kdtree_permille:.2f} permille of whole — Fig 5)"
    )
    lines.append(
        f"driver time            {_fmt_s(report.driver_s)}  "
        f"(top-level driver phases — Fig 6)"
    )
    lines.append(
        f"executor time          {_fmt_s(report.executor_total_s)} total / "
        f"{_fmt_s(report.executor_max_s)} max over "
        f"{report.num_executor_spans} partition tasks"
    )
    if report.engine_task_s:
        lines.append(f"engine task attempts   {_fmt_s(report.engine_task_s)}")
    if report.shuffle_bytes_written or report.shuffle_bytes_read:
        lines.append(
            f"shuffle bytes          {report.shuffle_bytes_written} written / "
            f"{report.shuffle_bytes_read} read"
        )
    if report.broadcast_bytes:
        lines.append(f"broadcast bytes        {report.broadcast_bytes}")
    ordered = [n for n in DRIVER_PHASE_ORDER if n in report.driver_phases]
    ordered += [n for n in sorted(report.driver_phases) if n not in ordered]
    if ordered:
        lines.append("")
        lines.append("driver phases:")
        for name in ordered:
            lines.append(f"  {name:<28} {_fmt_s(report.driver_phases[name])}")
    if report.partials_by_partition:
        lines.append("")
        lines.append(
            f"partial clusters: {report.total_partials} total "
            f"across {len(report.partials_by_partition)} partitions"
        )
        for p in sorted(report.partials_by_partition):
            lines.append(f"  partition {p:<4} {report.partials_by_partition[p]}")
    if report.worker_phase_s:
        lines.append("")
        pids = ", ".join(str(p) for p in report.worker_pids) or "driver"
        lines.append(f"worker task phases (pids: {pids}):")
        for name in sorted(report.worker_phase_s):
            lines.append(
                f"  {name:<28} {_fmt_s(report.worker_phase_s[name])}"
            )
    if report.merge_stats:
        lines.append("")
        lines.append("merge: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.merge_stats.items())
        ))
    if report.jobs:
        tasks = sum(
            s.num_tasks for j in report.jobs.values() for s in j.stages.values()
        )
        lines.append("")
        lines.append(f"application: {report.app_name} (master={report.master})")
        lines.append(f"jobs: {len(report.jobs)}   tasks: {tasks}")
        lines.append(f"{'job':>4} {'stages':>6} {'wall':>9} {'failures':>8}")
        for job_id, job in sorted(report.jobs.items()):
            lines.append(
                f"{job_id:>4} {len(job.stages):>6} {_fmt_s(job.wall_s):>9} "
                f"{job.failed_attempts:>8}"
            )
            for stage_id, stage in sorted(job.stages.items()):
                line = (
                    f"     stage {stage_id}: {stage.num_tasks} tasks, "
                    f"{_fmt_s(stage.total_task_s)} total, "
                    f"{_fmt_s(stage.max_task_s)} max"
                )
                if stage.shuffle_bytes_written:
                    line += f", {stage.shuffle_bytes_written} shuffle bytes written"
                if stage.shuffle_bytes_read:
                    line += f", {stage.shuffle_bytes_read} shuffle bytes read"
                lines.append(line)
    return "\n".join(lines)


def format_skew_report(report: TraceReport, width: int = 40) -> str:
    """Per-partition cost table with skew/straggler diagnostics.

    Partition costs come from the winning successful task attempt of
    each partition (engine spans), so the table reflects what actually
    bounded the stage — speculation losers and retries are excluded.
    """
    lines = ["=== skew report ==="]
    if not report.partition_costs:
        lines.append("(no per-partition task spans in trace)")
        return "\n".join(lines)
    costs = report.partition_costs
    worst = max(costs.values())
    mean = sum(costs.values()) / len(costs)
    lines.append(
        f"{len(costs)} partitions, makespan {_fmt_s(report.makespan_s)} "
        f"(critical path: partition {report.straggler_partition})"
    )
    lines.append(
        f"imbalance ratio        {report.imbalance_ratio:.2f}x "
        f"(max/mean; 1.00x = balanced)"
    )
    lines.append(
        f"balanced ideal         {_fmt_s(mean)} per partition "
        f"-> {_fmt_s(worst - mean)} lost to skew"
    )
    lines.append("")
    lines.append(f"{'partition':<10} {'task time':>10} {'pid':>8}  cost")
    for p, cost in costs.items():
        bar = "#" * max(1, int(width * cost / worst)) if worst > 0 else ""
        pid = report.partition_pids.get(p, 0) or "-"
        flag = "  <- straggler" if p == report.straggler_partition else ""
        lines.append(
            f"{p:<10} {_fmt_s(cost):>10} {pid!s:>8}  {bar}{flag}"
        )
    if report.worker_phase_s:
        lines.append("")
        lines.append("worker phase totals:")
        for name in sorted(report.worker_phase_s):
            lines.append(
                f"  {name:<28} {_fmt_s(report.worker_phase_s[name])}"
            )
    if report.halo_stats:
        lines.append("")
        halo = int(report.halo_stats.get("halo_nbytes", 0))
        payload = int(report.halo_stats.get("payload_nbytes", 0))
        lines.append(
            f"halo overhead: {halo} of {payload} payload bytes replicated "
            f"({100.0 * report.halo_overhead_fraction:.1f}%)"
        )
    return "\n".join(lines)


def render_timeline(events: list[dict[str, Any]], width: int = 60) -> str:
    """ASCII timeline: one row per span, bars proportional to duration.

    Rows are grouped by lane (``tid``) and ordered by start time;
    nesting (from the exported ``depth`` arg) indents the span name.
    """
    xs = sorted(
        iter_complete_events(events),
        key=lambda e: (
            e.get("tid", "driver") != "driver", str(e.get("tid", "driver")),
            e["ts"],
        ),
    )
    if not xs:
        return "(no spans)"
    t1 = max(e["ts"] + e["dur"] for e in xs)
    t1 = max(t1, 1e-9)
    name_w = min(
        44,
        max(
            len("  " * int((e.get("args") or {}).get("depth", 0)) + e.get("name", "?"))
            for e in xs
        ),
    )
    lines = [f"timeline ({_fmt_s(t1 / 1e6)} total, {len(xs)} spans)"]
    last_tid = None
    for e in xs:
        tid = str(e.get("tid", "driver"))
        if tid != last_tid:
            lines.append(f"-- lane {tid} --")
            last_tid = tid
        depth = int((e.get("args") or {}).get("depth", 0))
        label = ("  " * depth + e.get("name", "?"))[:name_w]
        lo = int(width * e["ts"] / t1)
        hi = int(width * (e["ts"] + e["dur"]) / t1)
        hi = max(hi, lo + 1)
        bar = " " * lo + "#" * (hi - lo) + " " * (width - hi)
        lines.append(f"{label:<{name_w}} |{bar}| {_fmt_s(e['dur'] / 1e6)}")
    return "\n".join(lines)
