"""Task/stage/job metrics and the measured-makespan model.

The paper's evaluation needs a clean split between time spent in
executors and time spent in the driver (Figures 6 and 8).  Every task
records its own wall-clock duration; job-level aggregation then offers
both the *sum* of executor time (total work) and the *makespan* on a
given number of slots (simulated parallel wall-clock), which is how the
`simulated` backend reproduces 512-core speedup curves on a laptop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class TaskMetrics:
    """Timing and accounting for a single task attempt."""

    stage_id: int
    partition: int
    attempt: int = 0
    run_time: float = 0.0          # seconds spent executing user code
    cpu_time: float = 0.0          # process_time delta over the same window
    worker_pid: int = 0            # OS pid the attempt ran in
    records_read: int = 0
    records_written: int = 0
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    succeeded: bool = False


@dataclass
class StageMetrics:
    """Aggregated metrics for one stage."""

    stage_id: int
    task_metrics: list[TaskMetrics] = field(default_factory=list)

    @property
    def total_task_time(self) -> float:
        """Sum of successful attempts' run times."""
        return sum(t.run_time for t in self.task_metrics if t.succeeded)

    @property
    def num_tasks(self) -> int:
        """Distinct partitions attempted."""
        return len({t.partition for t in self.task_metrics})

    def task_durations(self) -> list[float]:
        """Per-partition duration of the *winning* successful attempt.

        Normally there is one success per partition; under speculative
        execution the faster duplicate defines the partition's
        completion time, hence the min.
        """
        best: dict[int, float] = {}
        for t in self.task_metrics:
            if t.succeeded and t.run_time < best.get(t.partition, float("inf")):
                best[t.partition] = t.run_time
        return [best[p] for p in sorted(best)]


@dataclass
class JobMetrics:
    """Metrics for one job (one action)."""

    job_id: int
    stages: list[StageMetrics] = field(default_factory=list)
    wall_time: float = 0.0          # real wall-clock of the action
    scheduling_time: float = 0.0    # driver-side DAG/scheduling overhead

    @property
    def total_executor_time(self) -> float:
        """Sum of task time across all stages."""
        return sum(s.total_task_time for s in self.stages)

    def task_durations(self) -> list[float]:
        """Winning per-partition durations across all stages."""
        out: list[float] = []
        for s in self.stages:
            out.extend(s.task_durations())
        return out

    def simulated_wall(self, slots: int, straggler_wait: float = 0.0) -> float:
        """Virtual parallel wall-clock on ``slots`` cores (see `makespan`)."""
        total = 0.0
        for s in self.stages:
            total += makespan(s.task_durations(), slots) + straggler_wait
        return total


def makespan(durations: list[float], slots: int) -> float:
    """LPT (longest-processing-time-first) makespan of tasks on ``slots`` slots.

    When the number of tasks equals the number of slots — the paper's
    configuration, one partition per core — this degenerates to
    ``max(durations)``, exactly the executor-side wall clock the paper
    reports.  For oversubscribed runs LPT is the classic 4/3-approximate
    greedy schedule, adequate for reproducing speedup *shape*.
    """
    if not durations:
        return 0.0
    if slots <= 0:
        raise ValueError(f"slots must be positive, got {slots}")
    if len(durations) <= slots:
        return max(durations)
    loads = [0.0] * slots
    for d in sorted(durations, reverse=True):
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


class Stopwatch:
    """Tiny context-manager stopwatch used throughout the benchmarks."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed += time.perf_counter() - self._start
