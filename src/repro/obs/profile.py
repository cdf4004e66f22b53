"""Opt-in per-task resource profiling: wall vs CPU, peak RSS, allocations.

`TaskProfiler` brackets one task body inside the worker and produces a
picklable `TaskResourceProfile` that rides back on the `TaskOutcome`
next to the span telemetry:

- **wall vs CPU** — ``time.perf_counter`` against ``time.process_time``;
  a task whose CPU time is far below its wall time is waiting (GIL,
  page cache, pickle I/O), not computing.
- **peak RSS** — ``resource.getrusage(RUSAGE_SELF).ru_maxrss``, the OS
  high-water mark for the whole process.  It is monotonic per process,
  so per-task deltas are only meaningful for the *first* task to touch
  a new peak; the report layer aggregates with max, not sum.  Linux
  reports KiB, macOS bytes — normalised to bytes here.  Platforms
  without the ``resource`` module (Windows) degrade to 0.
- **allocation peak** — ``tracemalloc`` traced-memory high-water mark,
  opt-in separately (``profile_alloc``) because instrumenting the
  allocator costs ~2× on allocation-heavy code, far above the ≤5%
  budget of the default profile.  Worker processes may run several
  profiled tasks concurrently under the threads backend, so start/stop
  is refcounted behind a module lock, and tracing started by someone
  else (the user's own tracemalloc session) is never stopped.

Everything here measures the *environment* of a task, not its inputs;
none of it feeds task output, so its clock reads cannot make a retried
or speculative attempt's labels differ.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any

try:
    import resource
except ImportError:  # pragma: no cover - not available on Windows
    resource = None  # type: ignore[assignment]

__all__ = [
    "TaskProfiler",
    "TaskResourceProfile",
    "peak_rss_bytes",
    "record_task_profile",
]

# tracemalloc is process-global: refcount concurrent profiled tasks
# (threads backend) so the first starts tracing and the last stops it.
_TRACEMALLOC_LOCK = threading.Lock()
_tracemalloc_users = 0
_tracemalloc_external = False


def peak_rss_bytes() -> int:
    """Process peak resident set size in bytes (0 where unsupported)."""
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024  # Linux reports KiB; macOS reports bytes
    return int(peak)


@dataclass
class TaskResourceProfile:
    """Resource footprint of one task attempt (picklable)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_rss_bytes: int = 0       # process high-water mark after the task
    alloc_peak_bytes: int = 0    # tracemalloc peak during the task
    alloc_tracked: bool = False  # False when profile_alloc was off


class TaskProfiler:
    """Measures one task body; use ``start()`` / ``stop()`` around it.

    ``stop()`` is safe to call on the failure path too — the profile of
    a task that raised is still shipped, which is exactly when the
    memory numbers are most interesting.
    """

    def __init__(self, alloc: bool = False):
        self._alloc = alloc
        self._t0 = 0.0
        self._cpu0 = 0.0
        self._started = False

    def start(self) -> None:
        global _tracemalloc_users, _tracemalloc_external
        if self._alloc:
            with _TRACEMALLOC_LOCK:
                if _tracemalloc_users == 0:
                    # Respect a session the user started themselves.
                    _tracemalloc_external = tracemalloc.is_tracing()
                    if not _tracemalloc_external:
                        tracemalloc.start()
                _tracemalloc_users += 1
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._started = True

    def stop(self) -> TaskResourceProfile:
        if not self._started:
            return TaskResourceProfile()
        profile = TaskResourceProfile(
            wall_s=time.perf_counter() - self._t0,
            cpu_s=time.process_time() - self._cpu0,
            max_rss_bytes=peak_rss_bytes(),
        )
        if self._alloc:
            global _tracemalloc_users
            with _TRACEMALLOC_LOCK:
                if tracemalloc.is_tracing():
                    _, peak = tracemalloc.get_traced_memory()
                    profile.alloc_peak_bytes = int(peak)
                    profile.alloc_tracked = True
                _tracemalloc_users -= 1
                if _tracemalloc_users == 0 and not _tracemalloc_external:
                    tracemalloc.stop()
        self._started = False
        return profile


def record_task_profile(
    registry: Any,
    profile: TaskResourceProfile,
    *,
    stage: int,
    partition: int,
) -> None:
    """Aggregate one task's resource profile into the metrics registry.

    CPU time is a histogram per stage (distribution matters for skew);
    memory peaks are gauges aggregated with max — RSS is a process
    high-water mark and summing it would double-count.
    """
    registry.histogram(
        "repro_task_cpu_seconds",
        "CPU seconds per task attempt.",
        ("stage",),
    ).observe(profile.cpu_s, stage=str(stage))
    if profile.max_rss_bytes:
        gauge = registry.gauge(
            "repro_task_peak_rss_bytes",
            "Peak worker RSS observed after a task (bytes, max-aggregated).",
            ("stage", "partition"),
        )
        labels = {"stage": str(stage), "partition": str(partition)}
        if profile.max_rss_bytes > gauge.value(**labels):
            gauge.set(profile.max_rss_bytes, **labels)
    if profile.alloc_tracked:
        gauge = registry.gauge(
            "repro_task_alloc_peak_bytes",
            "Peak tracemalloc-traced allocation during a task (bytes, "
            "max-aggregated).",
            ("stage", "partition"),
        )
        labels = {"stage": str(stage), "partition": str(partition)}
        if profile.alloc_peak_bytes > gauge.value(**labels):
            gauge.set(profile.alloc_peak_bytes, **labels)
