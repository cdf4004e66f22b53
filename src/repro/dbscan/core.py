"""Shared DBSCAN types: label conventions and result objects.

Label conventions follow the classic implementation:

- ``>= 0``            cluster id
- ``NOISE`` (-1)      noise point
- ``UNCLASSIFIED`` (-2) internal sentinel, never present in final output
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NOISE = -1
UNCLASSIFIED = -2


@dataclass
class Timings:
    """Driver/executor wall-clock split (paper Figures 6 and 8).

    ``executor_task_durations`` holds each partition task's measured
    run time; with one partition per core (the paper's setup) the
    executor-side parallel wall-clock is their max.
    """

    kdtree_build: float = 0.0
    setup: float = 0.0            # driver: data transform + broadcast
    executor_total: float = 0.0   # sum of task durations (total work)
    executor_max: float = 0.0     # max task duration (parallel wall-clock)
    driver_merge: float = 0.0     # driver: SEED digging + merging
    wall: float = 0.0             # real end-to-end wall-clock
    executor_task_durations: list[float] = field(default_factory=list)

    @property
    def driver_time(self) -> float:
        """All driver-side time: tree build + setup + merge."""
        return self.kdtree_build + self.setup + self.driver_merge

    def charge_executors(self, durations: list[float]) -> None:
        """Charge the executor side with these per-task durations."""
        self.executor_task_durations = durations
        self.executor_total = sum(durations)
        self.executor_max = max(durations, default=0.0)

    def parallel_wall(self) -> float:
        """Virtual wall-clock with one core per partition: driver time plus
        the slowest executor."""
        return self.driver_time + self.executor_max


@dataclass
class ClusteringResult:
    """Outcome of a DBSCAN run."""

    labels: np.ndarray           # (n,) int64
    timings: Timings = field(default_factory=Timings)
    num_partial_clusters: int = 0
    num_seeds: int = 0
    num_merges: int = 0

    @property
    def n(self) -> int:
        """Number of points."""
        return int(self.labels.shape[0])

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters."""
        labels = self.labels
        return int(np.unique(labels[labels >= 0]).size)

    @property
    def num_noise(self) -> int:
        """Number of noise points."""
        return int(np.count_nonzero(self.labels == NOISE))

    def cluster_sizes(self) -> dict[int, int]:
        """Mapping cluster id -> member count."""
        ids, counts = np.unique(self.labels[self.labels >= 0], return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def summary(self) -> str:
        """One-line human-readable result summary."""
        return (
            f"{self.num_clusters} clusters, {self.num_noise} noise points "
            f"out of {self.n} (partial clusters: {self.num_partial_clusters}, "
            f"wall {self.timings.wall:.3f}s)"
        )
