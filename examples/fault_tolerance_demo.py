#!/usr/bin/env python
"""Fault tolerance — the paper's core argument for Spark over MPI.

Section I: with MPI "one failed process causes the whole job to be
failed".  Here we inject crashes into executor tasks mid-DBSCAN and
watch the engine retry them through lineage recomputation, with
exactly-once accumulator semantics keeping the partial clusters
uncorrupted.

    python examples/fault_tolerance_demo.py
"""

import numpy as np

from repro.data import generate_clustered
from repro.dbscan import SparkDBSCAN, clusterings_equivalent, dbscan_sequential
from repro.engine import FaultPlan, SparkContext


def executor_crash_demo(points: np.ndarray) -> None:
    print("=" * 60)
    print("Executor crashes mid-job (lineage recovery)")
    print("=" * 60)
    reference = dbscan_sequential(points, 25.0, 5)

    with SparkContext("simulated[4]") as sc:
        # Partitions 1 and 2 crash on their first two / one attempts.
        sc.fault_plan = FaultPlan(fail_attempts={(-1, 1): 2, (-1, 2): 1})
        result = SparkDBSCAN(25.0, 5, num_partitions=4).fit(points, sc=sc)
        attempts = sum(
            len(stage.task_metrics)
            for jm in sc.dag_scheduler.job_metrics
            for stage in jm.stages
        )
        failures = sum(
            1
            for jm in sc.dag_scheduler.job_metrics
            for stage in jm.stages
            for t in stage.task_metrics
            if not t.succeeded
        )

    print(f"task attempts: {attempts} ({failures} injected crashes, all retried)")
    ok, why = clusterings_equivalent(reference.labels, result.labels,
                                     points, 25.0, 5)
    print(f"clustering identical to crash-free run: {ok} ({why})")
    print(f"partial clusters delivered exactly once: "
          f"{result.num_partial_clusters}\n")
    assert ok and failures == 3


def main() -> None:
    data = generate_clustered(n=3000, num_clusters=5, cluster_std=8.0, seed=13)
    executor_crash_demo(data.points)


if __name__ == "__main__":
    main()
