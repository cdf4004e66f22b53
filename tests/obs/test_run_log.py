"""One run log: the trace of a real engine run tells the job, skew and
fault story, and agrees with the always-on `JobMetrics` record."""

import numpy as np
import pytest

from repro.dbscan import SparkDBSCAN
from repro.engine import FaultPlan, SparkContext
from repro.obs import TraceReport, Tracer, load_trace

EPS, MINPTS = 25.0, 5


class TestSkewNumbersFromTheEngine:
    def test_edges_mode_costs_are_the_expansion_jobs(self, blobs_medium):
        # Edges mode runs two jobs over the same partitions; the skew
        # numbers must describe the expansion, not ApplyGidMap's pass.
        tracer = Tracer()
        res = SparkDBSCAN(
            EPS, MINPTS, num_partitions=4, master="simulated[4]",
            merge_mode="edges", tracer=tracer,
        ).fit(blobs_medium.points)
        report = TraceReport.from_tracer(tracer)
        assert len(report.jobs) == 2
        durations = res.timings.executor_task_durations
        assert list(report.partition_costs) == [0, 1, 2, 3]
        assert list(report.partition_costs.values()) == pytest.approx(
            durations, abs=2e-6  # span timestamps round to the nanosecond
        )
        assert report.makespan_s == pytest.approx(report.executor_max_s, abs=2e-6)
        assert report.makespan_s == pytest.approx(res.timings.executor_max, abs=2e-6)

    def test_retried_partition_costs_its_successful_attempt(self):
        tracer = Tracer()
        with SparkContext("simulated[4]", tracer=tracer) as sc:
            sc.fault_plan = FaultPlan(fail_attempts={(0, 1): 1})
            sc.parallelize(range(4000), 4).map(lambda x: x * x).count()
            stage = sc.last_job_metrics.stages[0]
        won = [t for t in stage.task_metrics if t.partition == 1 and t.succeeded]
        assert len(won) == 1 and won[0].attempt == 1
        report = TraceReport.from_tracer(tracer)
        assert report.partition_costs[1] == pytest.approx(won[0].run_time, abs=2e-6)
        assert report.partition_costs[1] > 0.0
        assert report.jobs[0].failed_attempts == 1
        assert report.jobs[0].stages[0].num_tasks == 4


@pytest.mark.parametrize("speculation", [False, True])
@pytest.mark.parametrize("master", ["simulated[4]", "processes[2]"])
def test_one_trace_tells_the_fault_story(master, speculation, blobs_small, tmp_path):
    points = blobs_small.points
    plain = SparkDBSCAN(EPS, MINPTS, num_partitions=4, master=master).fit(points)

    tracer = Tracer()
    with SparkContext(master, speculation=speculation, tracer=tracer) as sc:
        sc.fault_plan = FaultPlan(fail_attempts={(-1, 2): 1})
        faulty = SparkDBSCAN(EPS, MINPTS, num_partitions=4).fit(points, sc=sc)
        recorded = sc.dag_scheduler.job_metrics
    assert np.array_equal(faulty.labels, plain.labels)

    report = TraceReport.from_tracer(tracer)
    assert report.master == master
    assert sorted(report.jobs) == [jm.job_id for jm in recorded]
    for jm in recorded:
        job = report.jobs[jm.job_id]
        assert sorted(job.stages) == [sm.stage_id for sm in jm.stages]
        assert job.wall_s == pytest.approx(jm.wall_time, abs=0.01)
        for sm in jm.stages:
            row = job.stages[sm.stage_id]
            failed = sum(not t.succeeded for t in sm.task_metrics)
            assert (row.num_tasks, row.failed_attempts) == (sm.num_tasks, failed)
            assert row.total_task_s == pytest.approx(sm.total_task_time, abs=1e-5)
            slowest = max(t.run_time for t in sm.task_metrics if t.succeeded)
            assert row.max_task_s == pytest.approx(slowest, abs=1e-5)
    assert sum(j.failed_attempts for j in report.jobs.values()) == 1

    path = str(tmp_path / "trace.jsonl")
    tracer.write_jsonl(path)
    assert TraceReport.from_events(load_trace(path)).jobs == report.jobs
