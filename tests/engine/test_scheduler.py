"""DAG scheduler: stage cutting, shuffle reuse, retries, metrics."""

import operator

import pytest

from repro.engine import FaultPlan, JobAbortedError, SparkContext


class TestStageConstruction:
    def test_narrow_only_job_has_one_stage(self, sc):
        sc.parallelize(range(10), 2).map(lambda x: x).flat_map(lambda x: [x, x]).collect()
        assert len(sc.last_job_metrics.stages) == 1

    def test_shuffle_job_has_two_stages(self, sc):
        sc.parallelize([(1, 1)] * 4, 2).reduce_by_key(operator.add).collect()
        assert len(sc.last_job_metrics.stages) == 2

    def test_chained_shuffles_make_three_stages(self, sc):
        (
            sc.parallelize([(i % 2, i) for i in range(10)], 2)
            .reduce_by_key(operator.add)
            .map(lambda kv: (kv[1] % 3, 1))
            .reduce_by_key(operator.add)
            .collect()
        )
        assert len(sc.last_job_metrics.stages) == 3

    def test_shuffle_output_reused_across_jobs(self, sc):
        """Spark reuses map outputs; the second action must not re-run
        the shuffle-map stage."""
        r = sc.parallelize([(i % 3, 1) for i in range(9)], 3).reduce_by_key(
            operator.add
        )
        r.collect()
        first_stages = len(sc.last_job_metrics.stages)
        r.count()
        second_stages = len(sc.last_job_metrics.stages)
        assert first_stages == 2
        assert second_stages == 1  # map side skipped

    def test_diamond_lineage(self, sc):
        """An RDD two lineages branch off computes correctly under both."""
        base = sc.parallelize(range(10), 2).map(lambda x: x + 1)
        left = base.map(lambda x: x * 2)
        right = base.map(lambda x: x * 3)
        assert left.collect() == [(x + 1) * 2 for x in range(10)]
        assert right.collect() == [(x + 1) * 3 for x in range(10)]

    def test_result_order_matches_partition_order(self, sc):
        chunks = sc.parallelize(range(12), 4).map_partitions(lambda it: [list(it)]).collect()
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]


class TestRetries:
    def test_flaky_task_recovers(self, sc):
        sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 3})
        assert sc.parallelize(range(8), 4).collect() == list(range(8))

    def test_permanent_failure_aborts(self):
        with SparkContext("simulated[2]", max_task_failures=3) as sc:
            sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 100})
            with pytest.raises(JobAbortedError) as exc:
                sc.parallelize(range(4), 2).collect()
            assert "failed 3 times" in str(exc.value)

    def test_user_exception_aborts_with_cause(self, sc):
        def boom(x):
            raise RuntimeError("user bug")

        with pytest.raises(JobAbortedError) as exc:
            sc.parallelize([1], 1).map(boom).collect()
        assert "user bug" in str(exc.value)

    def test_failure_in_shuffle_map_stage_recovers(self, sc):
        sc.fault_plan = FaultPlan(fail_attempts={(0, 1): 1})
        got = dict(
            sc.parallelize([(i % 2, 1) for i in range(8)], 2)
            .reduce_by_key(operator.add)
            .collect()
        )
        assert got == {0: 4, 1: 4}

    def test_retry_attempt_metrics_recorded(self, sc):
        sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 1})
        sc.parallelize(range(4), 2).collect()
        stage = sc.last_job_metrics.stages[0]
        # 2 partitions + 1 failed attempt = 3 recorded task attempts
        assert len(stage.task_metrics) == 3
        assert sum(1 for t in stage.task_metrics if not t.succeeded) == 1


class TestMetrics:
    def test_wall_time_positive(self, sc):
        sc.parallelize(range(10), 2).collect()
        m = sc.last_job_metrics
        assert m.wall_time > 0
        assert m.total_executor_time >= 0

    def test_task_durations_one_per_partition(self, sc):
        sc.parallelize(range(40), 8).map(lambda x: x * x).collect()
        assert len(sc.last_job_metrics.task_durations()) == 8

    def test_straggler_delay_visible_in_task_duration(self, sc):
        sc.fault_plan = FaultPlan(delays={(-1, 1): 0.05})
        sc.parallelize(range(4), 2).collect()
        durations = sc.last_job_metrics.stages[0].task_durations()
        assert durations[1] >= 0.05
        assert durations[0] < 0.05

    def test_simulated_wall_uses_slots(self, sc):
        sc.fault_plan = FaultPlan(delays={(-1, 0): 0.03, (-1, 1): 0.03})
        sc.parallelize(range(4), 2).collect()
        m = sc.last_job_metrics
        two_slots = m.simulated_wall(2)
        one_slot = m.simulated_wall(1)
        assert one_slot >= two_slots
        assert one_slot >= 0.06

    def test_no_jobs_yet_raises(self):
        with SparkContext("simulated[2]") as sc:
            with pytest.raises(ValueError):
                _ = sc.last_job_metrics
