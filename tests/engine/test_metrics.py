"""Metrics aggregation, the peak-RSS read and the measured-makespan model."""

import pytest

from repro.engine import makespan
from repro.engine.metrics import (
    JobMetrics,
    StageMetrics,
    TaskMetrics,
    peak_rss_bytes,
)


class TestMakespan:
    def test_empty(self):
        assert makespan([], 4) == 0.0

    def test_single_task(self):
        assert makespan([2.5], 8) == 2.5

    def test_tasks_equal_slots_is_max(self):
        """One partition per core — the paper's configuration."""
        assert makespan([1.0, 3.0, 2.0], 3) == 3.0

    def test_fewer_tasks_than_slots(self):
        assert makespan([1.0, 2.0], 16) == 2.0

    def test_one_slot_is_sum(self):
        assert makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_lpt_two_slots(self):
        # LPT: sort desc [5,4,3,3,1]; loads -> 5+1? Actually: 5 | 4; 3->4+3=7? no, 3->5? min load picks smaller.
        # 5|_, 5|4, 5|4+3, 5+3|7, 8|7+1 -> wait LPT: [5,4,3,3,1]
        # slot loads: [5],[4] -> 3 to slot1(4): [5],[7] -> 3 to slot0(5): [8],[7] -> 1 to slot1: [8],[8]
        assert makespan([3.0, 5.0, 4.0, 1.0, 3.0], 2) == pytest.approx(8.0)

    def test_monotone_in_slots(self):
        durations = [0.5, 1.5, 2.0, 0.1, 0.9, 1.1]
        walls = [makespan(durations, s) for s in (1, 2, 3, 6)]
        assert walls == sorted(walls, reverse=True)

    def test_never_below_max_duration(self):
        durations = [0.2, 5.0, 0.3]
        for s in (1, 2, 3, 100):
            assert makespan(durations, s) >= 5.0

    def test_rejects_nonpositive_slots(self):
        with pytest.raises(ValueError):
            makespan([1.0], 0)
        with pytest.raises(ValueError):
            makespan([1.0], -3)

    def test_empty_durations_short_circuit_any_slots(self):
        # No tasks means no wall-clock, even before the slots check.
        assert makespan([], 1) == 0.0
        assert makespan([], 0) == 0.0
        assert makespan([], -1) == 0.0

    def test_zero_durations(self):
        assert makespan([0.0, 0.0], 1) == 0.0


class TestStageMetrics:
    def _stage(self):
        sm = StageMetrics(0)
        sm.task_metrics.append(TaskMetrics(0, 0, 0, run_time=1.0, succeeded=True))
        sm.task_metrics.append(TaskMetrics(0, 1, 0, run_time=2.0, succeeded=False))
        sm.task_metrics.append(TaskMetrics(0, 1, 1, run_time=3.0, succeeded=True))
        return sm

    def test_totals_count_successes_only(self):
        sm = self._stage()
        assert sm.total_task_time == pytest.approx(4.0)

    def test_task_durations_first_success_per_partition(self):
        sm = self._stage()
        assert sm.task_durations() == [1.0, 3.0]

    def test_num_tasks_distinct_partitions(self):
        assert self._stage().num_tasks == 2


class TestJobMetrics:
    def test_simulated_wall_sums_stages(self):
        jm = JobMetrics(0)
        for sid, times in enumerate([[1.0, 2.0], [3.0]]):
            sm = StageMetrics(sid)
            for p, t in enumerate(times):
                sm.task_metrics.append(TaskMetrics(sid, p, 0, run_time=t, succeeded=True))
            jm.stages.append(sm)
        assert jm.simulated_wall(2) == pytest.approx(2.0 + 3.0)
        assert jm.simulated_wall(1) == pytest.approx(3.0 + 3.0)
        assert jm.simulated_wall(2, straggler_wait=0.5) == pytest.approx(6.0)

    def test_total_executor_time(self):
        jm = JobMetrics(0)
        sm = StageMetrics(0)
        sm.task_metrics.append(TaskMetrics(0, 0, 0, run_time=1.5, succeeded=True))
        jm.stages.append(sm)
        assert jm.total_executor_time == pytest.approx(1.5)


class TestPeakRss:
    def test_positive_on_posix(self):
        # On Linux/macOS resource.getrusage is available and any Python
        # process has a multi-megabyte high-water mark.
        assert peak_rss_bytes() > 1024 * 1024
