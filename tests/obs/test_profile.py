"""Per-task resource profiling: clocks, RSS, tracemalloc refcounting."""

import tracemalloc

import pytest

from repro.obs import MetricsRegistry, TaskProfiler, record_task_profile
from repro.obs.profile import peak_rss_bytes


class TestPeakRss:
    def test_positive_on_posix(self):
        rss = peak_rss_bytes()
        # On Linux/macOS resource.getrusage is available and any Python
        # process has a multi-megabyte high-water mark.
        assert rss > 1024 * 1024


class TestTaskProfiler:
    def test_basic_profile(self):
        p = TaskProfiler()
        p.start()
        sum(i * i for i in range(50_000))
        prof = p.stop()
        assert prof.wall_s > 0.0
        assert prof.cpu_s >= 0.0
        assert prof.max_rss_bytes > 0
        assert not prof.alloc_tracked
        assert prof.alloc_peak_bytes == 0

    def test_alloc_profile_tracks_peak(self):
        assert not tracemalloc.is_tracing()
        p = TaskProfiler(alloc=True)
        p.start()
        blob = [bytes(1024) for _ in range(512)]  # ~0.5 MiB live
        prof = p.stop()
        del blob
        assert prof.alloc_tracked
        assert prof.alloc_peak_bytes > 256 * 1024
        # stop() released our reference: tracing is off again.
        assert not tracemalloc.is_tracing()

    def test_refcounted_overlapping_profilers(self):
        assert not tracemalloc.is_tracing()
        p1, p2 = TaskProfiler(alloc=True), TaskProfiler(alloc=True)
        p1.start()
        p2.start()
        assert tracemalloc.is_tracing()
        p1.stop()
        # p2 still holds a reference: tracing must survive.
        assert tracemalloc.is_tracing()
        p2.stop()
        assert not tracemalloc.is_tracing()

    def test_never_stops_externally_started_tracing(self):
        tracemalloc.start()
        try:
            p = TaskProfiler(alloc=True)
            p.start()
            p.stop()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_stop_without_start_is_safe(self):
        prof = TaskProfiler().stop()
        assert prof.wall_s == 0.0


class TestRecordTaskProfile:
    def _profile(self, rss):
        p = TaskProfiler()
        p.start()
        prof = p.stop()
        prof.max_rss_bytes = rss
        return prof

    def test_gauges_keep_the_max_not_the_sum(self):
        reg = MetricsRegistry()
        record_task_profile(reg, self._profile(100), stage=0, partition=1)
        record_task_profile(reg, self._profile(300), stage=0, partition=1)
        record_task_profile(reg, self._profile(200), stage=0, partition=1)
        g = reg.get("repro_task_peak_rss_bytes")
        # RSS is a process high-water mark: summing attempts would
        # overstate memory; the gauge keeps the max.
        assert g.value(stage="0", partition="1") == pytest.approx(300)

    def test_cpu_histogram_observes_each_task(self):
        reg = MetricsRegistry()
        record_task_profile(reg, self._profile(1), stage=0, partition=0)
        record_task_profile(reg, self._profile(1), stage=0, partition=1)
        h = reg.get("repro_task_cpu_seconds")
        assert h is not None
