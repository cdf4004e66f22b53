"""Newer RDD operations: sample, sortBy, cartesian, aggregate, stats, ..."""

import pytest

from repro.engine import SparkContext
from repro.engine.rdd import StatCounter


class TestSample:
    def test_fraction_zero_and_one(self, sc):
        r = sc.parallelize(range(100), 4)
        assert r.sample(0.0).count() == 0
        assert r.sample(1.0).collect() == list(range(100))

    def test_deterministic_in_seed(self, sc):
        r = sc.parallelize(range(1000), 4)
        assert r.sample(0.3, seed=7).collect() == r.sample(0.3, seed=7).collect()

    def test_roughly_proportional(self, sc):
        n = sc.parallelize(range(10_000), 4).sample(0.25, seed=1).count()
        assert 2000 < n < 3000

    def test_bad_fraction(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize(range(5)).sample(1.5)


class TestSortBy:
    def test_ascending(self, sc):
        data = [5, 3, 9, 1, 7, 2, 8, 0, 6, 4]
        got = sc.parallelize(data, 3).sort_by(lambda x: x).collect()
        assert got == sorted(data)

    def test_descending(self, sc):
        data = [5, 3, 9, 1, 7, 2, 8, 0, 6, 4]
        got = sc.parallelize(data, 3).sort_by(lambda x: x, ascending=False).collect()
        assert got == sorted(data, reverse=True)

    def test_by_key_function(self, sc):
        data = ["ccc", "a", "bb", "dddd"]
        got = sc.parallelize(data, 2).sort_by(len).collect()
        assert got == ["a", "bb", "ccc", "dddd"]

    def test_larger_input(self, sc, rng):
        data = rng.integers(0, 10_000, 500).tolist()
        got = sc.parallelize(data, 5).sort_by(lambda x: x).collect()
        assert got == sorted(data)

    def test_single_partition(self, sc):
        got = sc.parallelize([3, 1, 2], 1).sort_by(lambda x: x).collect()
        assert got == [1, 2, 3]


class TestCartesian:
    def test_all_pairs(self, sc):
        a = sc.parallelize([1, 2], 2)
        b = sc.parallelize("xy", 2)
        got = sorted(a.cartesian(b).collect())
        assert got == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]

    def test_count_is_product(self, sc):
        a = sc.parallelize(range(7), 3)
        b = sc.parallelize(range(5), 2)
        assert a.cartesian(b).count() == 35


class TestAggregations:
    def test_fold_empty(self, sc):
        assert sc.parallelize([], 3).fold(0, lambda a, b: a + b) == 0

    def test_fold_sum(self, sc):
        assert sc.parallelize(range(10), 3).fold(0, lambda a, b: a + b) == 45

    def test_aggregate_count_and_sum(self, sc):
        count, total = sc.parallelize(range(1, 101), 4).aggregate(
            (0, 0),
            lambda acc, x: (acc[0] + 1, acc[1] + x),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        assert (count, total) == (100, 5050)

    def test_max_min(self, sc):
        r = sc.parallelize([3, -7, 12, 0], 2)
        assert r.max() == 12
        assert r.min() == -7

    def test_take_ordered(self, sc):
        data = [9, 1, 8, 2, 7, 3]
        r = sc.parallelize(data, 3)
        assert r.take_ordered(3) == [1, 2, 3]
        assert r.take_ordered(2, key=lambda x: -x) == [9, 8]
        assert r.take_ordered(0) == []
        assert r.take_ordered(100) == sorted(data)

    def test_stats(self, sc):
        import statistics

        data = [1.0, 2.0, 3.0, 4.0, 5.0, 100.0]
        s = sc.parallelize(data, 3).stats()
        assert s.count == 6
        assert s.mean == pytest.approx(statistics.mean(data))
        assert s.variance == pytest.approx(statistics.pvariance(data))
        assert s.min == 1.0 and s.max == 100.0


class TestStatCounter:
    def test_merge_matches_bulk(self):
        import statistics

        a, b = StatCounter(), StatCounter()
        xs, ys = [1.0, 4.0, 2.0], [10.0, -3.0, 7.0, 8.0]
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        a.merge(b)
        assert a.count == 7
        assert a.mean == pytest.approx(statistics.mean(xs + ys))
        assert a.variance == pytest.approx(statistics.pvariance(xs + ys))

    def test_merge_with_empty(self):
        a = StatCounter().add(5.0)
        a.merge(StatCounter())
        assert a.count == 1 and a.mean == 5.0
        b = StatCounter()
        b.merge(a)
        assert b.count == 1 and b.mean == 5.0


class TestEventLog:
    """The engine's record of what ran: `JobMetrics` always, the trace
    when a tracer is live (the event log's two successors)."""

    def test_jobs_recorded(self, sc):
        sc.parallelize(range(10), 2).map(lambda x: (x % 2, x)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        jobs = sc.dag_scheduler.job_metrics
        assert len(jobs) == 1
        assert len(jobs[0].stages) == 2  # shuffle map + result
        tasks = [t for s in jobs[0].stages for t in s.task_metrics]
        assert len(tasks) == 4  # 2 partitions per stage
        assert all(t.succeeded for t in tasks)

    def test_failed_attempts_logged(self, sc):
        from repro.engine import FaultPlan

        sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 1})
        sc.parallelize(range(4), 2).collect()
        tasks = sc.last_job_metrics.stages[0].task_metrics
        assert any(not t.succeeded for t in tasks)

    def test_file_backed_log_roundtrip(self, tmp_path):
        from repro.obs import Tracer, load_trace

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        with SparkContext("simulated[2]", tracer=tracer) as sc:
            sc.parallelize(range(4), 2).count()
        tracer.write_jsonl(path)
        events = [e for e in load_trace(path) if e["ph"] == "X"]
        assert events[0]["name"] == "engine.context"
        assert events[0]["args"]["master"] == "simulated[2]"
        names = [e["name"] for e in events]
        assert "engine.job" in names and "engine.stage" in names
        assert {"task[s0,p0]", "task[s0,p1]"} <= set(names)
