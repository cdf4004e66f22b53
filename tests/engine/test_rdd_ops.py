"""RDD transformations and actions against their plain-Python equivalents."""

import operator

import pytest

from repro.engine import LIST_CONCAT, HashPartitioner, SparkContext


class TestBasicTransformations:
    def test_map(self, sc):
        assert sc.parallelize(range(20), 4).map(lambda x: x * 3).collect() == [
            x * 3 for x in range(20)
        ]

    def test_flat_map(self, sc):
        got = sc.parallelize(["a b", "c", "d e f"], 2).flat_map(str.split).collect()
        assert got == ["a", "b", "c", "d", "e", "f"]

    def test_map_chains_preserve_order(self, sc):
        got = (
            sc.parallelize(range(30), 5)
            .map(lambda x: x + 1)
            .flat_map(lambda x: [x] if x % 2 == 0 else [])
            .map(lambda x: x // 2)
            .collect()
        )
        assert got == [x // 2 for x in (y + 1 for y in range(30)) if x % 2 == 0]

    def test_map_partitions(self, sc):
        got = sc.parallelize(range(12), 3).map_partitions(lambda it: [sum(it)]).collect()
        assert got == [sum(range(0, 4)), sum(range(4, 8)), sum(range(8, 12))]

    def test_map_partitions_with_index(self, sc):
        got = (
            sc.parallelize(range(8), 4)
            .map_partitions_with_index(lambda i, it: [(i, list(it))])
            .collect()
        )
        assert got == [(0, [0, 1]), (1, [2, 3]), (2, [4, 5]), (3, [6, 7])]


class TestShuffleTransformations:
    def test_reduce_by_key(self, sc):
        data = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
        got = dict(sc.parallelize(data, 3).reduce_by_key(operator.add).collect())
        assert got == {"a": 4, "b": 7, "c": 4}

    def test_reduce_by_key_single_occurrence_unreduced(self, sc):
        got = dict(sc.parallelize([("x", 7)], 2).reduce_by_key(operator.add).collect())
        assert got == {"x": 7}

    def test_reduce_by_key_respects_partitioner(self, sc):
        data = [(i, str(i)) for i in range(16)]
        p = HashPartitioner(4)
        chunks = (
            sc.parallelize(data, 2)
            .reduce_by_key(operator.add, num_partitions=4)
            .map_partitions(lambda it: [list(it)])
            .collect()
        )
        assert sorted(kv for chunk in chunks for kv in chunk) == data
        for pid, chunk in enumerate(chunks):
            for k, _v in chunk:
                assert p.partition(k) == pid

    def test_map_after_shuffle(self, sc):
        data = [("k", i) for i in range(10)]
        got = (
            sc.parallelize(data, 3)
            .reduce_by_key(operator.add)
            .map(lambda kv: (kv[0], kv[1] * 2))
            .collect()
        )
        assert got == [("k", 90)]

    def test_reduce_by_key_job_records_both_stages(self, sc):
        sc.parallelize(range(10), 2).map(lambda x: (x % 2, x)).reduce_by_key(
            lambda a, b: a + b
        ).collect()
        jobs = sc.dag_scheduler.job_metrics
        assert len(jobs) == 1
        assert len(jobs[0].stages) == 2  # shuffle map + result
        tasks = [t for s in jobs[0].stages for t in s.task_metrics]
        assert len(tasks) == 4  # 2 partitions per stage
        assert all(t.succeeded for t in tasks)


class TestActions:
    def test_count(self, sc):
        assert sc.parallelize(range(101), 7).count() == 101

    def test_count_empty_partitions(self, sc):
        assert sc.parallelize([1], 4).count() == 1

    def test_foreach_with_accumulator(self, sc):
        acc = sc.accumulator()
        sc.parallelize(range(10), 4).foreach(lambda x: acc.add(x))
        assert acc.value == 45

    def test_foreach_partition_with_index_sees_all(self, sc):
        acc = sc.accumulator(LIST_CONCAT)
        sc.parallelize(range(9), 3).foreach_partition_with_index(
            lambda i, it: acc.add([(i, sum(it))])
        )
        assert sorted(acc.value) == [(0, 3), (1, 12), (2, 21)]


class TestLaziness:
    def test_transformations_are_lazy(self, sc):
        calls = []
        r = sc.parallelize(range(5), 2).map(lambda x: calls.append(x) or x)
        assert calls == []  # nothing ran yet
        r.collect()
        assert sorted(calls) == list(range(5))

    def test_rdd_recomputes_without_cache(self, sc):
        acc = sc.accumulator()
        r = sc.parallelize(range(5), 2).map(lambda x: acc.add(1) or x)
        r.collect()
        r.collect()
        assert acc.value == 10  # computed twice

    def test_cache_avoids_recompute(self, sc):
        acc = sc.accumulator()
        r = sc.parallelize(range(5), 2).map(lambda x: acc.add(1) or x).cache()
        r.collect()
        r.collect()
        assert acc.value == 5  # second action served from cache

    def test_unpersist_restores_recompute(self, sc):
        acc = sc.accumulator()
        r = sc.parallelize(range(4), 2).map(lambda x: acc.add(1) or x).cache()
        r.collect()
        r.unpersist()
        r.collect()
        assert acc.value == 8


class TestContextLifecycle:
    def test_stopped_context_rejects_work(self):
        sc = SparkContext("simulated[2]")
        sc.stop()
        from repro.engine import ContextStoppedError

        with pytest.raises(ContextStoppedError):
            sc.parallelize([1, 2])

    def test_double_stop_is_idempotent(self):
        sc = SparkContext("simulated[2]")
        sc.stop()
        sc.stop()

    def test_stopped_context_rejects_every_entry_point(self):
        # The runtime twin of lint rule LIF001: every driver API the
        # analyzer treats as a "use" raises once the context is stopped.
        from repro.engine import ContextStoppedError

        sc = SparkContext("simulated[2]")
        rdd = sc.parallelize([1, 2])
        sc.stop()
        for op in (
            lambda: sc.parallelize([1]),
            lambda: sc.broadcast({1: 2}),
            lambda: sc.accumulator(),
            lambda: rdd.collect(),
        ):
            with pytest.raises(ContextStoppedError):
                op()

    def test_context_manager(self):
        with SparkContext("simulated[2]") as sc:
            assert sc.parallelize([1, 2, 3]).count() == 3

    def test_default_parallelism_from_master(self):
        with SparkContext("simulated[7]") as sc:
            assert sc.parallelize(range(14)).num_partitions == 7

    def test_parallelize_rejects_zero_partitions(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize(range(5), 0)
