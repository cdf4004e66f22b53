"""RDD transformations and actions against their plain-Python equivalents."""

import operator

import pytest

from repro.engine import HashPartitioner, SparkContext


class TestBasicTransformations:
    def test_map(self, sc):
        assert sc.parallelize(range(20), 4).map(lambda x: x * 3).collect() == [
            x * 3 for x in range(20)
        ]

    def test_filter(self, sc):
        got = sc.parallelize(range(50), 4).filter(lambda x: x % 7 == 0).collect()
        assert got == [x for x in range(50) if x % 7 == 0]

    def test_flat_map(self, sc):
        got = sc.parallelize(["a b", "c", "d e f"], 2).flat_map(str.split).collect()
        assert got == ["a", "b", "c", "d", "e", "f"]

    def test_map_chains_preserve_order(self, sc):
        got = (
            sc.parallelize(range(30), 5)
            .map(lambda x: x + 1)
            .filter(lambda x: x % 2 == 0)
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

    def test_glom(self, sc):
        assert sc.parallelize(range(6), 2).glom().collect() == [[0, 1, 2], [3, 4, 5]]

    def test_union(self, sc):
        a = sc.parallelize([1, 2], 2)
        b = sc.parallelize([3, 4, 5], 2)
        u = a.union(b)
        assert u.collect() == [1, 2, 3, 4, 5]
        assert u.num_partitions == 4

    def test_zip_with_index(self, sc):
        got = sc.parallelize("abcdefg", 3).zip_with_index().collect()
        assert got == [(c, i) for i, c in enumerate("abcdefg")]

    def test_key_by(self, sc):
        got = sc.parallelize([10, 25, 31], 2).key_by(lambda x: x % 10).collect()
        assert got == [(0, 10), (5, 25), (1, 31)]

    def test_coalesce(self, sc):
        r = sc.parallelize(range(20), 10).coalesce(3)
        assert r.num_partitions == 3
        assert sorted(r.collect()) == list(range(20))

    def test_coalesce_rejects_nonpositive(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize(range(4), 2).coalesce(0)


class TestShuffleTransformations:
    def test_reduce_by_key(self, sc):
        data = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
        got = dict(sc.parallelize(data, 3).reduce_by_key(operator.add).collect())
        assert got == {"a": 4, "b": 7, "c": 4}

    def test_reduce_by_key_single_occurrence_unreduced(self, sc):
        got = dict(sc.parallelize([("x", 7)], 2).reduce_by_key(operator.add).collect())
        assert got == {"x": 7}

    def test_group_by_key(self, sc):
        data = [(i % 3, i) for i in range(15)]
        got = dict(sc.parallelize(data, 4).group_by_key().collect())
        assert {k: sorted(v) for k, v in got.items()} == {
            0: [0, 3, 6, 9, 12],
            1: [1, 4, 7, 10, 13],
            2: [2, 5, 8, 11, 14],
        }

    def test_distinct(self, sc):
        got = sorted(sc.parallelize([1, 2, 2, 3, 3, 3, 1], 3).distinct().collect())
        assert got == [1, 2, 3]

    def test_partition_by_respects_partitioner(self, sc):
        data = [(i, str(i)) for i in range(16)]
        p = HashPartitioner(4)
        chunks = sc.parallelize(data, 4).partition_by(p).glom().collect()
        for pid, chunk in enumerate(chunks):
            for k, _v in chunk:
                assert p.partition(k) == pid

    def test_join(self, sc):
        left = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        right = sc.parallelize([("a", "x"), ("c", "y")], 2)
        got = sorted(left.join(right).collect())
        assert got == [("a", (1, "x")), ("a", (3, "x"))]

    def test_map_values_after_shuffle(self, sc):
        data = [("k", i) for i in range(10)]
        got = (
            sc.parallelize(data, 3)
            .reduce_by_key(operator.add)
            .map_values(lambda v: v * 2)
            .collect()
        )
        assert got == [("k", 90)]

    def test_count_by_key(self, sc):
        data = [("a", 0)] * 3 + [("b", 0)] * 2
        assert sc.parallelize(data, 2).count_by_key() == {"a": 3, "b": 2}


class TestActions:
    def test_count(self, sc):
        assert sc.parallelize(range(101), 7).count() == 101

    def test_count_empty_partitions(self, sc):
        assert sc.parallelize([1], 4).count() == 1

    def test_reduce(self, sc):
        assert sc.parallelize(range(1, 11), 3).reduce(operator.mul) == 3628800

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([], 2).reduce(operator.add)

    def test_reduce_with_empty_partitions(self, sc):
        assert sc.parallelize([5], 4).reduce(operator.add) == 5

    def test_sum(self, sc):
        assert sc.parallelize(range(100), 8).sum() == 4950

    def test_take_and_first(self, sc):
        r = sc.parallelize(range(50), 5)
        assert r.take(3) == [0, 1, 2]
        assert r.first() == 0

    def test_first_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([], 2).first()

    def test_foreach_with_accumulator(self, sc):
        acc = sc.accumulator()
        sc.parallelize(range(10), 4).foreach(lambda x: acc.add(x))
        assert acc.value == 45

    def test_foreach_partition_with_index_sees_all(self, sc):
        acc = sc.list_accumulator()
        sc.parallelize(range(9), 3).foreach_partition_with_index(
            lambda i, it: acc.add([(i, sum(it))])
        )
        assert sorted(acc.value) == [(0, 3), (1, 12), (2, 21)]

    def test_collect_as_map(self, sc):
        assert sc.parallelize([(1, "a"), (2, "b")], 2).collect_as_map() == {
            1: "a",
            2: "b",
        }

    def test_save_as_text_file(self, sc, tmp_path):
        out = tmp_path / "out"
        sc.parallelize(range(6), 3).save_as_text_file(str(out))
        parts = sorted(p.name for p in out.iterdir())
        assert parts == ["part-00000", "part-00001", "part-00002"]
        lines = []
        for p in sorted(out.iterdir()):
            lines.extend(p.read_text().split())
        assert lines == [str(i) for i in range(6)]


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
