"""Broadcast and accumulator semantics (paper Section IV-B)."""

import pickle

import pytest

from repro.engine import FLOAT_SUM, INT_SUM, LIST_CONCAT, AccumulatorParam, SparkContext
from repro.engine.accumulator import AccumulatorRegistry
from repro.engine.broadcast import _load_counts, _reset_process_cache


class TestBroadcast:
    def test_value_visible_on_driver(self, sc):
        b = sc.broadcast({"eps": 25.0})
        assert b.value == {"eps": 25.0}

    def test_value_visible_in_tasks(self, sc):
        b = sc.broadcast([10, 20, 30])
        got = sc.parallelize(range(3), 3).map(lambda i: b.value[i]).collect()
        assert got == [10, 20, 30]

    def test_pickled_handle_excludes_value(self, sc):
        b = sc.broadcast(list(range(10000)))
        blob = pickle.dumps(b)
        # The handle must be tiny: the value travels via the backing
        # store, not inside every task closure.
        assert len(blob) < 500

    def test_value_loaded_once_per_process(self, tmp_path):
        """A rehydrated handle loads from file on first access only."""
        with SparkContext("simulated[2]", spill_dir=str(tmp_path)) as sc:
            sc.broadcast_manager._spill_dir = str(tmp_path)  # force file backing
            b = sc.broadcast_manager.new_broadcast([1, 2, 3])
            clone = pickle.loads(pickle.dumps(b))
            _reset_process_cache()
            assert clone.value == [1, 2, 3]
            assert clone.value == [1, 2, 3]
            assert _load_counts[b.bid] == 1  # second access was cached

    def test_unpersist_drops_cache(self, sc):
        b = sc.broadcast(42)
        b.unpersist()
        with pytest.raises(RuntimeError):
            _ = b.value  # no cache, no backing file

    def test_broadcast_works_across_processes(self):
        with SparkContext("processes[2]") as sc:
            b = sc.broadcast(1000)
            got = sc.parallelize(range(4), 4).map(lambda x: x + b.value).collect()
            assert got == [1000, 1001, 1002, 1003]


class TestAccumulator:
    def test_int_sum(self, sc):
        acc = sc.accumulator(INT_SUM)
        sc.parallelize(range(100), 4).foreach(lambda x: acc.add(x))
        assert acc.value == 4950

    def test_float_sum(self, sc):
        acc = sc.accumulator(FLOAT_SUM)
        sc.parallelize([0.5] * 10, 2).foreach(lambda x: acc.add(x))
        assert acc.value == pytest.approx(5.0)

    def test_list_concat_collects_partials(self, sc):
        """The paper's usage: bring partial results back via accumulator."""
        acc = sc.accumulator(LIST_CONCAT)
        sc.parallelize(range(20), 4).foreach_partition_with_index(
            lambda _i, it: acc.add([list(it)])
        )
        chunks = sorted(acc.value)
        assert chunks == [
            list(range(0, 5)),
            list(range(5, 10)),
            list(range(10, 15)),
            list(range(15, 20)),
        ]

    def test_iadd_operator(self, sc):
        acc = sc.accumulator(INT_SUM)
        acc += 5
        acc += 7
        assert acc.value == 12

    def test_driver_side_add(self, sc):
        acc = sc.accumulator(INT_SUM)
        acc.add(3)
        assert acc.value == 3

    def test_custom_param(self, sc):
        max_param = AccumulatorParam[int](zero=lambda: 0, add=max)
        acc = sc.accumulator(max_param)
        sc.parallelize([3, 9, 1, 7], 2).foreach(lambda x: acc.add(x))
        assert acc.value == 9

    def test_works_across_processes(self):
        with SparkContext("processes[2]") as sc:
            acc = sc.accumulator(INT_SUM)
            sc.parallelize(range(10), 4).foreach(lambda x: acc.add(x))
            assert acc.value == 45


class TestAccumulatorExactlyOnce:
    def test_retried_task_counts_once(self):
        """A task that fails then succeeds must not double-accumulate —
        otherwise retried executors would duplicate partial clusters."""
        from repro.engine import FaultPlan

        with SparkContext("simulated[4]") as sc:
            sc.fault_plan = FaultPlan(fail_attempts={(-1, 1): 2})
            acc = sc.accumulator(INT_SUM)
            sc.parallelize(range(8), 4).foreach(lambda x: acc.add(1))
            assert acc.value == 8

    def test_registry_rejects_duplicate_partition_report(self):
        reg = AccumulatorRegistry()
        acc = reg.new_accumulator(INT_SUM)
        assert reg.apply_task_updates(0, 0, 0, {acc.aid: 5})
        assert not reg.apply_task_updates(0, 0, 0, {acc.aid: 5})  # duplicate
        assert acc.value == 5

    def test_distinct_partitions_both_count(self):
        reg = AccumulatorRegistry()
        acc = reg.new_accumulator(INT_SUM)
        reg.apply_task_updates(0, 0, 0, {acc.aid: 5})
        reg.apply_task_updates(0, 0, 1, {acc.aid: 7})
        assert acc.value == 12

    def test_a_late_duplicate_after_a_drain_merges_nothing(self):
        """`drain` resets the slot but keeps the exactly-once keys: a
        task that already reported cannot refill the drained slot."""
        reg = AccumulatorRegistry()
        acc = reg.new_accumulator(LIST_CONCAT)
        assert reg.apply_task_updates(0, 0, 0, {acc.aid: ["t0"]})
        assert acc.drain() == ["t0"]
        assert not reg.apply_task_updates(0, 0, 0, {acc.aid: ["t0"]})
        assert acc.value == []
        assert reg.apply_task_updates(0, 0, 1, {acc.aid: ["t1"]})
        assert acc.drain() == ["t1"] and acc.value == []

    def test_unknown_accumulator_ignored(self):
        reg = AccumulatorRegistry()
        assert reg.apply_task_updates(0, 0, 0, {999: 5})  # merged nothing, no crash

    def test_value_unreadable_on_executor_copy(self, sc):
        import cloudpickle

        acc = sc.accumulator(INT_SUM)
        clone = pickle.loads(cloudpickle.dumps(acc))
        with pytest.raises(RuntimeError):
            _ = clone.value
