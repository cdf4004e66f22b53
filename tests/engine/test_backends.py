"""All execution backends must produce identical results."""

import operator

import pytest

from repro.engine import SparkContext
from repro.engine.backends import parse_master

MASTERS = ["local", "local[1]", "threads[3]", "processes[2]", "simulated[8]"]


@pytest.mark.parametrize("master", MASTERS)
class TestBackendEquivalence:
    def test_map_collect(self, master):
        with SparkContext(master) as sc:
            got = sc.parallelize(range(20), 4).map(lambda x: x * x).collect()
        assert got == [x * x for x in range(20)]

    def test_shuffle(self, master):
        with SparkContext(master) as sc:
            got = dict(
                sc.parallelize([(i % 3, i) for i in range(30)], 4)
                .reduce_by_key(operator.add)
                .collect()
            )
        assert got == {0: sum(range(0, 30, 3)), 1: sum(range(1, 30, 3)), 2: sum(range(2, 30, 3))}

    def test_accumulator(self, master):
        with SparkContext(master) as sc:
            acc = sc.accumulator()
            sc.parallelize(range(12), 4).foreach(lambda x: acc.add(x))
            assert acc.value == 66

    def test_broadcast(self, master):
        with SparkContext(master) as sc:
            b = sc.broadcast({"offset": 5})
            got = sc.parallelize(range(4), 2).map(lambda x: x + b.value["offset"]).collect()
        assert got == [5, 6, 7, 8]

    def test_cache(self, master):
        with SparkContext(master) as sc:
            r = sc.parallelize(range(10), 2).map(lambda x: x + 1).cache()
            assert r.collect() == r.collect()


class TestParseMaster:
    def test_modes(self):
        assert parse_master("local") == ("local", 1)
        assert parse_master("local[1]") == ("local", 1)
        assert parse_master("threads[2]") == ("threads", 2)
        assert parse_master("processes[8]") == ("processes", 8)
        assert parse_master("simulated[512]") == ("simulated", 512)

    @pytest.mark.parametrize("serial_lie", ["local[2]", "local[8]", "local[*]"])
    def test_rejects_parallel_local(self, serial_lie):
        """local[n>1] would silently run serially; the error must point at
        backends that actually deliver the requested slots."""
        with pytest.raises(ValueError, match="threads\\[n\\]"):
            parse_master(serial_lie)

    def test_star_uses_cpu_count(self):
        import os

        assert parse_master("threads[*]")[1] == (os.cpu_count() or 1)

    @pytest.mark.parametrize("bad", ["spark://host", "local[0]", "local[-1]", "", "yarn"])
    def test_rejects_bad_masters(self, bad):
        with pytest.raises(ValueError):
            parse_master(bad)


class TestProcessBackendBoundaries:
    def test_closures_serialized_with_cloudpickle(self):
        """Lambdas with captured state must cross the process boundary."""
        offset = 17
        with SparkContext("processes[2]") as sc:
            got = sc.parallelize(range(4), 2).map(lambda x: x + offset).collect()
        assert got == [17, 18, 19, 20]

    def test_numpy_arrays_cross_boundary(self):
        import numpy as np

        with SparkContext("processes[2]") as sc:
            arr = np.arange(10.0)
            b = sc.broadcast(arr)
            got = sc.parallelize(range(10), 2).map(lambda i: float(b.value[i])).collect()
        assert got == [float(i) for i in range(10)]

    def test_worker_failure_surfaces_as_job_abort(self):
        from repro.engine import JobAbortedError

        def die(x):
            raise ValueError("kaboom")

        with SparkContext("processes[2]") as sc:
            with pytest.raises(JobAbortedError):
                sc.parallelize([1], 1).map(die).collect()

    def test_task_ships_its_own_split_only(self):
        """A task used to pickle every split's data — p× the bytes per
        task, p²× per job; it carries its own, also as a retry copy."""
        import dataclasses

        import cloudpickle

        from repro.engine.executor import Task
        from repro.engine.rdd import TaskRuntime
        from repro.engine.storage import BlockManager

        def task_for(other_len, split=1):
            payloads = [list(range(other_len)) for _ in range(4)]
            payloads[split] = list(range(1000))
            rdd = sc.parallelize(payloads, 4).map(sum)
            return Task(job_id=0, stage_id=0, partition=split, attempt=0,
                        rdd=rdd, kind="result", func=lambda _i, it: list(it))

        with SparkContext("local") as sc:
            small, big = task_for(10), task_for(100_000)
            retry = dataclasses.replace(big, attempt=1)
            base = len(cloudpickle.dumps(small))
            for task in (big, retry):
                blob = cloudpickle.dumps(task)
                assert len(blob) <= base + 64
                shipped = cloudpickle.loads(blob)
                assert shipped.rdd.rdd_id == task.rdd.rdd_id  # cache key kept
                got = shipped.rdd.iterator(1, TaskRuntime(BlockManager()))
                assert list(got) == [sum(range(1000))]
            # The driver's own task still reaches every split.
            assert big.rdd.collect()[0] == sum(range(100_000))

    def test_range_splits_stay_ranges(self):
        """`BroadcastModel` parallelizes ``range(n)``: O(1) per split on
        the driver and on the wire, not n boxed ints."""
        import cloudpickle

        from repro.engine.executor import Task

        with SparkContext("local") as sc:
            rdd = sc.parallelize(range(4_000_000), 4)
            task = Task(job_id=0, stage_id=0, partition=3, attempt=0,
                        rdd=rdd, kind="result", func=lambda _i, it: next(it))
            assert len(cloudpickle.dumps(task)) < 4096
            firsts = sc.run_job(rdd, lambda _i, it: next(it))
            assert firsts == [0, 1_000_000, 2_000_000, 3_000_000]

    def test_retry_and_cache_miss_recompute_from_the_shipped_split(self):
        """Job 2 may land on a worker that never cached the split (the
        ApplyGidMap case): it recomputes through the shipped lineage."""
        from repro.engine import FaultPlan

        with SparkContext("processes[2]") as sc:
            sc.fault_plan = FaultPlan(fail_attempts={(-1, 2): 1})
            sums = sc.parallelize([[i, i + 1] for i in range(6)], 6) \
                .map(sum).persist()
            expected = [2 * i + 1 for i in range(6)]
            assert sums.collect() == expected
            assert sums.map(lambda x: x).collect() == expected
