"""Concurrency: the threads backend under real parallel load."""

import threading

from repro.engine import LIST_CONCAT, SparkContext


class TestThreadBackendSafety:
    def test_accumulator_under_contention(self):
        """Many concurrent tasks accumulating must lose nothing."""
        with SparkContext("threads[8]") as sc:
            acc = sc.accumulator()
            sc.parallelize(range(2000), 32).foreach(lambda x: acc.add(1))
            assert acc.value == 2000

    def test_list_accumulator_under_contention(self):
        with SparkContext("threads[8]") as sc:
            acc = sc.accumulator(LIST_CONCAT)
            sc.parallelize(range(160), 16).foreach_partition_with_index(
                lambda _i, it: acc.add([sum(it)])
            )
            assert len(acc.value) == 16
            assert sum(acc.value) == sum(range(160))

    def test_block_manager_concurrent_cache_fill(self):
        """Parallel tasks caching distinct partitions of the same RDD."""
        with SparkContext("threads[8]") as sc:
            r = sc.parallelize(range(400), 16).map(lambda x: x * 2).cache()
            assert sorted(r.collect()) == sorted(x * 2 for x in range(400))
            assert sc.block_manager.num_memory_blocks == 16
            # Second pass served from cache, concurrently.
            assert sum(r.collect()) == sum(x * 2 for x in range(400))

    def test_broadcast_read_from_many_threads(self):
        with SparkContext("threads[8]") as sc:
            b = sc.broadcast(list(range(1000)))
            got = sc.parallelize(range(64), 16).map(lambda i: b.value[i]).collect()
            assert got == list(range(64))

    def test_tasks_actually_overlap(self):
        """Sanity that the pool runs tasks concurrently: barrier-style
        rendezvous of two tasks would deadlock a serial executor."""
        barrier = threading.Barrier(2, timeout=10)

        def wait_at_barrier(_i, _it):
            barrier.wait()

        with SparkContext("threads[2]") as sc:
            sc.parallelize(range(2), 2).foreach_partition_with_index(wait_at_barrier)
        # Reaching here proves both tasks were in flight simultaneously.

    def test_concurrent_jobs_from_user_threads(self):
        """Two driver threads submitting jobs to one context."""
        with SparkContext("threads[4]") as sc:
            results: dict[str, int] = {}

            def submit(tag, lo, hi):
                results[tag] = sum(sc.parallelize(range(lo, hi), 4).collect())

            t1 = threading.Thread(target=submit, args=("a", 0, 100))
            t2 = threading.Thread(target=submit, args=("b", 100, 200))
            t1.start(); t2.start(); t1.join(); t2.join()
            assert results["a"] == sum(range(0, 100))
            assert results["b"] == sum(range(100, 200))
