"""Engine error paths and guard rails."""

import numpy as np
import pytest

from repro.engine import HashPartitioner, SparkContext
from repro.engine.rdd import ShuffledRDD, TaskRuntime
from repro.engine.storage import BlockManager


class TestShuffledRDDGuards:
    def test_compute_outside_scheduler_rejected(self, sc):
        shuffled = ShuffledRDD(sc.parallelize([(1, 1)], 2), HashPartitioner(2))
        runtime = TaskRuntime(BlockManager())
        with pytest.raises(RuntimeError, match="resolved"):
            list(shuffled.compute(0, runtime))

    def test_shuffled_rdd_needs_driver_context(self, sc):
        import cloudpickle

        rdd = sc.parallelize([(1, 1)], 2).map(lambda kv: kv)
        clone = cloudpickle.loads(cloudpickle.dumps(rdd))  # ctx stripped
        with pytest.raises(RuntimeError):
            ShuffledRDD(clone, HashPartitioner(2))


class TestActionGuards:
    def test_action_on_rehydrated_rdd_rejected(self, sc):
        import cloudpickle

        rdd = sc.parallelize(range(4), 2)
        clone = cloudpickle.loads(cloudpickle.dumps(rdd))
        with pytest.raises(RuntimeError, match="driver"):
            clone.collect()

    def test_unpicklable_result_fails_cleanly_on_processes(self):
        """A task whose *result* can't cross the process boundary must
        surface as a job failure, not a hang."""
        from repro.engine import JobAbortedError

        with SparkContext("processes[2]", max_task_failures=1) as sc:
            with pytest.raises(JobAbortedError, match="serializable|pickle"):
                # A generator is not picklable.
                sc.parallelize(range(2), 1).map(lambda x: (y for y in [x])).collect()

    def test_unpicklable_capture_fails_in_the_stage_binary(self):
        """A closure that captures a lock fails as its stage is packed,
        before any task ships, and the pool serves the next job."""
        import threading

        lock = threading.Lock()
        with SparkContext("processes[2]") as sc:
            with pytest.raises(TypeError, match="pickle"):
                sc.parallelize(range(4), 4).map(lambda x: (x, lock)).collect()
            assert sc.parallelize(range(4), 2).map(lambda x: -x).collect() == [0, -1, -2, -3]


class TestNumpyPayloads:
    def test_numpy_arrays_through_shuffle(self, sc):
        data = [(i % 2, np.full(3, float(i))) for i in range(6)]
        got = dict(
            sc.parallelize(data, 3).reduce_by_key(lambda a, b: a + b).collect()
        )
        np.testing.assert_allclose(got[0], np.full(3, 0.0 + 2 + 4))
        np.testing.assert_allclose(got[1], np.full(3, 1.0 + 3 + 5))

    def test_numpy_scalars_as_keys(self, sc):
        data = [(np.int64(i % 3), 1) for i in range(9)]
        got = sc.parallelize(data, 2).reduce_by_key(lambda a, b: a + b).collect()
        assert sorted(v for _k, v in got) == [3, 3, 3]
