"""Runtime sanitizer: each seeded violation must be caught.

Covers the broadcast write-barrier (threads *and* processes — the
rehydrated handle must carry the expected hash so the worker's cached
value is re-verified per task), the accumulator read guard, and the
structural deep hash the barrier rests on.
"""

import pickle

import numpy as np
import pytest

from repro.engine import (
    AccumulatorReadError,
    BroadcastMutationError,
    SparkContext,
    deep_hash,
)
from repro.engine.broadcast import _reset_process_cache
from repro.engine.executor import Task, run_task
from repro.engine.sanitize import FATAL_ERROR_TYPES, SanitizerError
from repro.engine.storage import BlockManager
from repro.obs import MetricsRegistry, Tracer, fold_trace


# ---------------------------------------------------------------------------
# deep_hash
# ---------------------------------------------------------------------------

class TestDeepHash:
    def test_equal_values_equal_hashes(self):
        v = {"a": [1, 2.5, "x"], "b": (True, None)}
        assert deep_hash(v) == deep_hash({"b": (True, None), "a": [1, 2.5, "x"]})

    def test_set_order_insensitive(self):
        assert deep_hash({"x", "y", "z"}) == deep_hash({"z", "x", "y"})

    def test_numpy_by_content(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert deep_hash(a) == deep_hash(a.copy())
        b = a.copy()
        b[1, 2] += 1e-9
        assert deep_hash(a) != deep_hash(b)

    def test_dtype_and_shape_matter(self):
        a = np.zeros(4, dtype=np.int64)
        assert deep_hash(a) != deep_hash(a.astype(np.float64))
        assert deep_hash(a) != deep_hash(a.reshape(2, 2))

    def test_mutation_changes_hash(self):
        v = {"neighbors": [1, 2, 3]}
        before = deep_hash(v)
        v["neighbors"].append(4)
        assert deep_hash(v) != before

    def test_distinguishes_list_from_tuple(self):
        assert deep_hash([1, 2]) != deep_hash((1, 2))

    def test_object_by_state(self):
        class Tree:
            def __init__(self, pts):
                self.pts = pts

        assert deep_hash(Tree([1, 2])) == deep_hash(Tree([1, 2]))
        assert deep_hash(Tree([1, 2])) != deep_hash(Tree([1, 3]))

    def test_cycle_safe(self):
        v = [1, 2]
        v.append(v)
        assert isinstance(deep_hash(v), str)

    def test_kdtree_hashable(self, blobs_small):
        from repro.kdtree import KDTree

        tree = KDTree(blobs_small.points)
        assert deep_hash(tree) == deep_hash(KDTree(blobs_small.points))


# ---------------------------------------------------------------------------
# Broadcast write-barrier
# ---------------------------------------------------------------------------

class TestBroadcastBarrier:
    @pytest.mark.parametrize("master", ["local", "threads[2]", "processes[2]"])
    def test_mutation_caught(self, master):
        with SparkContext(master, sanitize=True) as sc:
            b = sc.broadcast({"shared": [1, 2, 3]})

            def mutate(x):
                b.value["shared"].append(x)
                return x

            with pytest.raises(BroadcastMutationError) as exc_info:
                sc.parallelize(range(4), 2).map(mutate).collect()
        msg = str(exc_info.value)
        assert "broadcast 0" in msg
        assert "stage=" in msg and "partition=" in msg

    def test_read_only_access_passes(self):
        with SparkContext("threads[2]", sanitize=True) as sc:
            b = sc.broadcast([10, 20, 30])
            got = sc.parallelize(range(3), 3).map(lambda i: b.value[i]).collect()
        assert got == [10, 20, 30]

    def test_no_sanitize_no_barrier(self):
        # Without --sanitize behaviour is unchanged: the mutation slips
        # through silently (that is exactly the bug class the barrier
        # exists to surface).
        with SparkContext("threads[2]") as sc:
            b = sc.broadcast([0])

            def mutate(x):
                b.value.append(x)
                return x

            sc.parallelize(range(2), 2).map(mutate).collect()

    def test_numpy_mutation_caught(self):
        with SparkContext("local", sanitize=True) as sc:
            b = sc.broadcast(np.zeros(8))

            def poke(x):
                b.value[x] = 1.0
                return x

            with pytest.raises(BroadcastMutationError):
                sc.parallelize(range(4), 2).map(poke).collect()

    def test_violation_recorded_by_sanitizer(self):
        # The violation lands in the run's one log, and so in the
        # registry folded from it.
        tracer = Tracer()
        with SparkContext("local", sanitize=True, tracer=tracer) as sc:
            b = sc.broadcast([1])

            def mutate(x):
                b.value.append(x)
                return x

            with pytest.raises(BroadcastMutationError):
                sc.parallelize(range(2), 2).map(mutate).collect()
        (violation,) = [s for s in tracer.spans if s.cat == "sanitizer"]
        assert violation.name == "sanitizer.violation"
        assert violation.labels["error_type"] == "BroadcastMutationError"
        assert "was mutated" in violation.labels["detail"]
        registry = MetricsRegistry()
        fold_trace(registry, tracer.spans)
        findings = registry.get("repro_sanitizer_findings_total")
        assert findings.value(kind="violation") == 1

    def test_setstate_preserves_hash(self, tmp_path):
        """The satellite bugfix: a pickled handle keeps the expected
        hash, so a worker process that rehydrates it still verifies."""
        from repro.engine.broadcast import Broadcast

        b = Broadcast(7, [1, 2, 3], str(tmp_path), expected_hash=deep_hash([1, 2, 3]))
        b2 = pickle.loads(pickle.dumps(b))
        assert b2._expected_hash == b._expected_hash
        assert b2.nbytes == b.nbytes

    def test_process_cache_reuse_reverified(self, tmp_path):
        """A cached (already-materialized) value is re-verified per
        task — the second task must still catch a mutation done after
        the first load."""
        from repro.engine.broadcast import Broadcast

        value = {"k": [1]}
        b = Broadcast(3, value, str(tmp_path), expected_hash=deep_hash(value))
        handle = pickle.loads(pickle.dumps(b))
        _reset_process_cache()
        bm = BlockManager()
        base = dict(
            job_id=0, stage_id=0, partition=0, attempt=0, kind="result",
            sanitize=True,
        )
        # Task 1 materializes from disk and mutates the cached value.
        def mutate(_pid, it):
            list(it)
            handle.value["k"].append(99)
            return None

        # Task 2 only *reads* the (already mutated) cached value.
        def read_only(_pid, it):
            list(it)
            return handle.value["k"][0]

        with SparkContext("local") as sc:
            rdd = sc.parallelize([0], 1)
            t1 = Task(rdd=rdd, func=mutate, **base)
            o1 = run_task(t1, bm)
            assert not o1.succeeded and o1.fatal
            assert o1.error_type == "BroadcastMutationError"
            # Without per-task re-verification the cached (mutated)
            # value would now pass silently; the barrier must re-check.
            t2 = Task(rdd=rdd, func=read_only, **base)
            o2 = run_task(t2, bm)
            assert not o2.succeeded and o2.fatal
            assert o2.error_type == "BroadcastMutationError"
        _reset_process_cache()


# ---------------------------------------------------------------------------
# Accumulator read guard
# ---------------------------------------------------------------------------

class TestAccumulatorGuard:
    def test_read_in_task_raises(self):
        with SparkContext("threads[2]", sanitize=True) as sc:
            acc = sc.accumulator()

            def peek(x):
                acc.add(1)
                return acc.value

            with pytest.raises(AccumulatorReadError) as exc_info:
                sc.parallelize(range(4), 2).map(peek).collect()
        assert "write-only" in str(exc_info.value)

    def test_write_in_task_allowed(self):
        with SparkContext("threads[2]", sanitize=True) as sc:
            acc = sc.accumulator()
            sc.parallelize(range(10), 2).foreach(lambda x: acc.add(x))
            assert acc.value == sum(range(10))

    def test_driver_read_allowed(self):
        with SparkContext("local", sanitize=True) as sc:
            acc = sc.accumulator()
            acc.add(5)
            assert acc.value == 5


# ---------------------------------------------------------------------------
# Fatal outcomes: no retry burn
# ---------------------------------------------------------------------------

class TestFatalAbort:
    def test_sanitizer_violation_not_retried(self):
        attempts = []
        with SparkContext("local", sanitize=True, max_task_failures=4) as sc:
            b = sc.broadcast([1])

            def mutate(x):
                attempts.append(x)
                b.value.append(x)
                return x

            with pytest.raises(BroadcastMutationError):
                sc.parallelize([0], 1).map(mutate).collect()
        # One attempt only — a mutated broadcast cannot succeed on retry.
        assert len(attempts) == 1

    def test_error_type_mapping_complete(self):
        assert FATAL_ERROR_TYPES["BroadcastMutationError"] is BroadcastMutationError
        assert FATAL_ERROR_TYPES["AccumulatorReadError"] is AccumulatorReadError
        for cls in FATAL_ERROR_TYPES.values():
            assert issubclass(cls, SanitizerError)
