"""Kept executors: a stopped `processes[n]` context hands its pool to the
next one, and a worker drops the old context's state when it starts
serving the new one (engine/backends.py, `ProcessBackend`)."""

import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.engine import SparkContext
from repro.engine import backends
from repro.engine.errors import JobAbortedError
from repro.kdtree import KDTree


def _pids(sc):
    """Worker pids of the context's most recent job."""
    return {
        t.worker_pid
        for stage in sc.last_job_metrics.stages
        for t in stage.task_metrics
    }


def _job(sc, partitions=2):
    sc.parallelize(range(partitions), partitions).map(lambda x: x).collect()
    return _pids(sc)


#: Size of the test's broadcast tree: the worker counts the operands of
#: trees this size, not those of trees its fork inherited.
TREE_N = 67


def _worker_state(_split, _it):
    """What a worker still holds: broadcast cache keys, cached blocks and
    the operands of the test tree."""
    from repro.engine import broadcast, executor
    from repro.kdtree import kdtree

    bm = executor._worker_block_manager
    ops = sum(1 for tree in list(kdtree._OPERANDS) if tree.n == TREE_N)
    return [(os.getpid(), set(broadcast._local_cache),
             0 if bm is None else bm.num_memory_blocks, ops)]


def test_consecutive_contexts_run_on_the_same_workers():
    seen = []
    for _ in range(3):
        with SparkContext("processes[2]") as sc:
            seen.append(_job(sc))
    assert len(seen[0]) == 2
    assert seen[1] == seen[0] and seen[2] == seen[0]
    assert os.getpid() not in seen[0]


def test_two_live_contexts_get_disjoint_workers():
    with SparkContext("processes[2]") as a, SparkContext("processes[2]") as b:
        pa, pb = _job(a), _job(b)
    assert len(pa) == len(pb) == 2
    assert not pa & pb


def test_next_lease_sees_nothing_of_the_stopped_context():
    points = np.random.default_rng(0).uniform(0, 10, size=(TREE_N, 2))
    with SparkContext("processes[2]") as sc:
        old = sc.broadcast(KDTree(points))

        def query(x):
            return len(old.value.query_radius_batch(points[x:x + 1], 1.0)[1])

        cached = sc.parallelize(range(4), 2).map(query).cache()
        assert cached.collect()
        before = sc.parallelize(range(2), 2).map_partitions_with_index(
            _worker_state
        ).collect()
        old_pids = _pids(sc)
    # Both workers loaded the tree, derived its operand and cached a block
    # in that lease.
    assert len(before) == 2
    assert all(old.key in keys and blocks and ops for _, keys, blocks, ops in before)
    with SparkContext("processes[2]") as sc:
        after = sc.parallelize(range(2), 2).map_partitions_with_index(
            _worker_state
        ).collect()
        new_pids = _pids(sc)
    assert new_pids == old_pids
    assert after == [(pid, set(), 0, 0) for pid, *_ in after]


def test_a_pool_whose_worker_died_is_never_leased_again():
    with SparkContext("processes[2]", max_task_failures=1) as sc:
        old_pids = _job(sc)
        with pytest.raises(BrokenProcessPool):
            sc.parallelize(range(2), 2).map(
                lambda x: os._exit(1) if x == 0 else x
            ).collect()
    with SparkContext("processes[2]") as sc:
        assert sc.parallelize(range(4), 2).map(lambda x: x + 1).collect() == [1, 2, 3, 4]
        assert not _pids(sc) & old_pids


def _fail_or_linger(split, it):
    if split == 0:
        raise RuntimeError("boom")
    time.sleep(0.5)
    return list(it)


def test_a_job_after_an_aborted_one_gets_every_executor_back():
    with SparkContext("processes[2]", max_task_failures=1) as sc:
        old_pids = _job(sc)
        with pytest.raises(JobAbortedError):
            sc.parallelize(range(2), 2).map_partitions_with_index(
                _fail_or_linger
            ).collect()
        # Partition 1 still sleeps in its worker; a job meanwhile runs on
        # the other executor, and once the attempt ends, on both again.
        assert sc.parallelize(range(4), 4).map(lambda x: -x).collect() == [0, -1, -2, -3]
        time.sleep(1.0)
        assert _job(sc) == old_pids


def _fail_quick_or_linger(split, it):
    if split == 0:
        raise RuntimeError("boom")
    time.sleep(0.5 if split == 2 else 0)
    return list(it)


def _hold(split, it):
    time.sleep((0.7, 1.2)[split])
    return list(it)


def test_a_job_waiting_on_an_orphan_another_thread_freed_still_runs(monkeypatch):
    # An aborted job leaves one attempt running.  Thread "hold" runs a
    # job on the two other executors; thread "wait" has a task, no
    # executor, and waits on the orphan's pipe.  "hold" reclaims the
    # orphan first, so that pipe never speaks again: "wait" must still
    # find the freed executor.
    with SparkContext("processes[3]", max_task_failures=1) as sc:
        backend = sc.backend
        with pytest.raises(JobAbortedError):
            sc.parallelize(range(3), 3).map_partitions_with_index(
                _fail_quick_or_linger
            ).collect()
        time.sleep(0.1)
        real_wait = backends.wait_ready
        delayed, stalled = [], []

        def wait_after_reclaim(conns, timeout=None):
            if threading.current_thread().name != "wait":
                return real_wait(conns, timeout)
            # The first wait of "wait" starts only once "hold" has
            # reclaimed the orphan it is about to wait on.
            if not delayed:
                delayed.append(True)
                deadline = time.monotonic() + 5
                while backend._orphaned and time.monotonic() < deadline:
                    time.sleep(0.01)
            # A wait without end on a pipe that stays silent would hang;
            # bound it and record that it ran out instead.
            ready = real_wait(conns, 5 if timeout is None else timeout)
            if timeout is None and not ready:
                stalled.append(True)
            return ready

        monkeypatch.setattr(backends, "wait_ready", wait_after_reclaim)
        jobs = {
            "hold": lambda: sc.parallelize(range(2), 2).map_partitions_with_index(
                _hold
            ).collect(),
            "wait": lambda: sc.parallelize([5], 1).map(lambda x: x + 1).collect(),
        }
        got = {}

        def run():
            name = threading.current_thread().name
            got[name] = jobs[name]()

        threads = [threading.Thread(target=run, name=name) for name in jobs]
        for t in threads:
            t.start()
            time.sleep(0.1)
        for t in threads:
            t.join(timeout=10)
        assert delayed and not stalled
        assert got == {"hold": [0, 1], "wait": [6]}


def test_a_context_stopped_with_an_attempt_running_keeps_no_pool():
    sc = SparkContext("processes[2]", max_task_failures=1)
    old_pids = _job(sc)
    with pytest.raises(JobAbortedError):
        sc.parallelize(range(2), 2).map_partitions_with_index(_fail_or_linger).collect()
    sc.stop()   # partition 1 still sleeps in its worker
    assert backends._idle_pool is None
    with SparkContext("processes[2]") as sc:
        assert not _job(sc) & old_pids


def test_a_forked_child_sees_an_empty_idle_slot():
    with SparkContext("processes[2]") as sc:
        _job(sc)
    assert backends._idle_pool is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        os._exit(0 if backends._idle_pool is None else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert backends._idle_pool is not None


def test_concurrent_jobs_from_driver_threads_share_the_pool():
    # Six driver threads, more than the pool's two executors and the
    # host's cores, each running jobs on one context: every job gets its
    # own results and none waits forever for an executor.
    with SparkContext("processes[2]") as sc:
        results: dict[int, list[int]] = {}

        def submit(tag):
            for _ in range(5):
                got = sc.parallelize(range(8), 4).map(lambda x: x * tag).collect()
                results.setdefault(tag, []).append(sum(got))

        threads = [threading.Thread(target=submit, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    assert results == {t: [28 * t] * 5 for t in range(6)}
