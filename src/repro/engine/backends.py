"""Execution backends: where tasks physically run.

Four backends, selected by the master URL:

- ``local`` / ``local[1]``      — serial in the driver thread; deterministic.
  ``local[n]`` for n > 1 is rejected: this backend cannot deliver the
  requested parallelism (use ``threads[n]``/``processes[n]`` for real
  concurrency, or ``simulated[n]`` for measured-makespan analysis).
- ``threads[n]``                — a thread pool; real concurrency for
  I/O-bound tasks (numpy releases the GIL in hot kernels).
- ``processes[n]``              — a process pool with cloudpickle task
  shipping; true parallelism, true serialization boundaries.  The pool
  outlives the context: the next ``processes[n]`` context leases it.
- ``simulated[n]``              — runs tasks serially but *times each one*;
  job wall-clock on n virtual slots is then the measured-task makespan.
  This is how the paper's 64–512-core runs (Figure 8e/f) are reproduced
  on a small machine: per-partition work is measured, only the slot
  count is virtual.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import re
import threading
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Iterator

from .executor import Task, TaskOutcome, run_task, serve
from .storage import BlockManager

_MASTER_RE = re.compile(r"^(local|threads|processes|simulated)(?:\[(\d+|\*)\])?$")


def parse_master(master: str) -> tuple[str, int]:
    """Parse a master URL like ``threads[4]`` into (mode, slots).

    ``local`` is strictly serial, so it always yields one slot;
    ``local[n]`` with n > 1 (or ``local[*]``) is rejected rather than
    silently dropping the requested parallelism.
    """
    m = _MASTER_RE.match(master)
    if not m:
        raise ValueError(
            f"bad master {master!r}; expected local | threads[n] | "
            "processes[n] | simulated[n]"
        )
    mode, slots = m.group(1), m.group(2)
    if mode == "local":
        if slots is None or slots == "1":
            return "local", 1
        if slots != "*" and int(slots) <= 0:
            raise ValueError(f"slot count must be positive in master {master!r}")
        raise ValueError(
            f"master {master!r} requests parallel slots but the local "
            "backend runs serially; use threads[n] or processes[n] for "
            "real concurrency, or simulated[n] for makespan analysis"
        )
    if slots == "*" or slots is None:
        n = os.cpu_count() or 1
    else:
        n = int(slots)
    if n <= 0:
        raise ValueError(f"slot count must be positive in master {master!r}")
    return mode, n


class Backend:
    """Runs batches of tasks, yielding outcomes as they complete."""

    name = "base"

    def __init__(self, slots: int):
        self.slots = slots

    def run(self, tasks: list[Task]) -> Iterator[TaskOutcome]:
        """Execute the given tasks, yielding outcomes as they complete."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release executor resources."""
        pass


class LocalBackend(Backend):
    """Serial execution against the driver's block manager."""

    name = "local"

    def __init__(self, slots: int, block_manager: BlockManager):
        super().__init__(slots)
        self._bm = block_manager

    def run(self, tasks: list[Task]) -> Iterator[TaskOutcome]:
        """Execute the given tasks, yielding outcomes as they complete."""
        for t in tasks:
            yield run_task(t, self._bm)


class SimulatedBackend(LocalBackend):
    """Serial execution whose slot count parameterises makespan analysis.

    Identical to `LocalBackend` at run time; the DAG scheduler records
    per-task durations, and `JobMetrics.simulated_wall(slots)` yields
    the virtual parallel wall-clock.
    """

    name = "simulated"


class ThreadBackend(Backend):
    """Thread-pool execution sharing the driver's block manager."""
    name = "threads"

    def __init__(self, slots: int, block_manager: BlockManager):
        super().__init__(slots)
        self._bm = block_manager
        self._pool = ThreadPoolExecutor(max_workers=slots, thread_name_prefix="executor")

    def run(self, tasks: list[Task]) -> Iterator[TaskOutcome]:
        """Execute the given tasks, yielding outcomes as they complete."""
        futures: set[Future[TaskOutcome]] = {
            self._pool.submit(run_task, t, self._bm) for t in tasks
        }
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for f in done:
                yield f.result()

    def shutdown(self) -> None:
        """Release executor resources."""
        self._pool.shutdown(wait=True)


# The driver process's one idle executor pool, kept between contexts the
# way Spark keeps an application's executors between jobs: a stopped
# context hands its pool here and the next `ProcessBackend` leases it, so
# a fit pays no fork, no cold workers and no joined shutdown.
_idle_pool: list[_Executor] | None = None
_idle_lock = threading.Lock()
_leases = itertools.count(1)
# Every executor not yet closed, so that a forked child drops its copies
# of their pipes and interpreter exit stops their workers.
_live: weakref.WeakSet[_Executor] = weakref.WeakSet()
# How long a job waits on orphaned executors' pipes before it looks
# again: another driver thread may reclaim an orphan first, after which
# that pipe stays silent.
_ORPHAN_POLL_S = 0.05


class _Executor:
    """One worker process, fed one task at a time over its own pipe."""

    def __init__(self, lease: int):
        self.conn, child = multiprocessing.Pipe()
        _live.add(self)
        self.process = multiprocessing.Process(
            target=serve, args=(child, lease), name="repro-executor"
        )
        self.process.start()
        child.close()


def _forget_executors() -> None:
    # A forked child holds copies of the parent's pipe ends; closing them
    # leaves each worker's pipe to its driver, so a worker reads
    # end-of-file once its driver closes or dies.
    global _idle_pool, _idle_lock
    _idle_pool = None
    _idle_lock = threading.Lock()
    for executor in list(_live):
        executor.conn.close()
    _live.clear()


os.register_at_fork(after_in_child=_forget_executors)
# Registered after `multiprocessing`'s own exit hook, so it runs first:
# that hook joins the workers, which exit only once their pipes close.
atexit.register(lambda: _close(list(_live)))


def _close(pool: list[_Executor]) -> None:
    """Stop the workers: each reads end-of-file, or fails to send the
    result of an attempt no job waits for, and exits.  Every pipe closes
    before the first join, so the workers exit together."""
    for executor in pool:
        executor.conn.close()
    for executor in pool:
        executor.process.join()
        _live.discard(executor)


class ProcessBackend(Backend):
    """Process pool with cloudpickle task shipping.

    This is the backend with real Spark-like boundaries: closures must
    serialize, broadcast values are fetched from their backing files
    once per worker, and block-manager caches are per-process.

    The pool is one worker process per slot, each behind its own pipe,
    and the backend sends each task to a free executor, in slot order,
    as Spark's scheduler offers tasks to free executors: a task set's
    first wave lands on distinct workers, however warm they are.  The
    pool is leased, not owned: the backend takes the process's idle pool
    when its slot count matches and no worker died, and `shutdown` hands
    it back.  Every task carries the backend's lease number; a worker
    that sees a new one drops the broadcast values and cached blocks of
    the lease before (`executor.process_entry`).
    """

    name = "processes"

    def __init__(self, slots: int):
        global _idle_pool
        super().__init__(slots)
        self.lease = next(_leases)
        with _idle_lock:
            pool, _idle_pool = _idle_pool, None
        if (
            pool is None or len(pool) != slots
            or not all(e.process.is_alive() for e in pool)
        ):
            if pool is not None:
                _close(pool)
            # Imported before the fork, so that no worker imports it
            # again for its first task.
            import cloudpickle  # noqa: F401

            pool = [_Executor(self.lease) for _ in range(slots)]
        self._pool: list[_Executor] | None = pool
        # Executors running no attempt, in slot order, and executors
        # still running the attempt of a job that stopped waiting (it
        # aborted); the latter are freed once that attempt ends.
        self._free = list(pool)
        self._orphaned: list[_Executor] = []
        self._broken = False   # a worker died: no job runs here again
        self._changed = threading.Condition()

    def _reclaim(self) -> None:
        """Free the orphaned executors whose attempt ended (call under
        ``_changed``)."""
        for executor in list(self._orphaned):
            if executor.conn.poll():
                self._orphaned.remove(executor)
                try:
                    executor.conn.recv()
                except (EOFError, OSError):
                    self._broken = True
                    continue
                self._free.append(executor)

    def run(self, tasks: list[Task]) -> Iterator[TaskOutcome]:
        """Execute the given tasks, yielding outcomes as they complete."""
        import cloudpickle

        blobs = [cloudpickle.dumps(t) for t in reversed(tasks)]
        mine: set[_Executor] = set()

        def offer() -> None:
            while blobs and self._free:
                executor = self._free.pop(0)
                mine.add(executor)
                executor.conn.send((self.lease, blobs.pop()))

        try:
            while blobs or mine:
                with self._changed:
                    self._reclaim()
                    if self._broken:
                        raise BrokenProcessPool("an executor process died")
                    offer()
                    if not mine and not self._orphaned:
                        # Every executor runs another thread's job.
                        self._changed.wait()
                        continue
                    waiting = [e.conn for e in mine]
                    timeout = None
                    if blobs and self._orphaned:
                        waiting += [e.conn for e in self._orphaned]
                        timeout = _ORPHAN_POLL_S
                ready = wait_ready(waiting, timeout)
                done = [e for e in mine if e.conn in ready]
                replies = []
                for executor in done:
                    mine.discard(executor)
                    try:
                        replies.append(executor.conn.recv())
                    except (EOFError, OSError):
                        self._broken = True
                        raise BrokenProcessPool(
                            f"executor process {executor.process.pid} died "
                            "running a task"
                        ) from None
                # Refill the freed executors before handing anything back,
                # so they work while the caller handles the outcomes.
                with self._changed:
                    self._free += done
                    offer()
                    self._changed.notify_all()
                for payload, trailer in replies:
                    yield _unpack(payload, trailer)
        finally:
            with self._changed:
                self._orphaned += mine
                self._changed.notify_all()

    def shutdown(self) -> None:
        """Hand the pool back to the idle slot, or shut it down when a
        worker died, one of this backend's attempts still runs, or the
        slot is taken."""
        global _idle_pool
        pool, self._pool = self._pool, None
        if pool is None:
            return
        with self._changed:
            self._reclaim()
            reusable = not self._broken and len(self._free) == len(pool)
        if reusable and all(e.process.is_alive() for e in pool):
            with _idle_lock:
                if _idle_pool is None:
                    _idle_pool = pool
                    return
        _close(pool)


def _unpack(payload: bytes | None, trailer: Any) -> TaskOutcome:
    """The outcome in a worker's envelope (`executor.process_entry`): the
    pickled outcome plus a trailer timing its own serialization, measured
    after the outcome's telemetry buffer was sealed.  A ``None`` payload
    carries the exception that kept the task from unpickling."""
    if payload is None:
        raise trailer
    outcome: TaskOutcome = pickle.loads(payload)
    if trailer is not None and outcome.telemetry is not None:
        outcome.telemetry.add_span(
            "task.serialize", start=trailer["start"],
            dur=trailer["dur"], nbytes=trailer["nbytes"],
        )
    return outcome


def make_backend(
    master: str,
    block_manager: BlockManager,
    factory: Callable[[str, int, BlockManager], Backend] | None = None,
) -> Backend:
    """Instantiate the backend named by ``master``."""
    mode, slots = parse_master(master)
    if factory is not None:
        return factory(mode, slots, block_manager)
    if mode == "local":
        return LocalBackend(slots, block_manager)
    if mode == "simulated":
        return SimulatedBackend(slots, block_manager)
    if mode == "threads":
        return ThreadBackend(slots, block_manager)
    if mode == "processes":
        return ProcessBackend(slots)
    raise AssertionError(f"unreachable mode {mode}")  # pragma: no cover
