"""Execution backends: where tasks physically run.

Four backends, selected by the master URL:

- ``local`` / ``local[1]``      — serial in the driver thread; deterministic.
  ``local[n]`` for n > 1 is rejected: this backend cannot deliver the
  requested parallelism (use ``threads[n]``/``processes[n]`` for real
  concurrency, or ``simulated[n]`` for measured-makespan analysis).
- ``threads[n]``                — a thread pool; real concurrency for
  I/O-bound tasks (numpy releases the GIL in hot kernels).
- ``processes[n]``              — a process pool that pickles its tasks
  (cloudpickle as the fallback), one task binary per stage; true
  parallelism, true serialization boundaries.  The pool outlives the
  context: the next ``processes[n]`` context leases it.
- ``simulated[n]``              — runs tasks serially but *times each one*;
  job wall-clock on n virtual slots is then the measured-task makespan.
  This is how the paper's 64–512-core runs (Figure 8e/f) are reproduced
  on a small machine: per-partition work is measured, only the slot
  count is virtual.
"""

from __future__ import annotations

import atexit
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

from .executor import Task, TaskOutcome, dumps, run_task, serve
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

    def evict(self, rdd_id: int) -> None:
        """Drop an unpersisted RDD's blocks from executor-local caches (the
        driver's block manager, which in-process backends share, is
        evicted by `RDD.unpersist`)."""

    def drop_broadcast(self, key: int) -> None:
        """Drop an unpersisted broadcast's value from executor-local
        caches (in-process backends share the driver's, which
        `Broadcast.unpersist` clears)."""

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
# Every executor not yet closed, so that a forked child drops its copies
# of their pipes and interpreter exit stops their workers.
_live: weakref.WeakSet[_Executor] = weakref.WeakSet()
# How long a job waits on orphaned executors' pipes before it looks
# again: another driver thread may reclaim an orphan first, after which
# that pipe stays silent.
_ORPHAN_POLL_S = 0.05
# The largest task message queued behind a running task.  A pipe is a
# socket pair whose buffer holds 208 KiB on Linux by default, so such a
# message fits whole and its send returns even while the worker, done
# with the task it runs, blocks sending a large reply to this driver.
QUEUE_MAX_BYTES = 64 * 1024


class _Executor:
    """One worker process, fed tasks over its own pipe: the one it runs
    and at most one queued behind it."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        _live.add(self)
        self.process = multiprocessing.Process(
            target=serve, args=(child,), name="repro-executor"
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
    """Process pool that pickles its tasks, with cloudpickle as the
    fallback (`executor.dumps`).

    This is the backend with real Spark-like boundaries: closures must
    serialize, broadcast values are fetched from their backing files
    once per worker, and block-manager caches are per-process.  As
    Spark's DAGScheduler does, `run` pickles each stage's closure
    once (`Task.stage_part`) and each task only its own part
    (`Task.own_part`).

    The pool is one worker process per slot, each behind its own pipe,
    and the backend sends each task to a free executor, in slot order,
    as Spark's scheduler offers tasks to free executors: a task set's
    first wave lands on distinct workers, however warm they are.  Then
    each of the job's executors gets one more task, of at most
    `QUEUE_MAX_BYTES`, queued behind the one it runs, so a worker goes
    from its reply to its next task without waiting for the driver.  The
    pool is leased, not owned: the backend takes the process's idle pool
    when its slot count matches and no worker died, and `shutdown` hands
    it back with an end-of-lease message, on which each worker drops the
    stopped context's broadcast values and cached blocks
    (`executor.serve`).  Within a lease, an unpersisted RDD's blocks and
    a released broadcast's value go with the worker's next task.
    """

    name = "processes"

    def __init__(self, slots: int):
        global _idle_pool
        super().__init__(slots)
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

            pool = [_Executor() for _ in range(slots)]
        self._pool: list[_Executor] | None = pool
        # Executors running no attempt, in slot order, and executors
        # still running attempts of a job that stopped waiting (it
        # aborted), with the number of replies each still owes; the
        # latter are freed once every one of those replies is read.
        self._free = list(pool)
        self._orphaned: dict[_Executor, int] = {}
        # RDD ids unpersisted and broadcast keys released since each
        # executor's last task message.
        self._dropped: dict[_Executor, tuple[list[int], list[int]]] = {
            e: ([], []) for e in pool
        }
        self._broken = False   # a worker died: no job runs here again
        self._changed = threading.Condition()

    def _reclaim(self) -> None:
        """Read the replies of orphaned attempts that ended, and free the
        executors that owe none any more (call under ``_changed``)."""
        for executor, owed in list(self._orphaned.items()):
            try:
                while owed and executor.conn.poll():
                    executor.conn.recv()
                    owed -= 1
            except (EOFError, OSError):
                del self._orphaned[executor]
                self._broken = True
                continue
            if owed:
                self._orphaned[executor] = owed
            else:
                del self._orphaned[executor]
                self._free.append(executor)

    def evict(self, rdd_id: int) -> None:
        """Queue ``rdd_id`` for every executor; its next task message
        carries it, and the worker evicts the blocks before running it."""
        self._queue(0, rdd_id)

    def drop_broadcast(self, key: int) -> None:
        """Queue a broadcast ``key`` the way `evict` queues an RDD id."""
        self._queue(1, key)

    def _queue(self, kind: int, ident: int) -> None:
        with self._changed:
            for queued in self._dropped.values():
                queued[kind].append(ident)

    def run(self, tasks: list[Task]) -> Iterator[TaskOutcome]:
        """Execute the given tasks, yielding outcomes as they complete."""
        blobs = _pack(tasks)[::-1]
        # This job's executors and the replies each owes: 1 while it
        # runs a task, 2 while another is queued behind it.
        mine: dict[_Executor, int] = {}

        def send(executor: _Executor) -> None:
            dropped, self._dropped[executor] = (
                self._dropped[executor], ([], [])
            )
            executor.conn.send((dropped, *blobs.pop()))
            mine[executor] = mine.get(executor, 0) + 1

        def offer() -> None:
            while blobs and self._free:
                send(self._free.pop(0))
            for executor in list(mine):
                if not blobs or sum(map(len, blobs[-1])) > QUEUE_MAX_BYTES:
                    return   # a larger task waits for a free executor
                if mine[executor] == 1:
                    send(executor)

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
                    try:
                        replies.append(executor.conn.recv())
                    except (EOFError, OSError):
                        self._broken = True
                        raise BrokenProcessPool(
                            f"executor process {executor.process.pid} died "
                            "running a task"
                        ) from None
                    mine[executor] -= 1
                # Refill the freed executors before handing anything back,
                # so they work while the caller handles the outcomes.
                with self._changed:
                    for executor in done:
                        if not mine[executor]:
                            del mine[executor]
                            self._free.append(executor)
                    offer()
                    self._changed.notify_all()
                for payload, trailer in replies:
                    yield _unpack(payload, trailer)
        finally:
            with self._changed:
                self._orphaned.update(mine)
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
            try:
                for executor in pool:
                    executor.conn.send(None)   # end of lease
            except OSError:
                pass   # a worker died since: shut the pool down
            else:
                with _idle_lock:
                    if _idle_pool is None:
                        _idle_pool = pool
                        return
        _close(pool)


def _pack(tasks: list[Task]) -> list[tuple[bytes, bytes]]:
    """Each task's ``(binary, part)``: the pickled `Task.stage_part`,
    once per stage and shared by its tasks, and its own `Task.own_part`
    (`executor.dumps`)."""
    binaries: dict[tuple[int, int, int], bytes] = {}
    packed = []
    for task in tasks:
        stage = (id(task.rdd), id(task.func), id(task.partitioner))
        if stage not in binaries:
            binaries[stage] = dumps(task.stage_part())[0]
        packed.append((binaries[stage], dumps(task.own_part())[0]))
    return packed


def _unpack(payload: bytes | None, trailer: Any) -> TaskOutcome:
    """The outcome in a worker's envelope (`executor.process_entry`): the
    pickled outcome plus a trailer timing its own serialization, measured
    after the outcome's worker tracer was sealed, and naming the codec
    that made it.  A ``None`` payload carries the exception that kept
    the task from unpickling."""
    if payload is None:
        raise trailer
    outcome: TaskOutcome = pickle.loads(payload)
    if trailer is not None and outcome.telemetry is not None:
        outcome.telemetry.add_span(
            "task.serialize", trailer["dur"], cat="worker",
            start=trailer["start"], nbytes=trailer["nbytes"],
            codec=trailer["codec"],
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
