"""Resilient Distributed Datasets: lazy, lineage-tracked collections.

This module is the heart of the mini-Spark engine.  An `RDD` is an
immutable description of how to *compute* a partitioned collection:
either from a source (an in-memory list, a file) or by transforming
parent RDDs.  Nothing executes until an action is called; the
`DAGScheduler` then walks the lineage graph, cuts it into stages at
shuffle boundaries, and runs tasks.

Lineage is also the fault-tolerance story (paper Section II-B): a lost
partition — task crash, evicted cache block — is recomputed by
re-running `compute` on the same split, which is deterministic for all
transformations here.
"""

from __future__ import annotations

import copy
import itertools
import threading
from collections.abc import Sequence
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar

from .partitioner import HashPartitioner, IndexRangePartitioner, Partitioner
from .storage import BlockManager

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")

_next_rdd_id = itertools.count()
_id_lock = threading.Lock()


def _new_rdd_id() -> int:
    with _id_lock:
        return next(_next_rdd_id)


class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, parent: "RDD[Any]"):
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partition ``i`` depends on parent partition ``i`` only."""


class ShuffleDependency(Dependency):
    """A wide dependency: all parent partitions feed all child partitions."""

    def __init__(self, parent: "RDD[tuple[Any, Any]]", partitioner: Partitioner, shuffle_id: int):
        super().__init__(parent)
        self.partitioner = partitioner
        self.shuffle_id = shuffle_id


class TaskRuntime:
    """Per-task services handed to `RDD.compute`.

    - ``block_manager``: the executor-local cache for persisted RDDs.
    - ``shuffle_inputs``: map (shuffle_id, reduce_partition) -> list of
      bucket file paths, resolved by the driver when the task was built.
    """

    def __init__(
        self,
        block_manager: BlockManager,
        shuffle_inputs: dict[tuple[int, int], list[str]] | None = None,
    ):
        self.block_manager = block_manager
        self.shuffle_inputs = shuffle_inputs or {}


class RDD(Generic[T]):
    """Base RDD.  Subclasses implement `compute`; everything else is shared."""

    def __init__(self, ctx: Any, deps: list[Dependency], num_partitions: int):
        self.rdd_id = _new_rdd_id()
        self.ctx = ctx
        self.deps = deps
        self._num_partitions = num_partitions
        self.persisted = False

    # -- pickling: the context never travels to executors -----------------
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["ctx"] = None
        return state

    def for_split(self, split: int) -> "RDD[T]":
        """What a task for ``split`` ships: this lineage (same ``rdd_id``,
        so cached blocks match) down to that split's source data, or to a
        shuffle — the reduce side reads bucket files, not its parent."""
        shipped = copy.copy(self)
        shipped.deps = [
            NarrowDependency(dep.parent.for_split(split))
            for dep in self.deps if isinstance(dep, NarrowDependency)
        ]
        return shipped

    # -- structure ---------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of partitions in this RDD."""
        return self._num_partitions

    def partitions(self) -> range:
        """Iterable of partition indices."""
        return range(self._num_partitions)

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Produce the elements of one partition (subclass hook)."""
        raise NotImplementedError

    def iterator(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Cache-aware compute: serve from the block manager when persisted."""
        if not self.persisted:
            return self.compute(split, runtime)
        cached = runtime.block_manager.get(self.rdd_id, split)
        if cached is None:
            cached = list(self.compute(split, runtime))
            runtime.block_manager.put(self.rdd_id, split, cached)
        return iter(cached)

    # -- persistence ---------------------------------------------------------
    def persist(self) -> "RDD[T]":
        """Materialize partitions into the block manager on first compute."""
        self.persisted = True
        return self

    def cache(self) -> "RDD[T]":
        """Spark's other spelling of ``persist()``."""
        return self.persist()

    def unpersist(self) -> "RDD[T]":
        """Drop cached blocks; future actions recompute via lineage."""
        self.persisted = False
        if self.ctx is not None:
            self.ctx.block_manager.evict(self.rdd_id)
        return self

    # -- transformations (lazy) ---------------------------------------------
    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        """Element-wise transformation."""
        return MapPartitionsRDD(self, lambda _i, it: map(f, it))

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Map each element to zero or more outputs."""
        return MapPartitionsRDD(
            self, lambda _i, it: itertools.chain.from_iterable(map(f, it))
        )

    def map_partitions(self, f: Callable[[Iterator[T]], Iterable[U]]) -> "RDD[U]":
        """Transform a whole partition's iterator at once."""
        return MapPartitionsRDD(self, lambda _i, it: f(it))

    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Like map_partitions, with the partition index as first argument."""
        return MapPartitionsRDD(self, f)

    def reduce_by_key(
        self: "RDD[tuple[K, V]]",
        f: Callable[[V, V], V],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, V]]":
        """Per-batch reduce of values sharing a key."""
        p = HashPartitioner(num_partitions or self.num_partitions)

        def combine(it: Iterator[tuple[K, V]]) -> Iterator[tuple[K, V]]:
            acc: dict[K, V] = {}
            for k, v in it:
                acc[k] = f(acc[k], v) if k in acc else v
            yield from acc.items()

        # map-side combine, then shuffle, then reduce-side combine
        return ShuffledRDD(self.map_partitions(combine), p).map_partitions(combine)

    # -- actions (eager) ------------------------------------------------------
    def _run(self, func: Callable[[int, Iterator[T]], U]) -> list[U]:
        if self.ctx is None:
            raise RuntimeError("actions can only be invoked on the driver")
        return self.ctx.run_job(self, func)

    def collect(self) -> list[T]:
        """Materialize every element on the driver, in partition order."""
        chunks = self._run(lambda _i, it: list(it))
        return [x for chunk in chunks for x in chunk]

    def count(self) -> int:
        """Number of elements."""
        return sum(self._run(lambda _i, it: sum(1 for _ in it)))

    def foreach(self, f: Callable[[T], None]) -> None:
        """Run ``f`` on every element for its side effects (on executors)."""
        def run(_i: int, it: Iterator[T]) -> None:
            """Apply ``f`` to each element of one partition."""
            for x in it:
                f(x)

        self._run(run)

    def foreach_partition_with_index(self, f: Callable[[int, Iterator[T]], None]) -> None:
        """Run ``f(index, iterator)`` once per partition (on executors)."""
        self._run(f)


class ParallelCollectionRDD(RDD[T]):
    """Source RDD over an in-memory sequence, sliced into the index ranges
    of `IndexRangePartitioner` (the SEED test reads the same ranges)."""

    def __init__(self, ctx: Any, data: Iterable[T], num_partitions: int):
        # Sliced as it is, a range stays O(1) per split, also on the wire.
        items = data if isinstance(data, Sequence) else list(data)
        ranges = IndexRangePartitioner(len(items), num_partitions)
        super().__init__(ctx, [], num_partitions)
        self._slices: dict[int, Sequence[T]] = {
            i: items[slice(*ranges.range_of(i))] for i in range(num_partitions)
        }

    def for_split(self, split: int) -> "RDD[T]":
        shipped = super().for_split(split)
        shipped._slices = {split: self._slices[split]}
        return shipped

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        return iter(self._slices[split])


class SourceRDD(RDD[T]):
    """RDD over any external source exposing ``num_splits()``/``read_split(i)``.

    `SparkContext.text_file` plugs a `LocalTextFileSource` in here, which
    is how "read an input file from HDFS and generate RDDs" (Algorithm 2,
    line 1) is realised.
    """

    def __init__(self, ctx: Any, source: Any):
        super().__init__(ctx, [], source.num_splits())
        self._source = source

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        return iter(self._source.read_split(split))


class MapPartitionsRDD(RDD[U]):
    """The one narrow node: ``f(split, parent iterator)`` per partition.

    `map`, `flat_map` and both `map_partitions*` build it, as Spark's do.
    """

    def __init__(self, parent: RDD[T], f: Callable[[int, Iterator[T]], Iterable[U]]):
        super().__init__(parent.ctx, [NarrowDependency(parent)], parent.num_partitions)
        self._f = f

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[U]:
        """Compute one partition of this RDD."""
        return iter(self._f(split, self.deps[0].parent.iterator(split, runtime)))


class ShuffledRDD(RDD[tuple[K, V]]):
    """Reduce side of a shuffle: reads the bucket files addressed to it.

    The map side is executed by the DAGScheduler as a separate
    ShuffleMapStage; by the time this RDD computes, its input paths are
    in ``runtime.shuffle_inputs``.
    """

    def __init__(self, parent: RDD[tuple[K, V]], partitioner: Partitioner):
        if parent.ctx is None:
            raise RuntimeError("ShuffledRDD must be created on the driver")
        shuffle_id = parent.ctx.shuffle_manager.new_shuffle_id()
        super().__init__(
            parent.ctx,
            [ShuffleDependency(parent, partitioner, shuffle_id)],
            partitioner.num_partitions,
        )
        self.shuffle_id = shuffle_id
        self.partitioner = partitioner

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[tuple[K, V]]:
        """Compute one partition of this RDD."""
        from .shuffle import read_reduce_input

        paths = runtime.shuffle_inputs.get((self.shuffle_id, split))
        if paths is None:
            raise RuntimeError(
                f"shuffle {self.shuffle_id} inputs for partition {split} were not "
                "resolved; was this RDD computed outside the scheduler?"
            )
        return read_reduce_input(paths)
