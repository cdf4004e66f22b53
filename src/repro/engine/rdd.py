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

import itertools
import threading
from collections import defaultdict
from typing import Any, Callable, Generic, Iterable, Iterator, TypeVar

from .partitioner import HashPartitioner, Partitioner
from .storage import BlockManager, StorageLevel

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
    """Each child partition depends on a bounded set of parent partitions.

    ``parent_partitions(i)`` lists the parent splits feeding child split i.
    """

    def __init__(self, parent: "RDD[Any]", mapping: Callable[[int], list[int]] | None = None):
        super().__init__(parent)
        self._mapping = mapping or (lambda i: [i])

    def parent_partitions(self, child_partition: int) -> list[int]:
        """Parent splits feeding the given child split."""
        return self._mapping(child_partition)


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
        self.storage_level: StorageLevel | None = None

    # -- pickling: the context never travels to executors -----------------
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state["ctx"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)

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
        if self.storage_level is not None:
            cached = runtime.block_manager.get(self.rdd_id, split)
            if cached is not None:
                return iter(cached)
            data = list(self.compute(split, runtime))
            runtime.block_manager.put(self.rdd_id, split, data, self.storage_level)
            return iter(data)
        return self.compute(split, runtime)

    # -- persistence ---------------------------------------------------------
    def persist(self, level: StorageLevel = StorageLevel.MEMORY) -> "RDD[T]":
        """Materialize partitions into the block manager on first compute."""
        self.storage_level = level
        return self

    def cache(self) -> "RDD[T]":
        """Shorthand for ``persist(StorageLevel.MEMORY)``."""
        return self.persist(StorageLevel.MEMORY)

    def unpersist(self) -> "RDD[T]":
        """Drop cached blocks; future actions recompute via lineage."""
        self.storage_level = None
        if self.ctx is not None:
            self.ctx.block_manager.evict(self.rdd_id)
        return self

    # -- transformations (lazy) ---------------------------------------------
    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        """Element-wise transformation."""
        return MappedRDD(self, f)

    def filter(self, f: Callable[[T], bool]) -> "RDD[T]":
        """Keep elements where ``f`` is true."""
        return FilteredRDD(self, f)

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Map each element to zero or more outputs."""
        return FlatMappedRDD(self, f)

    def map_partitions(self, f: Callable[[Iterator[T]], Iterable[U]]) -> "RDD[U]":
        """Transform a whole partition's iterator at once."""
        return MapPartitionsRDD(self, lambda _i, it: f(it))

    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Like map_partitions, with the partition index as first argument."""
        return MapPartitionsRDD(self, f)

    def glom(self) -> "RDD[list[T]]":
        """One list per partition (debug/inspection helper)."""
        return MapPartitionsRDD(self, lambda _i, it: [list(it)])

    def union(self, other: "RDD[T]") -> "RDD[T]":
        """Concatenate two RDDs (partitions are kept side by side)."""
        return UnionRDD(self, other)

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair each element with its global index (requires a count pass)."""
        sizes = self.map_partitions(lambda it: [sum(1 for _ in it)]).collect()
        offsets = [0]
        for s in sizes[:-1]:
            offsets.append(offsets[-1] + s)

        def with_index(i: int, it: Iterator[T]) -> Iterator[tuple[T, int]]:
            for j, x in enumerate(it):
                yield (x, offsets[i] + j)

        return MapPartitionsRDD(self, with_index)

    def key_by(self, f: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        """Pair each element with ``f(element)`` as its key."""
        return self.map(lambda x: (f(x), x))

    def map_values(self: "RDD[tuple[K, V]]", f: Callable[[V], U]) -> "RDD[tuple[K, U]]":
        """Transform values, preserving keys (and partitioning)."""
        return self.map(lambda kv: (kv[0], f(kv[1])))

    def partition_by(
        self: "RDD[tuple[K, V]]", partitioner: Partitioner
    ) -> "RDD[tuple[K, V]]":
        """Shuffle pairs so each key lands on ``partitioner``'s partition."""
        return ShuffledRDD(self, partitioner)

    def group_by_key(
        self: "RDD[tuple[K, V]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, list[V]]]":
        """Group values sharing a key (shuffles, then groups per partition)."""
        p = HashPartitioner(num_partitions or self.num_partitions)
        shuffled = ShuffledRDD(self, p)

        def group(it: Iterator[tuple[K, V]]) -> Iterator[tuple[K, list[V]]]:
            acc: dict[K, list[V]] = defaultdict(list)
            for k, v in it:
                acc[k].append(v)
            yield from acc.items()

        return shuffled.map_partitions(group)

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
        combined = MapPartitionsRDD(self, lambda _i, it: combine(it))
        shuffled = ShuffledRDD(combined, p)
        return MapPartitionsRDD(shuffled, lambda _i, it: combine(it))

    def distinct(self, num_partitions: int | None = None) -> "RDD[T]":
        """Unique elements (via a shuffle)."""
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .map(lambda kv: kv[0])
        )

    def coalesce(self, num_partitions: int) -> "RDD[T]":
        """Shrink the partition count without shuffling."""
        return CoalescedRDD(self, num_partitions)

    def sample(self, fraction: float, seed: int = 0) -> "RDD[T]":
        """Bernoulli sample of the RDD (deterministic in ``seed``)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def sample_partition(i: int, it: Iterator[T]) -> Iterator[T]:
            import random

            rng = random.Random((seed << 16) ^ i)
            return (x for x in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sample_partition)

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD[T]":
        """Globally sort via a sampled range partitioner + per-partition sort
        (the same two-phase strategy Spark uses)."""
        from .partitioner import RangePartitioner

        p = num_partitions or self.num_partitions
        keys = sorted(key_func(x) for x in self.sample(min(1.0, 0.2)).collect())
        if not keys:
            keys = sorted(key_func(x) for x in self.collect())
        if p > 1 and keys:
            step = max(1, len(keys) // p)
            bounds = keys[step::step][: p - 1]
        else:
            bounds = []
        partitioner = RangePartitioner(bounds) if bounds else HashPartitioner(1)
        shuffled = ShuffledRDD(self.map(lambda x: (key_func(x), x)), partitioner)

        def sort_partition(it: Iterator[tuple[Any, T]]) -> Iterator[T]:
            items = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _k, v in items)

        out = shuffled.map_partitions(sort_partition)
        if not ascending:
            # Range partitions are in ascending key order; emit them reversed.
            return ReorderedPartitionsRDD(out, list(reversed(range(out.num_partitions))))
        return out

    def cartesian(self, other: "RDD[U]") -> "RDD[tuple[T, U]]":
        """All pairs (x, y).  The right side is collected per task — fine
        at mini scale, quadratic like the real thing."""
        other_data = other.glom().collect()

        def pairs(i: int, it: Iterator[T]) -> Iterator[tuple[T, U]]:
            for x in it:
                for chunk in other_data:
                    for y in chunk:
                        yield (x, y)

        return MapPartitionsRDD(self, pairs)

    def keys(self: "RDD[tuple[K, V]]") -> "RDD[K]":
        """First elements of the pairs."""
        return self.map(lambda kv: kv[0])

    def values(self: "RDD[tuple[K, V]]") -> "RDD[V]":
        """Second elements of the pairs."""
        return self.map(lambda kv: kv[1])

    def flat_map_values(
        self: "RDD[tuple[K, V]]", f: Callable[[V], Iterable[U]]
    ) -> "RDD[tuple[K, U]]":
        """flat_map over values, preserving keys."""
        return self.flat_map(lambda kv: ((kv[0], u) for u in f(kv[1])))

    def cogroup(
        self: "RDD[tuple[K, V]]",
        other: "RDD[tuple[K, U]]",
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, tuple[list[V], list[U]]]]":
        """Group both RDDs by key into ``(key, ([lefts], [rights]))`` —
        the primitive all join flavours are built on."""
        left = self.map_values(lambda v: (0, v))
        right = other.map_values(lambda v: (1, v))
        grouped = left.union(right).group_by_key(
            num_partitions or max(self.num_partitions, other.num_partitions)
        )

        def split(kv: tuple[K, list[tuple[int, Any]]]) -> tuple[K, tuple[list[V], list[U]]]:
            k, tagged = kv
            lefts = [v for tag, v in tagged if tag == 0]
            rights = [v for tag, v in tagged if tag == 1]
            return (k, (lefts, rights))

        return grouped.map(split)

    def join(
        self: "RDD[tuple[K, V]]",
        other: "RDD[tuple[K, U]]",
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, tuple[V, U]]]":
        """Inner join by key."""

        def emit(kv: tuple[K, tuple[list[V], list[U]]]) -> Iterator[tuple[K, tuple[V, U]]]:
            """Append an event (and stream it to the log file, if any)."""
            k, (lefts, rights) = kv
            for lv in lefts:
                for rv in rights:
                    yield (k, (lv, rv))

        return self.cogroup(other, num_partitions).flat_map(emit)

    def left_outer_join(
        self: "RDD[tuple[K, V]]",
        other: "RDD[tuple[K, U]]",
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, tuple[V, U | None]]]":
        """Left outer join: unmatched left keys pair with None."""

        def emit(kv: tuple[K, tuple[list[V], list[U]]]) -> Iterator[tuple[K, tuple[V, U | None]]]:
            """Append an event (and stream it to the log file, if any)."""
            k, (lefts, rights) = kv
            for lv in lefts:
                if rights:
                    for rv in rights:
                        yield (k, (lv, rv))
                else:
                    yield (k, (lv, None))

        return self.cogroup(other, num_partitions).flat_map(emit)

    def subtract_by_key(
        self: "RDD[tuple[K, V]]",
        other: "RDD[tuple[K, Any]]",
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, V]]":
        """Pairs whose key does NOT appear in ``other``."""

        def emit(kv: tuple[K, tuple[list[V], list[Any]]]) -> Iterator[tuple[K, V]]:
            """Append an event (and stream it to the log file, if any)."""
            k, (lefts, rights) = kv
            if not rights:
                for lv in lefts:
                    yield (k, lv)

        return self.cogroup(other, num_partitions).flat_map(emit)

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

    def reduce(self, f: Callable[[T, T], T]) -> T:
        """Fold all elements with an associative operator (empty RDD raises)."""
        def reduce_partition(_i: int, it: Iterator[T]) -> list[T]:
            acc = None
            empty = True
            for x in it:
                acc = x if empty else f(acc, x)
                empty = False
            return [] if empty else [acc]

        parts = [x for chunk in self._run(reduce_partition) for x in chunk]
        if not parts:
            raise ValueError("reduce() of empty RDD")
        out = parts[0]
        for x in parts[1:]:
            out = f(out, x)
        return out

    def take(self, n: int) -> list[T]:
        """First n elements."""
        # Simple implementation: collect then slice (fine at mini scale).
        return self.collect()[:n]

    def first(self) -> T:
        """First element (raises on an empty RDD)."""
        items = self.take(1)
        if not items:
            raise ValueError("first() of empty RDD")
        return items[0]

    def sum(self) -> Any:
        """Sum of all elements."""
        return sum(self._run(lambda _i, it: sum(it)))

    def fold(self, zero: T, f: Callable[[T, T], T]) -> T:
        """Like reduce, but with a neutral element (safe on empty RDDs)."""
        def fold_partition(_i: int, it: Iterator[T]) -> T:
            acc = zero
            for x in it:
                acc = f(acc, x)
            return acc

        out = zero
        for part in self._run(fold_partition):
            out = f(out, part)
        return out

    def aggregate(
        self,
        zero: U,
        seq_op: Callable[[U, T], U],
        comb_op: Callable[[U, U], U],
    ) -> U:
        """Two-operator aggregation: ``seq_op`` folds within a partition,
        ``comb_op`` merges partition results (Spark's aggregate).

        The zero value is deep-copied per partition (as Spark does), so
        mutable accumulators are safe.
        """
        import copy

        def agg_partition(_i: int, it: Iterator[T]) -> U:
            acc = copy.deepcopy(zero)
            for x in it:
                acc = seq_op(acc, x)
            return acc

        parts = self._run(agg_partition)
        out = copy.deepcopy(zero)
        for p in parts:
            out = comb_op(out, p)
        return out

    def max(self) -> T:
        """Largest element."""
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> T:
        """Smallest element."""
        return self.reduce(lambda a, b: a if a <= b else b)

    def take_ordered(self, n: int, key: Callable[[T], Any] | None = None) -> list[T]:
        """The n smallest elements (by ``key``), merged from per-partition
        heaps — no global sort."""
        import heapq

        if n <= 0:
            return []
        chunks = self._run(lambda _i, it: heapq.nsmallest(n, it, key=key))
        return heapq.nsmallest(n, [x for c in chunks for x in c], key=key)

    def stats(self) -> "StatCounter":
        """Count / mean / variance / min / max in one pass (numerically
        stable parallel Welford merge, like Spark's StatCounter)."""
        return self.aggregate(
            StatCounter(), lambda s, x: s.add(x), lambda a, b: a.merge(b)
        )

    def foreach(self, f: Callable[[T], None]) -> None:
        """Run ``f`` on every element for its side effects (on executors)."""
        def run(_i: int, it: Iterator[T]) -> None:
            """Execute the given tasks, yielding outcomes as they complete."""
            for x in it:
                f(x)

        self._run(run)

    def foreach_partition(self, f: Callable[[Iterator[T]], None]) -> None:
        """Run ``f`` once per partition iterator (on executors)."""
        self._run(lambda _i, it: f(it))

    def foreach_partition_with_index(self, f: Callable[[int, Iterator[T]], None]) -> None:
        """Like foreach_partition, with the partition index as first arg."""
        self._run(lambda i, it: f(i, it))

    def collect_as_map(self: "RDD[tuple[K, V]]") -> dict[K, V]:
        """Collect pairs into a dict (later keys win)."""
        return dict(self.collect())

    def count_by_key(self: "RDD[tuple[K, V]]") -> dict[K, int]:
        """Occurrences of each key."""
        out: dict[K, int] = defaultdict(int)
        for k, n in self.map(lambda kv: (kv[0], 1)).reduce_by_key(lambda a, b: a + b).collect():
            out[k] = n
        return dict(out)

    def save_as_text_file(self, path: str) -> None:
        """Write one ``part-NNNNN`` file per partition under ``path``."""
        import os

        os.makedirs(path, exist_ok=True)
        chunks = self._run(lambda i, it: (i, [str(x) for x in it]))
        for i, lines in chunks:
            with open(os.path.join(path, f"part-{i:05d}"), "w") as f:
                for line in lines:
                    f.write(line + "\n")


class StatCounter:
    """Mergeable streaming statistics (count, mean, variance, min, max)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, x: float) -> "StatCounter":
        """Add one element."""
        x = float(x)
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (x - self.mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        return self

    def merge(self, other: "StatCounter") -> "StatCounter":
        """Merge another instance into this one; returns self."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            self.min, self.max = other.min, other.max
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return self.variance ** 0.5

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StatCounter(count={self.count}, mean={self.mean:.6g}, "
            f"stdev={self.stdev:.6g}, min={self.min:.6g}, max={self.max:.6g})"
        )


class ParallelCollectionRDD(RDD[T]):
    """Source RDD over an in-memory sequence, sliced into partitions."""

    def __init__(self, ctx: Any, data: Iterable[T], num_partitions: int):
        items = list(data)
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        super().__init__(ctx, [], num_partitions)
        base, extra = divmod(len(items), num_partitions)
        self._slices: list[list[T]] = []
        start = 0
        for i in range(num_partitions):
            size = base + (1 if i < extra else 0)
            self._slices.append(items[start : start + size])
            start += size

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


class MappedRDD(RDD[U]):
    """map() as a concrete RDD node."""
    def __init__(self, parent: RDD[T], f: Callable[[T], U]):
        super().__init__(parent.ctx, [NarrowDependency(parent)], parent.num_partitions)
        self._parent = parent
        self._f = f

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[U]:
        """Compute one partition of this RDD."""
        return map(self._f, self._parent.iterator(split, runtime))


class FilteredRDD(RDD[T]):
    """filter() as a concrete RDD node."""
    def __init__(self, parent: RDD[T], f: Callable[[T], bool]):
        super().__init__(parent.ctx, [NarrowDependency(parent)], parent.num_partitions)
        self._parent = parent
        self._f = f

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        return filter(self._f, self._parent.iterator(split, runtime))


class FlatMappedRDD(RDD[U]):
    """flat_map() as a concrete RDD node."""
    def __init__(self, parent: RDD[T], f: Callable[[T], Iterable[U]]):
        super().__init__(parent.ctx, [NarrowDependency(parent)], parent.num_partitions)
        self._parent = parent
        self._f = f

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[U]:
        """Compute one partition of this RDD."""
        for x in self._parent.iterator(split, runtime):
            yield from self._f(x)


class MapPartitionsRDD(RDD[U]):
    """map_partitions_with_index() as a concrete RDD node."""
    def __init__(self, parent: RDD[T], f: Callable[[int, Iterator[T]], Iterable[U]]):
        super().__init__(parent.ctx, [NarrowDependency(parent)], parent.num_partitions)
        self._parent = parent
        self._f = f

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[U]:
        """Compute one partition of this RDD."""
        return iter(self._f(split, self._parent.iterator(split, runtime)))


class UnionRDD(RDD[T]):
    """Concatenation of two RDDs; child partitions map 1:1 onto parents'."""

    def __init__(self, left: RDD[T], right: RDD[T]):
        n_left = left.num_partitions
        mapping_left = lambda i: [i] if i < n_left else []  # noqa: E731
        mapping_right = lambda i: [i - n_left] if i >= n_left else []  # noqa: E731
        super().__init__(
            left.ctx,
            [NarrowDependency(left, mapping_left), NarrowDependency(right, mapping_right)],
            n_left + right.num_partitions,
        )
        self._left = left
        self._right = right
        self._n_left = n_left

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        if split < self._n_left:
            return self._left.iterator(split, runtime)
        return self._right.iterator(split - self._n_left, runtime)


class CoalescedRDD(RDD[T]):
    """Reduce partition count without a shuffle (narrow many-to-one dep)."""

    def __init__(self, parent: RDD[T], num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        n_parent = parent.num_partitions
        groups: list[list[int]] = [[] for _ in range(min(num_partitions, n_parent))]
        for i in range(n_parent):
            groups[i % len(groups)].append(i)
        super().__init__(
            parent.ctx,
            [NarrowDependency(parent, lambda i, g=groups: g[i])],
            len(groups),
        )
        self._parent = parent
        self._groups = groups

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        for p in self._groups[split]:
            yield from self._parent.iterator(p, runtime)


class ReorderedPartitionsRDD(RDD[T]):
    """Present a parent's partitions in a different order (narrow dep)."""

    def __init__(self, parent: RDD[T], order: list[int]):
        if sorted(order) != list(range(parent.num_partitions)):
            raise ValueError("order must be a permutation of parent partitions")
        super().__init__(
            parent.ctx,
            [NarrowDependency(parent, lambda i, o=order: [o[i]])],
            parent.num_partitions,
        )
        self._parent = parent
        self._order = order

    def compute(self, split: int, runtime: TaskRuntime) -> Iterator[T]:
        """Compute one partition of this RDD."""
        return self._parent.iterator(self._order[split], runtime)


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
