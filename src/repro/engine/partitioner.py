"""Partitioners: decide which output partition a key belongs to.

`HashPartitioner` is Spark's shuffle default.  The paper's DBSCAN
partitions point *indices* into contiguous ranges (Section IV-A: "If the
current point's index is beyond the range of the current partition it is
taken as a SEED"), which is exactly what `IndexRangePartitioner`
provides; `LookupPartitioner` is its table-driven twin for the cell plan.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import Any


class Partitioner:
    """Base partitioner interface."""

    def __init__(self, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        """Output partition for the given key."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:  # pragma: no cover - identity-ish hash
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Partition by ``hash(key) mod p`` — Spark's default for shuffles."""

    def partition(self, key: Any) -> int:
        """Output partition for the given key."""
        return hash(key) % self.num_partitions


class LookupPartitioner(Partitioner):
    """Explicit key → partition table over integer keys ``0..n-1``.

    The cell-partitioned DBSCAN plan owns *scattered* point ids per
    partition (whole grid cells, balanced by load), so contiguous range
    arithmetic cannot answer "whose point is this?"; a precomputed
    table can.  ``table`` may be any integer sequence (typically a numpy
    array) and is held, not copied.
    """

    def __init__(self, table: Sequence[int], num_partitions: int):
        super().__init__(num_partitions)
        self.table = table
        self.n = len(table)

    def partition(self, key: int) -> int:
        """Output partition for the given key."""
        if not 0 <= key < self.n:
            raise IndexError(f"index {key} outside [0, {self.n})")
        return int(self.table[key])

    def owns(self, partition: int, key: int) -> bool:
        """True iff ``key`` is assigned to ``partition``."""
        return self.partition(key) == partition

    def __eq__(self, other: object) -> bool:
        # The base dict comparison trips over numpy tables (elementwise
        # == yields an array); compare the materialised mapping instead.
        return (
            type(self) is type(other)
            and self.num_partitions == other.num_partitions
            and list(self.table) == list(other.table)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity-ish hash
        return hash((type(self).__name__, self.num_partitions, self.n))


class IndexRangePartitioner(Partitioner):
    """Contiguous index ranges over ``0..n-1``, the paper's partitioning.

    Partition ``i`` owns indices ``[start(i), end(i))`` with sizes as even
    as possible (the first ``n % p`` partitions get one extra element).
    """

    def __init__(self, n: int, num_partitions: int):
        super().__init__(num_partitions)
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.n = n
        base, extra = divmod(n, num_partitions)
        # length p + 1; _starts[p] == n
        self._starts = [i * base + min(i, extra) for i in range(num_partitions + 1)]

    def range_of(self, partition: int) -> tuple[int, int]:
        """Return the half-open index range ``[start, end)`` of a partition."""
        if not 0 <= partition < self.num_partitions:
            raise IndexError(f"partition {partition} out of range")
        return self._starts[partition], self._starts[partition + 1]

    def partition(self, key: int) -> int:
        """Output partition for the given key."""
        if not 0 <= key < self.n:
            raise IndexError(f"index {key} outside [0, {self.n})")
        # binary search over starts: rightmost start <= key
        return bisect.bisect_right(self._starts, key) - 1

    def owns(self, partition: int, key: int) -> bool:
        """True iff ``key`` falls inside ``partition``'s index range."""
        lo, hi = self.range_of(partition)
        return lo <= key < hi
