"""Block manager: the executor-side cache backing ``rdd.persist()``.

Blocks are materialized partition lists held in memory.  Eviction drops
blocks; lineage makes that safe because a lost block is recomputed from
the parent RDD — the fault-recovery mechanism the paper contrasts
against MapReduce's replication (Section II-B, "Spark reconstructs RDDs
via lineage").
"""

from __future__ import annotations

import threading
from typing import Any


class BlockManager:
    """Stores materialized RDD partitions keyed by (rdd_id, partition)."""

    def __init__(self) -> None:
        self._memory: dict[tuple[int, int], list[Any]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def put(self, rdd_id: int, partition: int, data: list[Any]) -> None:
        """Store a materialized partition."""
        with self._lock:
            self._memory[(rdd_id, partition)] = data

    def get(self, rdd_id: int, partition: int) -> list[Any] | None:
        """Fetch a cached partition, or None on a miss."""
        with self._lock:
            data = self._memory.get((rdd_id, partition))
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
        return data

    def evict(self, rdd_id: int, partition: int | None = None) -> int:
        """Drop cached blocks for an RDD (all partitions if None). Returns count."""
        with self._lock:
            doomed = [
                key for key in self._memory
                if key[0] == rdd_id and (partition is None or key[1] == partition)
            ]
            for key in doomed:
                del self._memory[key]
        return len(doomed)

    def clear(self) -> None:
        """Drop every cached block."""
        with self._lock:
            self._memory.clear()

    @property
    def num_memory_blocks(self) -> int:
        """Count of cached blocks."""
        with self._lock:
            return len(self._memory)
