"""Shuffle machinery: map-side bucket writes, reduce-side fetches.

The paper's core argument (Section IV-A) is that shuffles are the
expensive operation to avoid.  To *measure* that claim (Ablation D) we
need a real shuffle: map tasks partition their key/value output into
per-reducer buckets and persist them; reduce tasks fetch and merge the
buckets addressed to them.

Buckets are written as pickle files in a spill directory so the shuffle
works identically across the local/threads/processes backends — and so
the disk-materialisation cost that makes shuffles expensive is actually
paid, not hand-waved.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import defaultdict
from typing import Any, Iterable, Iterator

from .errors import ShuffleFetchError
from .partitioner import Partitioner


class ShuffleManager:
    """Driver-owned registry of shuffle outputs.

    Map outputs are files on local disk; the manager only tracks paths,
    so worker processes can write buckets and report paths back through
    task results.
    """

    def __init__(self, spill_dir: str):
        self._spill_dir = spill_dir
        # (shuffle_id, map_partition) -> {reduce_partition: path}
        self._outputs: dict[tuple[int, int], dict[int, str]] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self.bytes_written = 0
        self.bytes_read = 0

    def new_shuffle_id(self) -> int:
        """Allocate a fresh shuffle id."""
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        return sid

    def bucket_dir(self, shuffle_id: int) -> str:
        """Directory holding this shuffle's bucket files."""
        d = os.path.join(self._spill_dir, f"shuffle-{shuffle_id}")
        os.makedirs(d, exist_ok=True)
        return d

    def register_map_output(
        self, shuffle_id: int, map_partition: int, paths: dict[int, str]
    ) -> None:
        """Record one map task's bucket paths."""
        with self._lock:
            self._outputs[(shuffle_id, map_partition)] = paths

    def map_output_paths(
        self, shuffle_id: int, num_map_partitions: int, reduce_partition: int
    ) -> list[str]:
        """Bucket paths a reduce task must fetch."""
        paths = []
        with self._lock:
            for m in range(num_map_partitions):
                bucket_map = self._outputs.get((shuffle_id, m))
                if bucket_map is None:
                    raise ShuffleFetchError(shuffle_id, m, reduce_partition)
                path = bucket_map.get(reduce_partition)
                if path is not None:
                    paths.append(path)
        return paths

    def clear(self) -> None:
        """Forget all registered outputs."""
        with self._lock:
            self._outputs.clear()


def write_map_output(
    bucket_dir: str,
    shuffle_id: int,
    map_partition: int,
    records: Iterable[tuple[Any, Any]],
    partitioner: Partitioner,
) -> tuple[dict[int, str], int]:
    """Partition ``records`` into buckets and persist each; returns
    ``(paths_by_reducer, bytes_written)``.
    """
    buckets: dict[int, list[tuple[Any, Any]]] = defaultdict(list)
    for k, v in records:
        buckets[partitioner.partition(k)].append((k, v))
    paths: dict[int, str] = {}
    total = 0
    for reduce_partition, items in buckets.items():
        path = os.path.join(
            bucket_dir, f"map-{map_partition}-reduce-{reduce_partition}.pkl"
        )
        blob = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as f:
            f.write(blob)
        total += len(blob)
        paths[reduce_partition] = path
    return paths, total


def read_reduce_input(paths: list[str]) -> Iterator[tuple[Any, Any]]:
    """Stream all (k, v) records destined for one reducer.

    Fetched bytes are charged to the running task's
    ``TaskMetrics.shuffle_bytes_read`` (when a task context is active),
    mirroring how `write_map_output` feeds ``shuffle_bytes_written``.
    """
    from . import task_context

    ctx = task_context.get()
    for path in paths:
        with open(path, "rb") as f:
            blob = f.read()
        if ctx is not None:
            ctx.metrics.shuffle_bytes_read += len(blob)
        yield from pickle.loads(blob)
