"""Broadcast variables: read-only values cached once per executor.

Spark semantics (paper Section IV-B): a broadcast variable is shipped to
each executor *once* and cached there, instead of being serialized into
every task closure.  We reproduce that with a file-backed store — the
driver pickles the value to a spill directory; each worker process
lazily loads it on first access and caches it in a process-local dict.
For in-process backends (local/threads/simulated) the cache is shared
and no deserialization happens at all.

The per-process cache is the observable behaviour the paper relies on:
the kd-tree over the full dataset is broadcast and must not be re-sent
per task.
"""

from __future__ import annotations

import itertools
import os
import pickle
import tempfile
import threading
from typing import Any, Generic, TypeVar

T = TypeVar("T")

_MISSING = object()

# Process-local cache: broadcast key -> deserialized value.  In a worker
# process this is populated on first access; in the driver process it is
# populated at creation time.  The key is unique within the driver
# process, not the per-context ``bid``: two live contexts both number
# their broadcasts from 0, and a kept worker serves one context after
# another.
_local_cache: dict[int, Any] = {}
_cache_lock = threading.Lock()
_keys = itertools.count()
# File loads per ``bid`` since the last reset, exposed for tests asserting
# once-per-executor delivery.  A worker resets it with each new lease, so
# there it counts one context's broadcasts.
_load_counts: dict[int, int] = {}


def _reset_process_cache() -> None:
    """Clear the process-local broadcast cache (a worker does so when it
    starts serving a new context)."""
    with _cache_lock:
        _local_cache.clear()
        _load_counts.clear()


class Broadcast(Generic[T]):
    """Handle to a broadcast value.

    Only the (id, key, path) triple travels inside task closures;
    `.value` resolves through the process-local cache under ``key``.
    """

    def __init__(
        self,
        bid: int,
        value: T,
        spill_dir: str | None,
        expected_hash: str | None = None,
        manager: "BroadcastManager | None" = None,
    ):
        self.bid = bid
        self.key = next(_keys)
        self._manager = manager   # driver-side only; never pickled
        self._path: str | None = None
        self.nbytes = 0   # serialized size; 0 when never materialised to disk
        # Structural hash taken at broadcast time when sanitizing; the
        # write-barrier re-hashes against it at the end of every task.
        self._expected_hash = expected_hash
        with _cache_lock:
            _local_cache[self.key] = value
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            fd, path = tempfile.mkstemp(prefix=f"bcast-{bid}-", dir=spill_dir)
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            self._path = path
            self.nbytes = os.path.getsize(path)

    @property
    def value(self) -> T:
        """The current value."""
        with _cache_lock:
            cached = _local_cache.get(self.key, _MISSING)
        if cached is not _MISSING:
            self._note_access(cached)
            return cached
        if self._path is None:
            raise RuntimeError(
                f"broadcast {self.bid} was unpersisted: not in cache and "
                "no backing file"
            )
        with open(self._path, "rb") as f:
            value = pickle.load(f)
        with _cache_lock:
            _local_cache[self.key] = value
            _load_counts[self.bid] = _load_counts.get(self.bid, 0) + 1
        self._note_access(value)
        return value

    def _note_access(self, value: T) -> None:
        """Register this access with the running task's write-barrier.

        Registration must happen on *every* access — including cache
        hits — so a worker process reusing its cached value still gets
        the value re-verified per task, not only when the file is first
        materialized.
        """
        if getattr(self, "_expected_hash", None) is None:
            return
        from . import task_context

        ctx = task_context.get()
        if ctx is not None and ctx.sanitize:
            ctx.note_broadcast(self, value)

    def verify(self, value: T, task: str) -> None:
        """Re-hash ``value`` against the broadcast-time hash.

        Raises `BroadcastMutationError` naming ``task`` on mismatch.
        """
        if getattr(self, "_expected_hash", None) is None:
            return
        from .sanitize import BroadcastMutationError, deep_hash

        if deep_hash(value) != self._expected_hash:
            raise BroadcastMutationError(
                f"broadcast {self.bid} was mutated by task [{task}]; "
                "broadcast values are read-only — copy before modifying"
            )

    def unpersist(self) -> None:
        """Drop the cached value in this process (and the backing file);
        the issuing manager forgets the handle."""
        with _cache_lock:
            _local_cache.pop(self.key, None)
        if self._path is not None and os.path.exists(self._path):
            os.unlink(self._path)
        self._path = None
        if self._manager is not None:
            self._manager.forget(self)

    def __getstate__(self) -> dict[str, Any]:
        # Never ship the value itself through task serialization: that is
        # exactly the anti-pattern broadcast variables exist to avoid.
        # The expected hash *must* travel with the handle: the
        # write-barrier in a worker process rests entirely on the hash
        # baked into the handle.
        return {
            "bid": self.bid,
            "key": self.key,
            "_path": self._path,
            "nbytes": self.nbytes,
            "_expected_hash": self._expected_hash,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.bid = state["bid"]
        self.key = state["key"]
        self._path = state["_path"]
        self.nbytes = state.get("nbytes", 0)
        self._expected_hash = state.get("_expected_hash")
        self._manager = None


class BroadcastManager:
    """Driver-side factory handing out monotonically-numbered broadcasts."""

    def __init__(self, spill_dir: str | None, compute_hashes: bool = False):
        self._next_id = 0
        self._spill_dir = spill_dir
        self._compute_hashes = compute_hashes
        self._lock = threading.Lock()
        self._issued: list[Broadcast[Any]] = []

    def new_broadcast(self, value: T) -> Broadcast[T]:
        """Create and register a broadcast value."""
        with self._lock:
            bid = self._next_id
            self._next_id += 1
        expected = None
        if self._compute_hashes:
            from .sanitize import deep_hash

            expected = deep_hash(value)
        b = Broadcast(
            bid, value, self._spill_dir, expected_hash=expected, manager=self
        )
        with self._lock:
            self._issued.append(b)
        return b

    def forget(self, b: Broadcast[Any]) -> None:
        """Stop tracking a handle its holder has released."""
        with self._lock:
            if b in self._issued:
                self._issued.remove(b)

    def stop(self) -> None:
        """Shut the component down and release resources."""
        for b in list(self._issued):
            b.unpersist()
