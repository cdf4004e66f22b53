"""Runtime sanitizer: the broadcast write-barrier and its error types.

Enabled with ``SparkContext(..., sanitize=True)`` (CLI ``--sanitize``).
The barrier is the only guard for its hazard — `repro lint` keeps to
the rules that prove the shuffle-free pipeline and its driver bound
(DESIGN.md §8.5).  Every broadcast value is deep-hashed at broadcast
time; every task that touches it re-hashes at task end and raises
`BroadcastMutationError` naming the task on mismatch.  The hash is
*structural* (numpy arrays by bytes, dicts by sorted key hash, sets
order-insensitively), so it is stable across processes and hash-seed
randomization; verification therefore also works on the processes
backend, where the worker's cached value must be re-checked per task,
not just when it is first materialized from disk.  The barrier itself
lives on `Broadcast` (``_note_access`` / ``verify``) and
`TaskContext.note_broadcast`; this module holds what they share.

Sanitizer violations are *fatal*: the task scheduler aborts the job on
the first one instead of burning the retry budget — a mutated broadcast
stays mutated, so retries cannot succeed and would only mask the bug.
`AccumulatorReadError` is fatal the same way, but it needs no sanitizer:
`Accumulator.value` raises it inside any task on every backend
(accumulators are write-only on executors; the driver merges
exactly-once).  `DAGScheduler._record` reports each fatal attempt to
its own job's trace (a ``sanitizer.violation`` instant, which a metrics
registry folds into ``repro_sanitizer_findings_total``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

from .errors import EngineError


class SanitizerError(EngineError):
    """Base class for violations detected by the runtime sanitizers."""


class BroadcastMutationError(SanitizerError):
    """A task mutated a broadcast value (broadcasts are immutable)."""


class AccumulatorReadError(SanitizerError):
    """A task read an accumulator value (accumulators are write-only in tasks)."""


# Outcome.error_type -> exception class, used by the task scheduler to
# re-raise the original sanitizer error type across process boundaries.
FATAL_ERROR_TYPES: dict[str, type[SanitizerError]] = {
    "SanitizerError": SanitizerError,
    "BroadcastMutationError": BroadcastMutationError,
    "AccumulatorReadError": AccumulatorReadError,
}


def deep_hash(value: Any) -> str:
    """Content hash of ``value``, stable across processes.

    Plain ``hash(pickle.dumps(v))`` would false-positive across process
    boundaries: set iteration order depends on the interpreter's string
    hash seed.  This walks the structure instead — containers
    recursively, dict items and set elements sorted by element hash,
    numpy arrays by dtype/shape/bytes, objects by class + ``__dict__``
    (pickle bytes as the fallback of last resort).
    """
    h = hashlib.sha256()
    _update(h, value, seen=set())
    return h.hexdigest()


def _update(h: "hashlib._Hash", value: Any, seen: set[int]) -> None:
    if value is None:
        h.update(b"N")
        return
    if isinstance(value, bool):
        h.update(b"B1" if value else b"B0")
        return
    if isinstance(value, int):
        h.update(b"I" + str(value).encode())
        return
    if isinstance(value, float):
        h.update(b"F" + struct.pack("<d", value))
        return
    if isinstance(value, str):
        h.update(b"S" + value.encode("utf-8", "surrogatepass"))
        return
    if isinstance(value, (bytes, bytearray)):
        h.update(b"Y" + bytes(value))
        return
    # containers can be cyclic; hash a back-reference marker instead
    if id(value) in seen:
        h.update(b"CYCLE")
        return
    seen = seen | {id(value)}
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            h.update(b"A" + str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
            return
        if isinstance(value, np.generic):
            h.update(b"G" + str(value.dtype).encode() + value.tobytes())
            return
    except ImportError:  # pragma: no cover - numpy is a hard dep here
        pass
    if isinstance(value, (list, tuple)):
        h.update(b"L" if isinstance(value, list) else b"T")
        h.update(str(len(value)).encode())
        for item in value:
            _update(h, item, seen)
        return
    if isinstance(value, dict):
        h.update(b"D" + str(len(value)).encode())
        items = []
        for k, v in value.items():
            hk = hashlib.sha256()
            _update(hk, k, seen)
            hv = hashlib.sha256()
            _update(hv, v, seen)
            items.append(hk.digest() + hv.digest())
        for digest in sorted(items):
            h.update(digest)
        return
    if isinstance(value, (set, frozenset)):
        h.update(b"E" + str(len(value)).encode())
        digests = []
        for item in value:
            hi = hashlib.sha256()
            _update(hi, item, seen)
            digests.append(hi.digest())
        for digest in sorted(digests):
            h.update(digest)
        return
    state = getattr(value, "__dict__", None)
    if state is not None:
        h.update(b"O" + type(value).__qualname__.encode())
        _update(h, state, seen)
        return
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        h.update(b"O" + type(value).__qualname__.encode())
        _update(
            h,
            {s: getattr(value, s) for s in slots if hasattr(value, s)},
            seen,
        )
        return
    import pickle

    h.update(b"P")
    try:
        h.update(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        # Unpicklable and opaque: identity-free constant so that the
        # barrier neither crashes nor false-positives on it.
        h.update(type(value).__qualname__.encode())
