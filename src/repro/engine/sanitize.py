"""Runtime sanitizers: machine-check the engine's shared-variable rules.

Enabled with ``SparkContext(..., sanitize=True)`` (CLI ``--sanitize``).
Two checkers, each the only guard for its hazard — `repro lint` keeps
to the rules that prove the shuffle-free pipeline and its driver bound
(DESIGN.md §8.5):

- **Broadcast write-barrier** — every broadcast value is deep-hashed at
  broadcast time; every task that touches it re-hashes at task end and
  raises `BroadcastMutationError` naming the task on mismatch.  The
  hash is *structural* (numpy arrays by bytes, dicts by sorted key
  hash, sets order-insensitively), so it is stable across processes and
  hash-seed randomization; verification therefore also works on the
  processes backend, where the worker's cached value must be re-checked
  per task, not just when it is first materialized from disk.
- **Race / lock-order detector** (shared-memory backends) — an
  Eraser-style lockset algorithm over recorded shared-engine-state
  touches (broadcast cache, block manager, plus anything tasks declare
  via `Sanitizer.record_access`), flagging cross-task access with an
  empty candidate lockset, and a lock-order graph flagging cycles
  (deadlock potential).  Findings are collected (not raised) and
  emitted as tracer instants / ``repro_sanitizer_findings_total``
  metrics when the context stops.

Sanitizer violations are *fatal*: the task scheduler aborts the job on
the first one instead of burning the retry budget — a mutated broadcast
stays mutated, so retries cannot succeed and would only mask the bug.
`AccumulatorReadError` is fatal the same way, but it needs no sanitizer:
`Accumulator.value` raises it inside any task on every backend
(accumulators are write-only on executors; the driver merges
exactly-once).
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable

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


# ---------------------------------------------------------------------------
# Structural deep hash
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Race / lock-order detection (Eraser-style lockset + lock-order graph)
# ---------------------------------------------------------------------------

@dataclass
class SanitizerFinding:
    """One recorded sanitizer observation (race, lock cycle, violation)."""

    kind: str               # "race" | "lock_cycle" | "violation"
    detail: str
    labels: dict[str, Any] = field(default_factory=dict)


@dataclass
class _AccessState:
    lockset: frozenset[str] | None = None   # candidate lockset (None = unseen)
    tasks: set[str] = field(default_factory=set)
    writes: int = 0
    last_task: str = ""


class RaceDetector:
    """Lockset discipline + lock-order cycles over recorded touches.

    The lockset rule is schedule-independent (Eraser): a state key
    touched by two or more distinct tasks, with at least one write and
    an empty candidate lockset (the intersection of locks held at every
    access), is flagged whether or not the schedule actually raced.
    Engine-internal touches always carry their guarding lock, so a
    sanitized run of correct code reports nothing.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._mu = threading.Lock()
        self._state: dict[str, _AccessState] = {}
        self._edges: dict[str, set[str]] = {}   # lock -> locks acquired under it

    # -- held-lock tracking (per thread) ------------------------------------
    def _held(self) -> list[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def acquire(self, name: str) -> None:
        """Record a lock acquisition on the current thread."""
        held = self._held()
        with self._mu:
            for outer in held:
                self._edges.setdefault(outer, set()).add(name)
        held.append(name)

    def release(self, name: str) -> None:
        """Record a lock release on the current thread."""
        held = self._held()
        if name in held:
            held.remove(name)

    # -- shared-state touches -----------------------------------------------
    def record_access(
        self,
        key: str,
        task: str,
        write: bool = False,
        locks: Iterable[str] | None = None,
    ) -> None:
        """Record one touch of shared engine state by ``task``.

        ``locks`` defaults to the locks currently held by this thread
        (as recorded through `acquire`/`release` or `TrackedLock`).
        """
        lockset = frozenset(locks) if locks is not None else frozenset(self._held())
        with self._mu:
            st = self._state.setdefault(key, _AccessState())
            st.lockset = lockset if st.lockset is None else st.lockset & lockset
            st.tasks.add(task)
            st.last_task = task
            if write:
                st.writes += 1

    # -- reporting ------------------------------------------------------------
    def findings(self) -> list[SanitizerFinding]:
        """Races (empty lockset, >=2 tasks, a write) and lock cycles."""
        out: list[SanitizerFinding] = []
        with self._mu:
            for key, st in sorted(self._state.items()):
                if len(st.tasks) >= 2 and st.writes > 0 and not st.lockset:
                    out.append(
                        SanitizerFinding(
                            kind="race",
                            detail=(
                                f"shared state {key!r} touched by "
                                f"{len(st.tasks)} tasks with no common lock "
                                f"({st.writes} write(s))"
                            ),
                            labels={"key": key, "tasks": len(st.tasks)},
                        )
                    )
            for cycle in self._lock_cycles():
                out.append(
                    SanitizerFinding(
                        kind="lock_cycle",
                        detail=(
                            "lock-order cycle (deadlock potential): "
                            + " -> ".join(cycle + [cycle[0]])
                        ),
                        labels={"locks": ",".join(cycle)},
                    )
                )
        return out

    def _lock_cycles(self) -> list[list[str]]:
        """Simple cycles in the lock-order graph (deduplicated by node set)."""
        cycles: list[list[str]] = []
        seen_sets: set[frozenset[str]] = set()
        for start in sorted(self._edges):
            stack = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for nxt in sorted(self._edges.get(node, ())):
                    if nxt == start and len(path) > 1:
                        key = frozenset(path)
                        if key not in seen_sets:
                            seen_sets.add(key)
                            cycles.append(path[:])
                    elif nxt not in path and len(path) < 16:
                        stack.append((nxt, path + [nxt]))
        return cycles


class TrackedLock:
    """A ``threading.Lock`` wrapper that feeds the race detector.

    Task code holding engine-adjacent locks under ``--sanitize`` uses
    this to make lock ordering and locksets visible to the detector.
    """

    def __init__(self, name: str, detector: RaceDetector | None = None):
        self.name = name
        self._detector = detector
        self._lock = threading.Lock()

    def _det(self) -> RaceDetector | None:
        if self._detector is not None:
            return self._detector
        san = current()
        return san.races if san is not None else None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            det = self._det()
            if det is not None:
                det.acquire(self.name)
        return ok

    def release(self) -> None:
        det = self._det()
        if det is not None:
            det.release(self.name)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


# ---------------------------------------------------------------------------
# The per-context sanitizer and the process-wide active handle
# ---------------------------------------------------------------------------

class Sanitizer:
    """Per-`SparkContext` collector of sanitizer findings.

    Lives on the driver; shared-memory backends (local/threads/
    simulated) reach it through the module-level `current()` handle.
    Worker processes never see it — broadcast verification there relies
    only on the hashes shipped inside the `Broadcast` handles.
    """

    def __init__(self, tracer: Any = None, metrics_registry: Any = None):
        from ..obs.spans import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics_registry = metrics_registry
        self.races = RaceDetector()
        self.findings: list[SanitizerFinding] = []
        self._mu = threading.Lock()
        self._finalized = False

    def report(self, kind: str, detail: str, **labels: Any) -> SanitizerFinding:
        """Record one finding and emit it as a span instant + metric."""
        finding = SanitizerFinding(kind=kind, detail=detail, labels=dict(labels))
        with self._mu:
            self.findings.append(finding)
        self.tracer.instant(f"sanitizer.{kind}", cat="sanitizer", detail=detail, **labels)
        if self.metrics_registry is not None:
            self.metrics_registry.counter(
                "repro_sanitizer_findings_total",
                "Findings reported by the runtime sanitizers.",
                labelnames=("kind",),
            ).inc(1, kind=kind)
        return finding

    def record_access(
        self,
        key: str,
        write: bool = False,
        locks: Iterable[str] | None = None,
    ) -> None:
        """Record a shared-state touch attributed to the current task."""
        from . import task_context

        ctx = task_context.get()
        task = ctx.describe() if ctx is not None else "driver"
        self.races.record_access(key, task, write=write, locks=locks)

    def finalize(self) -> list[SanitizerFinding]:
        """Pull race-detector findings into the report (idempotent)."""
        with self._mu:
            if self._finalized:
                return list(self.findings)
            self._finalized = True
        for f in self.races.findings():
            self.report(f.kind, f.detail, **f.labels)
        return list(self.findings)


_active_lock = threading.Lock()
_active: list[Sanitizer] = []


def activate(sanitizer: Sanitizer) -> None:
    """Register the sanitizer of a starting context (LIFO)."""
    with _active_lock:
        _active.append(sanitizer)


def deactivate(sanitizer: Sanitizer) -> None:
    """Unregister a stopping context's sanitizer."""
    with _active_lock:
        if sanitizer in _active:
            _active.remove(sanitizer)


def current() -> Sanitizer | None:
    """The innermost active sanitizer (None when not sanitizing).

    Worker processes always see None: the sanitizer never ships, and
    workers rely on the flags baked into tasks and broadcast handles.
    """
    with _active_lock:
        return _active[-1] if _active else None
