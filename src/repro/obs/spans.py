"""Structured span tracing: nestable timed regions with labels.

One `Tracer` instance accompanies one run (a ``SparkDBSCAN.fit``, an
engine job, a benchmark sweep point).  Instrumented code brackets its
phases::

    with tracer.span("driver.kdtree_build", cat="driver") as sp:
        tree = KDTree(points)
        sp.annotate(n=len(points))

Spans nest through a thread-local stack, carry wall and CPU time plus
free-form labels, and export as JSON-lines in Chrome trace-event format
(``ph: "X"`` complete events, microsecond timestamps) — the file loads
directly in Perfetto / ``chrome://tracing``.

Executor work that ran in another thread, process, or the simulated
backend is grafted in after the fact with `Tracer.add_span`, which
takes an externally measured duration; the synthetic span carries a
``tid`` naming its virtual execution lane so lanes render side by side.

The default tracer everywhere is the module singleton `NULL_TRACER`:
every operation on it is a no-op returning shared immutable objects, so
the disabled path costs one attribute check and no allocation — safe to
leave in the executor hot loop's callers.

A running fit's tracer (`fit_scope`) takes the engine's records on its
thread, also on a lent context: record sites write to `routed(tracer)`.

Span categories (``cat``) are load-bearing for `repro.obs.report`:

- ``"driver"``    — driver-side algorithm phases (tree build, setup,
  accumulator drain, merge, relabel).  Summed into driver time.
- ``"executor"``  — per-partition clustering work.  Summed into
  executor time; the max is the parallel executor wall-clock.
- ``"engine"``    — scheduler internals (jobs, stages, task attempts).
  Reported separately, never double-counted into the driver/executor
  split.
- ``"worker"``    — task-internal sub-phases (deserialize, expand,
  kd-tree build, serialize) measured *inside* executor workers and
  merged back by `repro.obs.collect` with the worker pid preserved and
  timestamps rebased to the driver clock.  Reported as a phase
  breakdown, never double-counted into executor time (the enclosing
  ``cat="executor"`` span already covers them).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "fit_scope",
           "load_trace", "routed"]


@dataclass
class Span:
    """One timed region: name, wall/CPU interval, labels, nesting depth."""

    name: str
    cat: str = ""
    tid: str = "driver"
    start: float = 0.0          # perf_counter seconds, tracer-relative
    end: float = 0.0
    cpu_start: float = 0.0      # process_time seconds
    cpu_end: float = 0.0
    depth: int = 0
    pid: int = 0                # 0 = driver; worker spans carry the OS pid
    labels: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return self.end - self.start

    @property
    def cpu_time(self) -> float:
        """CPU seconds spent inside the span (0 for grafted spans)."""
        return self.cpu_end - self.cpu_start

    def annotate(self, **labels: Any) -> "Span":
        """Attach labels to the span; returns self for chaining."""
        self.labels.update(labels)
        return self

    def to_event(self) -> dict[str, Any]:
        """Chrome trace-event ("X" complete event) representation."""
        return {
            "name": self.name,
            "cat": self.cat or "default",
            "ph": "X",
            "ts": round(self.start * 1e6, 3),
            "dur": round(self.duration * 1e6, 3),
            "pid": self.pid,
            "tid": self.tid,
            "args": {
                **self.labels,
                "depth": self.depth,
                "cpu_ms": round(self.cpu_time * 1e3, 3),
            },
        }


class _SpanHandle:
    """Context manager opening/closing one span on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span.start = time.perf_counter() - self._tracer._origin
        self._span.cpu_start = time.process_time()
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span.end = time.perf_counter() - self._tracer._origin
        self._span.cpu_end = time.process_time()
        self._tracer._pop(self._span)


class Tracer:
    """Collects spans for one run; thread-safe, nestable, exportable.

    All timestamps are relative to the tracer's creation, so traces
    from repeated runs line up at t=0 when compared.
    """

    enabled = True

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        # Wall-clock twin of the origin: a worker task's tracer made in
        # another process carries its own pair, and the difference of
        # the two wall anchors rebases its spans onto this timeline.
        self._origin_wall = time.time()  # clock-rebase anchor
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    def __getstate__(self) -> dict[str, Any]:
        # A worker's tracer ships back with its task's outcome: the
        # finished spans and both anchors travel, the lock and the
        # thread-local span stack do not.
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state.pop("_tls", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: str = "", tid: str | None = None,
             **labels: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        parent = self.current()
        depth = parent.depth + 1 if parent is not None else 0
        if tid is None:
            tid = parent.tid if parent is not None else "driver"
        return _SpanHandle(
            self, Span(name=name, cat=cat, tid=tid, depth=depth, labels=labels)
        )

    def add_span(
        self,
        name: str,
        duration: float,
        cat: str = "",
        tid: str = "driver",
        start: float | None = None,
        pid: int = 0,
        cpu_s: float = 0.0,
        **labels: Any,
    ) -> Span:
        """Graft an externally measured span (e.g. a task that ran in a
        worker process).  ``start`` is tracer-relative seconds; when
        omitted the span is back-dated so it ends now.  ``pid`` names the
        process the work ran in (0 = driver) and ``cpu_s`` carries an
        externally measured CPU time."""
        now = time.perf_counter() - self._origin
        if start is None:
            start = now - duration
        span = Span(
            name=name, cat=cat, tid=tid, start=start, end=start + duration,
            cpu_start=0.0, cpu_end=cpu_s, depth=0, pid=pid, labels=labels,
        )
        with self._lock:
            self._spans.append(span)
        return span

    def instant(self, name: str, cat: str = "", **labels: Any) -> Span:
        """Record a zero-duration marker event."""
        return self.add_span(name, 0.0, cat=cat, **labels)

    def current(self) -> Span | None:
        """The innermost open span on this thread, or None."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._tls.stack
        assert stack and stack[-1] is span, "span closed out of order"
        stack.pop()
        with self._lock:
            self._spans.append(span)

    # -- access / export ---------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of all spans with the given name."""
        return sum(s.duration for s in self.find(name))

    def to_events(self) -> list[dict[str, Any]]:
        """All spans as Chrome trace events, sorted by start time."""
        return [s.to_event() for s in sorted(self.spans, key=lambda s: s.start)]

    def write_jsonl(self, path: str) -> None:
        """Write one Chrome trace event per line (Perfetto-loadable).

        Besides the "X" span events, one ``process_name`` metadata event
        is emitted per distinct pid so Perfetto labels the driver and
        worker process tracks.
        """
        events = self.to_events()
        with open(path, "w") as f:
            for pid in sorted({e.get("pid", 0) for e in events}):
                f.write(json.dumps({
                    "name": "process_name", "ph": "M", "pid": pid,
                    "args": {"name": "driver" if pid == 0 else f"worker-{pid}"},
                }) + "\n")
            for event in events:
                f.write(json.dumps(event) + "\n")


class _NullSpan:
    """Inert span: accepts annotations, records nothing."""

    __slots__ = ()
    name = ""
    cat = ""
    tid = "driver"
    depth = 0
    pid = 0
    start = end = cpu_start = cpu_end = 0.0
    duration = cpu_time = 0.0
    labels: dict[str, Any] = {}

    def annotate(self, **labels: Any) -> "_NullSpan":
        return self


class _NullHandle:
    """Shared no-op context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_HANDLE = _NullHandle()


class NullTracer(Tracer):
    """Disabled tracer: every call is a constant-time no-op."""

    enabled = False

    def __init__(self) -> None:  # no lock, no storage
        self._origin = 0.0
        self._origin_wall = 0.0

    def span(self, name: str, cat: str = "", tid: str | None = None,
             **labels: Any) -> _NullHandle:  # type: ignore[override]
        return _NULL_HANDLE

    def add_span(self, name: str, duration: float, cat: str = "",
                 tid: str = "driver", start: float | None = None,
                 pid: int = 0, cpu_s: float = 0.0,
                 **labels: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "", **labels: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def current(self) -> None:
        return None

    @property
    def spans(self) -> list[Span]:
        return []

    def to_events(self) -> list[dict[str, Any]]:
        return []

    def write_jsonl(self, path: str) -> None:
        raise RuntimeError("cannot export a NullTracer; pass a real Tracer")


#: Shared disabled tracer — the default everywhere instrumentation exists.
NULL_TRACER = NullTracer()

#: The running fit's tracer in this thread's context, if any.
_FIT_TRACER: ContextVar[Tracer | None] = ContextVar("fit_tracer", default=None)


@contextmanager
def fit_scope(tracer: Tracer) -> Iterator[None]:
    """Route the engine's records on this thread to ``tracer`` while the
    block runs: a fit on a lent context lands in the fit's own trace,
    and two driver threads sharing one context stay apart."""
    token = _FIT_TRACER.set(tracer)
    try:
        yield
    finally:
        _FIT_TRACER.reset(token)


def routed(tracer: Tracer) -> Tracer:
    """The tracer a record site writes to: the running fit's
    (`fit_scope`), else its own ``tracer``."""
    return _FIT_TRACER.get() or tracer


def load_trace(path: str) -> list[dict[str, Any]]:
    """Read a JSON-lines Chrome trace back into a list of events.

    Also accepts the array form (``[{...}, ...]``) that Chrome's
    ``chrome://tracing`` *exports*, so round-tripped files load too.
    """
    events: list[dict[str, Any]] = []
    with open(path) as f:
        text = f.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        loaded = json.loads(stripped)
        if not isinstance(loaded, list):
            raise ValueError(f"{path}: expected a JSON array of trace events")
        events = [e for e in loaded if isinstance(e, dict)]
    else:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: trace line is not an object")
            events.append(event)
    return events


def iter_complete_events(events: list[dict[str, Any]]) -> Iterator[dict[str, Any]]:
    """Yield only well-formed "X" (complete) events with numeric ts/dur."""
    for e in events:
        if e.get("ph") != "X":
            continue
        if not isinstance(e.get("ts"), (int, float)):
            continue
        if not isinstance(e.get("dur"), (int, float)):
            continue
        yield e
