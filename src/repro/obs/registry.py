"""Metrics registry: labelled Counter/Gauge/Histogram instruments with
Prometheus text exposition.

The registry is the numeric counterpart of `repro.obs.spans`: spans
answer *where did the time go*, instruments answer *how much of X
happened*.  The engine's `TaskMetrics` and the algorithm's `OpCounters`
are bridged in through `record_task_metrics` / `record_op_counters`, so
benchmarks and the CLI read one store instead of re-deriving counts.

Exposition follows the Prometheus text format (version 0.0.4)::

    # HELP repro_task_attempts_total Task attempts by outcome.
    # TYPE repro_task_attempts_total counter
    repro_task_attempts_total{outcome="succeeded",stage="0"} 4

`parse_exposition` is the matching reader — used by the CI smoke test
to assert well-formedness without a prometheus client dependency.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Any, Iterable

from ..engine.metrics import TaskMetrics

if TYPE_CHECKING:  # avoid a cycle: dbscan.spark_job imports repro.obs
    from ..dbscan.partial import OpCounters

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "record_checkpoint",
    "record_op_counters",
    "record_task_metrics",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, in seconds — tuned for task/phase durations.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labelnames: tuple[str, ...], labels: dict[str, Any]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared labelnames "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[ln]) for ln in labelnames)


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


class _Instrument:
    """Shared machinery: name, help, declared labelnames, per-label cells."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for ln in self.labelnames:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")

    def _sample_lines(self) -> list[str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def expose(self) -> str:
        """HELP/TYPE header plus every sample line."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        lines.extend(self._sample_lines())
        return "\n".join(lines)

    def _labelstr(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [f'{ln}="{_escape(v)}"' for ln, v in zip(self.labelnames, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""


class Counter(_Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled cell."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current count of the labelled cell (0 if never touched)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def _sample_lines(self) -> list[str]:
        return [
            f"{self.name}{self._labelstr(k)} {_fmt_value(v)}"
            for k, v in sorted(self._values.items())
        ]


class Gauge(_Instrument):
    """Value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled cell."""
        self._values[_label_key(self.labelnames, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Adjust the labelled cell by ``amount`` (may be negative)."""
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value of the labelled cell (0 if never set)."""
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def _sample_lines(self) -> list[str]:
        return [
            f"{self.name}{self._labelstr(k)} {_fmt_value(v)}"
            for k, v in sorted(self._values.items())
        ]


class Histogram(_Instrument):
    """Cumulative-bucket histogram of observations."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bs = sorted(float(b) for b in buckets)
        if not bs:
            raise ValueError("histogram needs at least one bucket")
        self.buckets = tuple(bs)
        # per-label: (bucket counts incl. +Inf, sum, count)
        self._cells: dict[tuple[str, ...], tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the labelled cell."""
        key = _label_key(self.labelnames, labels)
        counts, total, n = self._cells.get(
            key, ([0] * (len(self.buckets) + 1), 0.0, 0)
        )
        for i, b in enumerate(self.buckets):
            if value <= b:
                counts[i] += 1
        counts[-1] += 1  # +Inf
        self._cells[key] = (counts, total + value, n + 1)

    def count(self, **labels: Any) -> int:
        """Number of observations in the labelled cell."""
        cell = self._cells.get(_label_key(self.labelnames, labels))
        return cell[2] if cell else 0

    def sum(self, **labels: Any) -> float:
        """Sum of observations in the labelled cell."""
        cell = self._cells.get(_label_key(self.labelnames, labels))
        return cell[1] if cell else 0.0

    def _sample_lines(self) -> list[str]:
        lines = []
        for key, (counts, total, n) in sorted(self._cells.items()):
            for b, c in zip((*self.buckets, math.inf), counts):
                le = f'le="{_fmt_value(b)}"'
                lines.append(
                    f"{self.name}_bucket{self._labelstr(key, le)} {c}"
                )
            lines.append(f"{self.name}_sum{self._labelstr(key)} {_fmt_value(total)}")
            lines.append(f"{self.name}_count{self._labelstr(key)} {n}")
        return lines


class MetricsRegistry:
    """Holds named instruments; repeated registration returns the original."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Iterable[str], **kwargs: Any) -> Any:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}{existing.labelnames}"
                )
            return existing
        inst = cls(name, help, labelnames, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        """Register (or fetch) a counter."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        """Register (or fetch) a gauge."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """Register (or fetch) a histogram."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        """Look an instrument up by name."""
        return self._instruments.get(name)

    def exposition(self) -> str:
        """Full Prometheus text exposition, newline-terminated."""
        blocks = [
            inst.expose() for _name, inst in sorted(self._instruments.items())
        ]
        return "\n".join(blocks) + ("\n" if blocks else "")

    def write(self, path: str) -> None:
        """Write the exposition to a file."""
        with open(path, "w") as f:
            f.write(self.exposition())


# ---------------------------------------------------------------------------
# Bridges from the existing metric silos.
# ---------------------------------------------------------------------------


def record_task_metrics(registry: MetricsRegistry, tm: TaskMetrics) -> None:
    """Fold one task attempt's `TaskMetrics` into the registry.

    Times are histograms per stage (distribution matters for skew); the
    peak-RSS gauge keeps the max per (stage, partition) over attempts —
    RSS is a process high-water mark and summing it would double-count.
    """
    outcome = "succeeded" if tm.succeeded else "failed"
    registry.counter(
        "repro_task_attempts_total", "Task attempts by stage and outcome.",
        ("stage", "outcome"),
    ).inc(stage=tm.stage_id, outcome=outcome)
    registry.histogram(
        "repro_task_run_seconds", "Task attempt run time.", ("stage",),
    ).observe(tm.run_time, stage=tm.stage_id)
    registry.histogram(
        "repro_task_cpu_seconds", "CPU seconds per task attempt.", ("stage",),
    ).observe(tm.cpu_time, stage=tm.stage_id)
    if tm.peak_rss:
        gauge = registry.gauge(
            "repro_task_peak_rss_bytes",
            "Peak worker RSS observed after a task (bytes, max-aggregated).",
            ("stage", "partition"),
        )
        cell = {"stage": tm.stage_id, "partition": tm.partition}
        if tm.peak_rss > gauge.value(**cell):
            gauge.set(tm.peak_rss, **cell)
    if tm.shuffle_bytes_written:
        registry.counter(
            "repro_shuffle_bytes_written_total",
            "Bytes written to shuffle buckets.", ("stage",),
        ).inc(tm.shuffle_bytes_written, stage=tm.stage_id)
    if tm.shuffle_bytes_read:
        registry.counter(
            "repro_shuffle_bytes_read_total",
            "Bytes fetched from shuffle buckets.", ("stage",),
        ).inc(tm.shuffle_bytes_read, stage=tm.stage_id)


def record_op_counters(
    registry: MetricsRegistry, oc: OpCounters, partition: int | str = "all"
) -> None:
    """Fold one executor's `OpCounters` into the registry."""
    c = registry.counter(
        "repro_dbscan_ops_total",
        "Section III-B operation counts from local DBSCAN expansion.",
        ("op", "partition"),
    )
    for op in (
        "range_queries", "queue_adds", "queue_removes",
        "hashtable_puts", "hashtable_lookups", "seeds_placed", "seeds_skipped",
    ):
        count = getattr(oc, op)
        if count:
            c.inc(count, op=op, partition=partition)


def record_merge_outcome(
    registry: MetricsRegistry,
    num_merges: int,
    num_global_clusters: int,
    overlapping_points: int,
) -> None:
    """Surface the driver merge's `MergeOutcome` stats as gauges."""
    registry.gauge(
        "repro_merge_merges",
        "Successful partial-cluster unions performed by the driver merge.",
    ).set(num_merges)
    registry.gauge(
        "repro_merge_global_clusters",
        "Global clusters after the driver merge.",
    ).set(num_global_clusters)
    registry.gauge(
        "repro_merge_overlapping_points",
        "Unfollowed merge evidence left by the paper strategy (0 for "
        "union_find).",
    ).set(overlapping_points)


def record_checkpoint(registry: MetricsRegistry, stage: str, hit: bool) -> None:
    """Count one pipeline checkpoint decision (restored = hit, written = miss)."""
    name = (
        "repro_checkpoint_hits_total" if hit else "repro_checkpoint_misses_total"
    )
    help_text = (
        "Pipeline stages restored from checkpoint." if hit
        else "Pipeline stages executed and checkpointed."
    )
    registry.counter(name, help_text, ("stage",)).inc(stage=stage)


# ---------------------------------------------------------------------------
# Exposition parsing (for smoke tests / CI well-formedness checks).
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def _unescape(value: str) -> str:
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES.get(m.group(1), m.group(0)), value)


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse a Prometheus text exposition into name -> [(labels, value)].

    Raises ValueError on any line that is neither a comment nor a
    well-formed sample — the CI smoke step relies on this.
    """
    out: dict[str, list[tuple[dict[str, str], float]]] = {}
    typed: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) < 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels = {
            k: _unescape(v)
            for k, v in _LABEL_PAIR_RE.findall(m.group("labels") or "")
        }
        raw = m.group("value")
        value = math.inf if raw == "+Inf" else float(raw)
        out.setdefault(m.group("name"), []).append((labels, value))
    for name in out:
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            raise ValueError(f"sample {name!r} has no preceding TYPE line")
    return out
