"""Metrics registry: labelled Counter/Gauge/Histogram instruments with
Prometheus text exposition.

The registry is the numeric view of `repro.obs.spans`: spans answer
*where did the time go*, instruments answer *how much of X happened*.
It records nothing itself: `fold_trace` fills it from one fit's spans
(`repro.pipeline.PipelineRunner` folds each fit it runs with one, crash
included), so the exposition and `repro trace` read one record.

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
from typing import Any, Iterable

from .spans import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "fold_trace",
    "parse_exposition",
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
# The fold: one fit's spans into instruments.
# ---------------------------------------------------------------------------

#: Every family the fold fills: name -> (kind, help, label names).
_FAMILIES: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "repro_task_attempts_total": (
        "counter", "Task attempts by stage and outcome.", ("stage", "outcome")),
    "repro_task_run_seconds": ("histogram", "Task attempt run time.", ("stage",)),
    "repro_task_cpu_seconds": (
        "histogram", "CPU seconds per task attempt.", ("stage",)),
    "repro_task_peak_rss_bytes": (
        "gauge", "Worker process RSS high-water mark after the task, since "
        "the worker started (kept workers carry it across fits; bytes, max "
        "over attempts).", ("stage", "partition")),
    "repro_shuffle_bytes_written_total": (
        "counter", "Bytes written to shuffle buckets.", ("stage",)),
    "repro_shuffle_bytes_read_total": (
        "counter", "Bytes fetched from shuffle buckets.", ("stage",)),
    "repro_pipeline_stage_seconds": (
        "histogram", "Wall-clock per executed pipeline stage.", ("stage",)),
    "repro_checkpoint_hits_total": (
        "counter", "Pipeline stages restored from checkpoint.", ("stage",)),
    "repro_checkpoint_misses_total": (
        "counter", "Pipeline stages executed and checkpointed.", ("stage",)),
    "repro_dbscan_ops_total": (
        "counter", "Section III-B operation counts from local DBSCAN "
        "expansion.", ("op", "partition")),
    "repro_broadcast_bytes_total": (
        "counter", "Bytes serialized for broadcast variables.", ()),
    "repro_merge_edges_total": (
        "counter", "Core seed/export half-edge joins walked by the edge "
        "merge.", ()),
    "repro_merge_merges": (
        "gauge", "Successful partial-cluster unions performed by the driver "
        "merge.", ()),
    "repro_merge_global_clusters": (
        "gauge", "Global clusters after the driver merge.", ()),
    "repro_merge_overlapping_points": (
        "gauge", "Unfollowed merge evidence left by the paper strategy (0 "
        "for union_find).", ()),
    "repro_cell_halo_points": (
        "gauge", "Replicated eps-halo point slots across all partitions.", ()),
    "repro_cell_halo_bytes": (
        "gauge", "Serialized bytes of replicated halo ids + coordinates.", ()),
    "repro_cell_payload_bytes": (
        "gauge", "Serialized bytes of all cell payloads (owned + halo).", ()),
    "repro_sanitizer_findings_total": (
        "counter", "Findings reported by the runtime sanitizers.", ("kind",)),
    "repro_driver_collect_bytes": (
        "gauge", "Canonical pickled size of the merge payload collected by "
        "the driver.", ()),
    "repro_run_wall_seconds": ("gauge", "End-to-end wall clock of the run.", ()),
    "repro_clusters": ("gauge", "Clusters found.", ()),
    "repro_noise_points": ("gauge", "Noise points.", ()),
    "repro_partial_clusters": ("gauge", "Partial clusters before merging.", ()),
}

#: Gauges set from one span's labels: span name -> (family, label) pairs.
#: ``dbscan.fit`` carries the result gauges (`PipelineRunner._results`).
_GAUGE_LABELS = {
    "driver.merge": (("repro_merge_merges", "num_merges"),
                     ("repro_merge_global_clusters", "num_global_clusters"),
                     ("repro_merge_overlapping_points", "overlapping_points")),
    "driver.setup": (("repro_cell_halo_points", "halo_points"),
                     ("repro_cell_halo_bytes", "halo_nbytes"),
                     ("repro_cell_payload_bytes", "payload_nbytes")),
    "dbscan.fit": (("repro_driver_collect_bytes", "collect_bytes"),
                   ("repro_run_wall_seconds", "wall"),
                   ("repro_clusters", "clusters"),
                   ("repro_noise_points", "noise_points"),
                   ("repro_partial_clusters", "partial_clusters")),
}


def fold_trace(registry: MetricsRegistry, spans: Iterable[Span]) -> None:
    """Fold one fit's finished spans into the registry: task attempts
    (run time, ``cpu_time``, ``peak_rss``, shuffle bytes), stages (run
    time, ``restored``/``checkpointed``, the collect stage's ``ops``),
    broadcasts, violations and the labels of `_GAUGE_LABELS`.  Task
    times are histograms per stage (skew); the peak-RSS gauge keeps the
    max per (stage, partition) over attempts: high-water marks do not add.
    """
    def family(name: str) -> Any:
        kind, help_text, labelnames = _FAMILIES[name]
        return getattr(registry, kind)(name, help_text, labelnames)

    for span in spans:
        name, labels = span.name, span.labels
        if name.startswith("task["):
            stage = labels.get("stage_id", 0)
            outcome = "succeeded" if labels.get("succeeded", True) else "failed"
            family("repro_task_attempts_total").inc(stage=stage, outcome=outcome)
            family("repro_task_run_seconds").observe(span.duration, stage=stage)
            family("repro_task_cpu_seconds").observe(
                labels.get("cpu_time", 0.0), stage=stage)
            if labels.get("peak_rss"):
                rss = family("repro_task_peak_rss_bytes")
                cell = {"stage": stage, "partition": labels.get("partition", 0)}
                rss.set(max(rss.value(**cell), labels["peak_rss"]), **cell)
            for key in ("shuffle_bytes_written", "shuffle_bytes_read"):
                if labels.get(key):
                    family(f"repro_{key}_total").inc(labels[key], stage=stage)
        elif name == "pipeline.stage":
            stage = labels.get("stage")
            if labels.get("status") == "run":
                family("repro_pipeline_stage_seconds").observe(
                    span.duration, stage=stage)
            if labels.get("status") == "restored":
                family("repro_checkpoint_hits_total").inc(stage=stage)
            if labels.get("checkpointed"):
                family("repro_checkpoint_misses_total").inc(stage=stage)
            for partition, counts in labels.get("ops", {}).items():
                for op, count in counts.items():
                    if count:
                        family("repro_dbscan_ops_total").inc(
                            count, op=op, partition=partition)
        elif name == "driver.broadcast" and labels.get("nbytes"):
            family("repro_broadcast_bytes_total").inc(labels["nbytes"])
        elif name == "sanitizer.violation":
            family("repro_sanitizer_findings_total").inc(kind="violation")
        elif name == "driver.merge" and "num_edges" in labels:
            family("repro_merge_edges_total").inc(labels["num_edges"])
        for metric, key in _GAUGE_LABELS.get(name, ()):
            if key in labels:
                family(metric).set(labels[key])


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
