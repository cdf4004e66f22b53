"""Ablation — telemetry overhead: tracing and profiling must be ~free.

The worker-telemetry layer (task spans, resource profiling) rides the
executor hot path, so its cost budget is explicit: tracing + profiling
must stay within a few percent of the plain run, and the clustering
must be byte-identical — observability that changes the observed system
is worthless.  Three configurations of the same job:

- **plain**    — NULL_TRACER, no profiling (the production fast path:
  one thread-local read per instrumentation site);
- **traced**   — a live Tracer: per-task `WorkerTelemetry` buffers,
  sub-phase spans (`task.expand`, `task.kdtree_query`, ...) recorded in
  the workers and merged into the driver trace;
- **profiled** — traced plus per-task resource profiling (CPU clock +
  getrusage high-water reads bracketing every task).

A `MetricsRegistry` is deliberately *not* part of this ablation: a
registry makes the one expansion kernel also report the Section III-B
`OpCounters` (closed forms of its arrays, DESIGN.md §6) and ships them
through a second accumulator, which is operation counting, not
span/profile overhead.

Rounds are interleaved with the configuration order rotated every
round (running the same config in the same slot every time bakes
CPU-frequency/cache ordering bias into the comparison), and each
configuration keeps its best-of-N: overhead hides in the minimum —
means absorb scheduler noise that has nothing to do with
instrumentation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import EPS, MINPTS, make_dataset
from repro.dbscan import SparkDBSCAN
from repro.obs import NULL_TRACER, Tracer, TraceReport

from _harness import print_table, save_results

PARTITIONS = 4
ROUNDS = 5
#: Relative budget for traced/profiled vs plain, on best-of-N walls.
#: The design budget is 5%; the assertion allows 3x that because the
#: run-to-run noise floor of the whole job on shared hardware is ±10%+
#: (identical configs differ by that much back to back) — the budget
#: catches a real per-point instrumentation cost (which would show up
#: as 2x+, like the opt-in counted kernel does) without flaking on
#: scheduler jitter.
OVERHEAD_BUDGET = 0.15


def _fit(points, tracer, profile):
    model = SparkDBSCAN(
        EPS, MINPTS, num_partitions=PARTITIONS, neighbor_mode="batched",
        tracer=tracer, profile=profile,
    )
    t0 = time.perf_counter()
    res = model.fit(points)
    return time.perf_counter() - t0, res


def test_ablation_telemetry_overhead(benchmark):
    g = make_dataset("c100k")

    configs = [
        ("plain", lambda: (NULL_TRACER, False)),
        ("traced", lambda: (Tracer(), False)),
        ("profiled", lambda: (Tracer(), True)),
    ]

    walls: dict[str, float] = {name: float("inf") for name, _ in configs}
    labels: dict[str, np.ndarray] = {}
    last_tracer: Tracer | None = None
    for r in range(ROUNDS):
        # Rotate who goes first so ordering bias cancels across rounds.
        order = configs[r % len(configs):] + configs[:r % len(configs)]
        for name, make in order:
            tracer, profile = make()
            wall, res = _fit(g.points, tracer, profile)
            walls[name] = min(walls[name], wall)
            labels[name] = res.labels
            if name == "profiled":
                last_tracer = tracer

    rows, payload = [], []
    for name, _ in configs:
        overhead = walls[name] / walls["plain"] - 1.0
        rows.append([name, round(walls[name], 3), f"{overhead:+.1%}"])
        payload.append({
            "config": name, "wall": walls[name], "overhead": overhead,
        })
    print_table(
        f"Ablation: telemetry overhead (c100k = {g.n} points, "
        f"{PARTITIONS} partitions, best of {ROUNDS})",
        ["config", "wall (s)", "overhead vs plain"],
        rows,
    )
    save_results("ablation_telemetry", payload)

    # Observability must not change the answer: labels byte-identical.
    assert np.array_equal(labels["plain"], labels["traced"])
    assert np.array_equal(labels["plain"], labels["profiled"])

    # ...and must not meaningfully change the cost.
    for name in ("traced", "profiled"):
        overhead = walls[name] / walls["plain"] - 1.0
        assert overhead < OVERHEAD_BUDGET, (
            f"{name} run is {overhead:+.1%} over plain "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        )

    # The profiled run actually collected worker telemetry.
    assert last_tracer is not None
    report = TraceReport.from_tracer(last_tracer)
    assert report.worker_phase_s, "no worker spans captured"
    assert "task.expand" in report.worker_phase_s

    benchmark.pedantic(
        lambda: _fit(g.points[:5000], Tracer(), True),
        rounds=2, iterations=1,
    )
