"""The run process: one workload's warm-up, timed repeats and traced run.

Started fresh by ``run.py`` for every run and fed the generated points
as a ``.npy`` file, so generator and oracle memory never reach the
measured ``driver_peak_rss_mb`` and nothing carries over between runs.

    python worker.py WORKLOAD POINTS.npy OUT_DIR --seconds S --trace 0|1
                     --min-repeats K --warmups W --seed N

Writes ``OUT_DIR/worker.json`` (samples, per-layer metrics, counts) and
``OUT_DIR/labels_<k>.npy`` for the fits the oracle checks; with
``--trace 1`` also ``OUT_DIR/trace_<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.engine import SparkContext  # noqa: E402
from repro.obs import MetricsRegistry, Tracer  # noqa: E402
from repro.pipeline.plans import build_plan  # noqa: E402
from repro.pipeline.runner import PipelineRunner  # noqa: E402

import hostspeed  # noqa: E402
import probes  # noqa: E402
from workloads import BY_NAME, WARMUP_ROWS, Workload, run_fits  # noqa: E402

#: Wall-clock instant the imports above finished: run.py subtracts its
#: own spawn instant to get the hand-off part of ``setup_s``.
READY_UNIX = time.time()


def cpu_seconds() -> float:
    """User+system CPU of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def own_peak_rss_mib() -> float:
    """Peak resident set of this process image, in MiB.

    ``VmHWM``, not ``ru_maxrss``: Linux carries ``ru_maxrss`` across
    ``exec``, so a freshly spawned process starts at its *parent's* peak
    and a small workload would read back run.py's memory, not its own.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def workers_peak_rss_mib() -> float:
    """Largest ``ru_maxrss`` (KiB on Linux) among reaped children, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class Trace:
    """Benchmark-owned spans, kept in memory and written out at exit.

    One record per span: ``{id, name, start, end, parent, workload}``
    with ``parent`` the id of the enclosing span (None at the root).
    `calibrate` records a ``host.calibration`` span carrying the host's
    speed factor (see `hostspeed`); `seconds` and `total` report a span
    at the reference speed, scaled by the calibrations on either side.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name,
            "start": time.perf_counter(), "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self._open.append(record["id"])
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def calibrate(self) -> None:
        with self.span("host.calibration") as record:
            record["speed"] = hostspeed.measure()

    def speed(self, span: dict) -> float:
        """Mean of the last calibration before and the first after ``span``."""
        marks = [s for s in self.spans if s["name"] == "host.calibration"]
        before = [s["speed"] for s in marks if s["end"] <= span["start"]]
        after = [s["speed"] for s in marks if s["start"] >= span["end"]]
        return (before[-1] + after[0]) / 2

    def seconds(self, span: dict) -> float:
        """Duration of ``span`` at the reference host speed."""
        return (span["end"] - span["start"]) / self.speed(span)

    def total(self, name: str) -> float:
        """Summed `seconds` of every span called ``name``."""
        return sum(self.seconds(s) for s in self.spans if s["name"] == name)

    def children_total(self, parent: dict) -> float:
        """Summed raw duration of the spans directly under ``parent``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] == parent["id"])

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def labels_bytes(results: list) -> bytes:
    """Every fit's labels of one run, for the byte-wise repeat check."""
    return b"".join(np.ascontiguousarray(r.labels).tobytes() for r in results)


def timed_repeats(workload: Workload, points: np.ndarray, seconds: float,
                  min_repeats: int) -> tuple[list[dict], list, int]:
    """Closed loop, one run at a time, until ``seconds`` have passed.

    Every run sits between two host-speed readings; a sample holds the
    run's raw seconds and the mean of the two readings (see `hostspeed`).
    Returns the per-run samples, the first run's results, and the number
    of failed runs (raised, or labels differing from the first run's).
    """
    samples: list[dict] = []
    first = None
    first_bytes = b""
    failed = 0
    attempts = 0
    deadline = time.perf_counter() + seconds
    speed_after = hostspeed.measure()
    while attempts < min_repeats or time.perf_counter() < deadline:
        attempts += 1
        gc.collect()
        speed_before = speed_after
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            results = run_fits(workload, points)
        except Exception:  # a failed fit is a counted outcome, not a crash
            traceback.print_exc()
            failed += 1
            speed_after = hostspeed.measure()
            continue
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        speed_after = hostspeed.measure()
        if first is None:
            first, first_bytes = results, labels_bytes(results)
        elif labels_bytes(results) != first_bytes:
            print("labels differ from the first repeat", file=sys.stderr)
            failed += 1
            continue
        driver = sum(r.timings.kdtree_build + r.timings.setup
                     + r.timings.driver_merge for r in results)
        samples.append({
            "host_speed": (speed_before + speed_after) / 2,
            "wall_s": wall,
            "cpu_s": cpu,
            "driver_s": driver,
            "makespan_s": driver + sum(r.timings.executor_max for r in results),
        })
    return samples, first, failed


def traced_run(workload: Workload, points: np.ndarray, trace: Trace) -> list:
    """One run with every stage and context start/stop timed from outside.

    Each fit builds the same plan `SparkDBSCAN.fit` would and runs it
    through the real `PipelineRunner`; the only difference is a timing
    wrapper around each stage's ``run`` and a lent context, so that
    context start and stop are spans too instead of unattributed time.
    Returns the final pipeline states (labels, timings, partials).
    """

    def fit(est, pts, sc):
        cfg = est.config
        own = sc is None
        if own:
            with trace.span("engine.context_start"):
                sc = SparkContext(cfg.resolved_master)
        try:
            plan = build_plan(cfg)
            for stage in plan.stages:
                stage.run = _timed(trace, f"pipeline.{type(stage).__name__}",
                                   stage.run)
            return PipelineRunner(plan, cfg).run(
                pts, sc=sc, algo_label=type(est).__name__
            )
        finally:
            if own:
                with trace.span("engine.context_stop"):
                    sc.stop()

    return run_fits(workload, points, fit, span=trace.span)


def _timed(trace: Trace, name: str, func):
    def run(state):
        with trace.span(name):
            return func(state)
    return run


OBSERVED_RUNS = 3


def observed_wall(workload: Workload, points: np.ndarray) -> float:
    """Median wall of a run with the program's own tracer + registry live."""
    def fit(est, pts, sc):
        observed = workload.make_estimator(
            est.config.eps, tracer=Tracer(), metrics_registry=MetricsRegistry()
        )
        return observed.fit(pts, sc=sc)

    walls = []
    speed_after = hostspeed.measure()
    for _ in range(OBSERVED_RUNS):
        gc.collect()
        speed_before = speed_after
        t0 = time.perf_counter()
        run_fits(workload, points, fit)
        wall = time.perf_counter() - t0
        speed_after = hostspeed.measure()
        walls.append(wall / ((speed_before + speed_after) / 2))
    return float(np.median(walls))


def warm_up(workload: Workload, path: str, rounds: int):
    """Set-up rounds: load the hand-off file and run the warm-up fit, so
    lazy imports, allocator pools and page cache are settled before the
    first timed repeat.  Returns the points, each round's raw seconds and
    the host speed they were measured at."""
    raw = []
    with hostspeed.bracket() as region:
        for _ in range(rounds):
            t0 = time.perf_counter()
            points = np.load(path)
            run_fits(workload, points[:WARMUP_ROWS])
            raw.append(time.perf_counter() - t0)
    return points, raw, region.speed


def layer_pass(workload: Workload, points: np.ndarray, first: list,
               untraced_wall: float, seed: int, out_dir: Path):
    """The traced run, the observed run and the probes (``--trace 1``).

    Returns the per-layer metrics and whether the traced labels matched.
    """
    trace = Trace(workload.name)
    gc.collect()
    trace.calibrate()
    with trace.span("run") as root:
        states = traced_run(workload, points, trace)
    trace.calibrate()
    matched = labels_bytes(states) == labels_bytes(first)
    traced_wall = trace.seconds(root)
    layer = {f"pipeline.{name}_s": trace.total(f"pipeline.{name}")
             for name in probes.STAGES}
    layer["pipeline.residual_frac"] = (
        abs(root["end"] - root["start"] - trace.children_total(root))
        / (root["end"] - root["start"])
    )
    layer["pipeline.trace_overhead_frac"] = traced_wall / untraced_wall - 1
    layer["engine.context_start_s"] = trace.total("engine.context_start")
    layer["engine.context_stop_s"] = trace.total("engine.context_stop")
    layer["engine.worker_peak_rss_mb"] = workers_peak_rss_mib()
    layer["obs.tracer_overhead_frac"] = (
        observed_wall(workload, points) / untraced_wall - 1
    )
    layer.update(probes.task_metrics(states, trace.speed(root)))
    layer.update(probes.merge_metrics(states, layer))
    with trace.span("probes"):
        layer.update(probes.run_all(states[-1], trace, seed))
    trace.write(out_dir / f"trace_{workload.name}.jsonl")
    return layer, matched


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(BY_NAME))
    ap.add_argument("points")
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--min-repeats", type=int, required=True)
    ap.add_argument("--warmups", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    workload = BY_NAME[args.workload]

    points, warmup_s, warmup_speed = warm_up(workload, args.points, args.warmups)
    samples, first, failed = timed_repeats(
        workload, points, args.seconds, args.min_repeats
    )
    out: dict = {
        "ready_unix": READY_UNIX,
        "warmup_s": warmup_s,
        "warmup_speed": warmup_speed,
        "samples": samples,
        "driver_peak_rss_mb": own_peak_rss_mib(),
        "fits_per_run": len(workload.eps_values),
        "attempted": len(samples) + failed,
        "oracle_fits": [],
    }
    if first is not None:
        # The oracle checks the first and the last fit of the first run.
        for k in sorted({0, len(first) - 1}):
            np.save(args.out_dir / f"labels_{k}.npy", first[k].labels)
            out["oracle_fits"].append(
                {"eps": workload.eps_values[k], "labels": f"labels_{k}.npy"}
            )
        out["counts"] = {
            "clusters": sum(r.num_clusters for r in first),
            "noise": sum(r.num_noise for r in first),
            "partials": sum(r.num_partial_clusters for r in first),
            "seeds": sum(r.num_seeds for r in first),
        }
    if args.trace and samples:
        untraced_wall = float(np.median(
            [s["wall_s"] / s["host_speed"] for s in samples]
        ))
        layer, matched = layer_pass(
            workload, points, first, untraced_wall, args.seed, args.out_dir
        )
        out["layer"] = layer
        out["attempted"] += 1
        if not matched:
            print("traced labels differ from the untraced run", file=sys.stderr)
            failed += 1
        out["counts"]["merge.collect_bytes"] = layer["merge.collect_bytes"]
        out["counts"]["kdtree.neighbors_mean"] = layer["kdtree.neighbors_mean"]
    out["failed"] = failed
    with open(args.out_dir / "worker.json", "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
