"""The five benchmark workloads: generator, configuration and run shape.

Each workload isolates one layer of the `repro run` path (README.md has
the full "why" column; `BENCHMARK.json` the one-line version).  Sizes
are the paper-scale ``base_n`` times one recorded factor, `SCALE`: the
driver allows about 30 s per run including set-up, which the paper-size
inputs (8-23 s per fit on two cores) cannot repeat often enough for a
steady median.  `SCALE` is a constant, not an option: paper-size runs
are a later issue with a baseline of their own.

All inputs come from `repro.data` generators with ``seed = --seed``; the
program under test only ever receives the generated array.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.data import generate_clustered, generate_scattered, generate_skewed
from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.engine import SparkContext

#: The one factor every ``base_n`` is multiplied by (see module docstring).
SCALE = 0.125
#: ``--smoke`` factor: every workload at n/16.
SMOKE_SCALE = 1 / 16
MINPTS = 5
#: Rows of the warm-up fit that precedes the timed repeats.
WARMUP_ROWS = 5000

#: The scattered "r" family of Table I (r100k at full size).
_SCATTERED = dict(d=10, points_per_cluster=200, cluster_std=5.0,
                  noise_fraction=0.10)


@dataclass(frozen=True)
class Workload:
    """One benchmark input + configuration.

    A *run* is one fit per entry of ``eps_values``.  With
    ``lent_master`` set, all fits of a run share one `SparkContext`
    started and stopped inside the run (the parameter-sweep shape);
    otherwise each fit owns its context, as `SparkDBSCAN.fit` does.
    """

    name: str
    base_n: int
    generator: Callable[..., Any]
    gen_kwargs: dict[str, Any]
    estimator: type[SparkDBSCAN]
    est_kwargs: dict[str, Any]
    eps_values: tuple[float, ...]
    lent_master: str | None = None

    def n(self, scale: float) -> int:
        """Input size at the given scale factor."""
        return int(self.base_n * scale)

    def generate(self, seed: int, scale: float) -> np.ndarray:
        """The workload's points for ``seed`` (same seed, same array)."""
        return self.generator(
            n=self.n(scale), seed=seed, **self.gen_kwargs
        ).points

    def make_estimator(self, eps: float, **extra: Any) -> SparkDBSCAN:
        """The configured frontend for one fit."""
        return self.estimator(eps, MINPTS, **self.est_kwargs, **extra)


def default_fit(est: SparkDBSCAN, points: np.ndarray, sc: SparkContext | None):
    """One untraced fit through the public frontend."""
    return est.fit(points, sc=sc)


def no_span(name: str):
    """The untraced stand-in for `worker.Trace.span`."""
    return nullcontext()


def run_fits(workload: Workload, points: np.ndarray, fit=default_fit,
             span=no_span) -> list:
    """One run of the workload: one ``fit`` result per eps value.

    ``fit(est, points, sc)`` is `default_fit` for the timed repeats; the
    traced run passes a stage-timing replacement with the same shape and
    a ``span`` factory that times the lent context's start and stop.
    """
    sc = None
    if workload.lent_master:
        with span("engine.context_start"):
            sc = SparkContext(workload.lent_master)
    try:
        return [
            fit(workload.make_estimator(eps), points, sc)
            for eps in workload.eps_values
        ]
    finally:
        if sc is not None:
            with span("engine.context_stop"):
                sc.stop()


WORKLOADS: tuple[Workload, ...] = (
    # ~475 neighbours per point at full size: LocalExpand (batched query
    # + CSR expansion) dominates, the driver is a few percent.  The only
    # workload with real process parallelism on one long job.
    Workload(
        name="dense_range_procs",
        base_n=51200,
        generator=generate_clustered,
        gen_kwargs=dict(d=10, num_clusters=10, cluster_std=8.0,
                        noise_fraction=0.05),
        estimator=SparkDBSCAN,
        est_kwargs=dict(num_partitions=4, master="processes[2]",
                        neighbor_mode="batched"),
        eps_values=(25.0,),
    ),
    # The paper's configuration and the library default: per-point
    # kernel, 32 partitions, thousands of partial clusters, so the
    # driver (broadcast, drain, merge_partials) bounds the makespan —
    # the Fig 6d/8d collapse point.
    Workload(
        name="paper_r100k_p32",
        base_n=102400,
        generator=generate_scattered,
        gen_kwargs=_SCATTERED,
        estimator=SparkDBSCAN,
        est_kwargs=dict(num_partitions=32),
        eps_values=(25.0,),
    ),
    # Largest n, the merge layer used the other way (digests + edges).
    # Serial backend on purpose: under `processes` ApplyGidMap recomputes
    # the expansion on a per-process cache miss and the run goes bimodal;
    # that hazard is recorded as engine.cache_recompute_ratio instead.
    Workload(
        name="scattered_spatial_edges",
        base_n=409600,
        generator=generate_scattered,
        gen_kwargs=_SCATTERED,
        estimator=SpatialSparkDBSCAN,
        est_kwargs=dict(num_partitions=8, merge_mode="edges",
                        neighbor_mode="batched"),
        eps_values=(25.0,),
    ),
    # The geospatial regime the cell plan exists for: sorted Zipf input,
    # d=2, driver-side build_cell_assignment a large share of the run.
    # 10 clusters, not 20: 20 centres at separation 240 do not fit the
    # 1000^2 domain for every seed.  d=10 cells is excluded on purpose
    # (minutes, all in the 3^d adjacency walk).
    Workload(
        name="skewed_cells_edges",
        base_n=120000,
        generator=generate_skewed,
        gen_kwargs=dict(d=2, num_clusters=10, zipf_exponent=1.2,
                        cluster_std=20, noise_fraction=0.05, shuffle=False),
        estimator=SparkDBSCAN,
        est_kwargs=dict(num_partitions=4, partitioning="cells",
                        merge_mode="edges", neighbor_mode="batched"),
        eps_values=(2.0,),
    ),
    # Parameter tuning: twelve short jobs on one lent context, so
    # per-job engine overhead (tree pickle, broadcast, task ships,
    # collect) shows here and is invisible in the other four.
    Workload(
        name="sweep_small_jobs",
        base_n=10000,
        generator=generate_clustered,
        gen_kwargs=dict(d=10),
        estimator=SparkDBSCAN,
        est_kwargs=dict(num_partitions=8, neighbor_mode="batched"),
        eps_values=tuple(float(e) for e in range(15, 38, 2)),
        lent_master="processes[2]",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
