"""Section IV-C analytical cost model.

The paper's notation:

- ``n`` points, ``p`` partitions, ``m`` partial clusters,
  ``K`` max partial-cluster size, ``t_straggling`` straggler wait;
- ``Δ`` — driver-side read/transform time;
- ``V`` — per-point neighbour-search time, between ``log n`` and
  ``n^(1-1/d) + k``.

    Ts = Δ + n·log n + n·V + n + K·m
    Tp = Δ + n·log n + (n/p)·V + m·V + t_straggling + n + K·m
    S  = Ts / Tp

The model is in abstract "operation" units; `CalibratedCostModel`
turns it into seconds by fitting the two free constants (per-query
cost and per-element merge cost) from a single measured run, then
predicts speedups at any p — Ablation F compares those predictions
with measured speedups.

The ``n + K·m`` driver-merge term is the paper's — it assumes the
driver collects O(points) of partial state.  The edge-based merge path
collects only O(edges) digests, so the term depends on *which plan* is
modelled.  Rather than hand-maintaining per-plan constants, the merge
term is derived from the statically checked size classes: the
``SIZE_MANIFEST`` in `repro.pipeline.plans` (the same literal the
``SCL`` lint rules prove the code against) declares each stage's
driver-resident output class, `merge_input_class` looks up what the
plan's collect stage actually hands the driver, and `merge_units`
turns that class into model units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadParams:
    """Inputs to the Section IV-C formulas."""

    n: int                      # number of points
    d: int = 10                 # dimensionality (enters the V upper bound)
    m: int = 1                  # number of partial clusters
    K: int = 1                  # max partial-cluster size
    delta: float = 0.0          # Δ: read + transform time
    t_straggling: float = 0.0   # average straggler wait
    k_neighbors: float = 10.0   # k: reported neighbours per range query

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


def merge_input_class(plan: str) -> str:
    """The size class the driver's merge consumes under ``plan``.

    Reads the pipeline's ``STAGE_MANIFEST``/``SIZE_MANIFEST`` literals:
    the plan's (last) collect stage declares what actually lands on the
    driver.  Plans with no collect stage merge in-memory state, which
    is the paper's O(points) assumption.
    """
    from repro.pipeline.plans import SIZE_MANIFEST, STAGE_MANIFEST

    stages = STAGE_MANIFEST.get(plan)
    if stages is None:
        known = ", ".join(sorted(STAGE_MANIFEST))
        raise ValueError(f"unknown plan {plan!r}; expected one of {known}")
    for cls in reversed(stages):
        if "Collect" in cls:
            return SIZE_MANIFEST.get(cls, {}).get("output", "O(points)")
    return "O(points)"


def merge_units(params: WorkloadParams, size_class: str = "O(points)") -> float:
    """Driver-merge cost in model units for a collected ``size_class``.

    - ``O(points)``: the paper's ``n + K·m`` (seed digging over every
      point plus K·m merge comparisons);
    - ``O(edges)``: ``K·m + m`` (union over the merge edges; K·m bounds
      the edge count, plus m find operations for the relabel map);
    - ``O(partials)``/``O(cells)``: ``m`` (one pass over the partials;
      the model has no cell count, partials are its closest proxy);
    - ``O(1)``: a constant unit.
    """
    if size_class == "O(points)":
        return params.n + params.K * params.m
    if size_class == "O(edges)":
        return params.K * params.m + params.m
    if size_class in ("O(partials)", "O(cells)"):
        return float(params.m)
    if size_class == "O(1)":
        return 1.0
    raise ValueError(f"unknown size class {size_class!r}")


def search_time_lower(params: WorkloadParams) -> float:
    """V lower bound: O(log n) — a balanced-tree point search."""
    return math.log2(max(params.n, 2))


def search_time_upper(params: WorkloadParams) -> float:
    """V upper bound: O(n^(1-1/d) + k) — the range-search bound [Kakde]."""
    return params.n ** (1.0 - 1.0 / params.d) + params.k_neighbors


@dataclass(frozen=True)
class CostModel:
    """Abstract-unit model with a chosen V within the paper's bounds.

    ``v_weight`` interpolates V geometrically between the log-n lower
    bound (0.0) and the range-search upper bound (1.0).
    """

    params: WorkloadParams
    v_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.v_weight <= 1.0:
            raise ValueError(f"v_weight must be in [0, 1], got {self.v_weight}")

    @property
    def V(self) -> float:
        """The per-query search-time term, interpolated between the bounds."""
        lo, hi = search_time_lower(self.params), search_time_upper(self.params)
        return lo ** (1.0 - self.v_weight) * hi**self.v_weight

    def build_time(self) -> float:
        """Δ + n·log n (driver read/transform + kd-tree construction)."""
        n = self.params.n
        return self.params.delta + n * math.log2(max(n, 2))

    def merge_time(self, size_class: str = "O(points)") -> float:
        """Driver-side merge units; ``O(points)`` is the paper's
        ``n + K·m``, other classes come from `merge_units` (pass
        `merge_input_class(plan)` to model a specific plan)."""
        return merge_units(self.params, size_class)

    def sequential_time(self) -> float:
        """Ts = Δ + n·log n + n·V + n + K·m."""
        return self.build_time() + self.params.n * self.V + self.merge_time()

    def parallel_time(self, p: int) -> float:
        """Tp = Δ + n·log n + (n/p)·V + m·V + t_straggling + n + K·m."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        return (
            self.build_time()
            + (self.params.n / p) * self.V
            + self.params.m * self.V
            + self.params.t_straggling
            + self.merge_time()
        )

    def speedup(self, p: int) -> float:
        """S = Ts / Tp."""
        return self.sequential_time() / self.parallel_time(p)


@dataclass
class CalibratedCostModel:
    """Seconds-valued model fitted from one measured run.

    ``query_cost`` (s per range query) and ``merge_unit_cost`` (s per
    merged element) are the two free constants; Δ and t_straggling are
    taken from measurement directly.  ``merge_size_class`` selects the
    driver-merge term (see `merge_units`); fit and prediction must use
    the same class or the free constant absorbs the mismatch.
    """

    params: WorkloadParams
    query_cost: float
    merge_unit_cost: float
    merge_size_class: str = "O(points)"

    @classmethod
    def fit(
        cls,
        params: WorkloadParams,
        measured_executor_total: float,
        measured_merge: float,
        merge_size_class: str = "O(points)",
    ) -> "CalibratedCostModel":
        """Calibrate from a run's executor-total and driver-merge seconds."""
        if measured_executor_total < 0 or measured_merge < 0:
            raise ValueError("measured times must be non-negative")
        query_cost = measured_executor_total / max(params.n, 1)
        merge_unit = measured_merge / max(merge_units(params, merge_size_class), 1)
        return cls(
            params=params,
            query_cost=query_cost,
            merge_unit_cost=merge_unit,
            merge_size_class=merge_size_class,
        )

    def parallel_time(self, p: int) -> float:
        """Predicted parallel time on p cores (seconds)."""
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        executor = (self.params.n / p + self.params.m) * self.query_cost
        merge = merge_units(self.params, self.merge_size_class) * self.merge_unit_cost
        return self.params.delta + executor + self.params.t_straggling + merge

    def sequential_time(self) -> float:
        """Predicted 1-core time (seconds)."""
        executor = self.params.n * self.query_cost
        merge = merge_units(self.params, self.merge_size_class) * self.merge_unit_cost
        return self.params.delta + executor + merge

    def speedup(self, p: int) -> float:
        """Predicted speedup Ts / Tp at p cores."""
        return self.sequential_time() / self.parallel_time(p)
