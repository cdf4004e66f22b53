"""Table I dataset registry.

The paper's five datasets (Table I):

    Name    Points      d    eps   minpts
    c10k    10,000      10   25    5
    c100k   102,400     10   25    5
    r10k    10,000      10   25    5
    r100k   102,400     10   25    5
    r1m     1,024,000   10   25    5

Full-size r1m is intractable for a pure-Python single-machine run, so
sizes are scaled by the ``REPRO_SCALE`` environment variable (default
keeps the 10k datasets at full size and caps the larger ones; set
``REPRO_SCALE=1.0`` to restore paper sizes).  Every generated dataset
is deterministic in (name, scale).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .quest import GeneratedData, generate_clustered, generate_scattered

#: Paper parameters, shared by every dataset (Table I).
EPS = 25.0
MINPTS = 5
DIMENSIONS = 10

#: Paper row: name -> full point count.
PAPER_SIZES: dict[str, int] = {
    "c10k": 10_000,
    "c100k": 102_400,
    "r10k": 10_000,
    "r100k": 102_400,
    "r1m": 1_024_000,
}

#: Default caps keeping the whole benchmark suite tractable in pure Python.
DEFAULT_CAPS: dict[str, int] = {
    "c10k": 10_000,
    "c100k": 25_600,
    "r10k": 10_000,
    "r100k": 25_600,
    "r1m": 131_072,
}

_SEEDS: dict[str, int] = {name: 1000 + i for i, name in enumerate(PAPER_SIZES)}


@dataclass(frozen=True)
class DatasetSpec:
    """One Table I row: name, sizes, and DBSCAN parameters."""
    name: str
    n: int               # effective (possibly scaled) point count
    paper_n: int         # the size Table I reports
    d: int = DIMENSIONS
    eps: float = EPS
    minpts: int = MINPTS


def effective_size(name: str, scale: float | None = None) -> int:
    """Point count after applying REPRO_SCALE (or an explicit scale)."""
    if name not in PAPER_SIZES:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(PAPER_SIZES)}")
    paper_n = PAPER_SIZES[name]
    if scale is None:
        env = os.environ.get("REPRO_SCALE")
        if env is None:
            return min(paper_n, DEFAULT_CAPS[name])
        scale = float(env)
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    return max(100, int(paper_n * scale))


def dataset_spec(name: str, scale: float | None = None) -> DatasetSpec:
    """Spec for a named dataset at the current scale."""
    return DatasetSpec(
        name=name, n=effective_size(name, scale), paper_n=PAPER_SIZES[name]
    )


def make_dataset(name: str, scale: float | None = None) -> GeneratedData:
    """Generate a Table I dataset (deterministic in name and scale)."""
    spec = dataset_spec(name, scale)
    seed = _SEEDS[name]
    if name.startswith("c"):
        # Few large clusters.
        return generate_clustered(
            n=spec.n, d=spec.d, num_clusters=10, cluster_std=8.0,
            noise_fraction=0.05, seed=seed,
        )
    # "r" family: many small clusters + more noise.
    return generate_scattered(
        n=spec.n, d=spec.d, points_per_cluster=200, cluster_std=5.0,
        noise_fraction=0.10, seed=seed,
    )

