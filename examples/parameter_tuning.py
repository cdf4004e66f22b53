#!/usr/bin/env python
"""Choosing eps by sweeping it: many short fits on one lent context.

The paper fixes (eps=25, minpts=5) for its Table I data.  A downstream
user facing new data sweeps eps instead, and a sweep is many small jobs:
starting an executor pool per fit would cost more than the fits.  This
example lends one `SparkContext` to every fit — the shape the
``sweep_small_jobs`` benchmark workload measures — and reports clusters
and noise fraction per eps.  The plateau where the cluster count stops
moving is the stable choice.

    python examples/parameter_tuning.py
"""

from repro.data import generate_clustered
from repro.dbscan import SparkDBSCAN
from repro.engine import SparkContext


def main() -> None:
    minpts = 5
    data = generate_clustered(n=4000, num_clusters=6, cluster_std=8.0,
                              noise_fraction=0.08, seed=11)
    print(f"{data.n} points, {len(data.clusters)} planted clusters\n")
    print("   eps  clusters  noise")

    recovered = []
    with SparkContext("threads[4]") as sc:
        for eps in range(5, 50, 5):
            model = SparkDBSCAN(float(eps), minpts, num_partitions=4,
                                neighbor_mode="batched")
            result = model.fit(data.points, sc=sc)
            print(f"  {eps:4d}  {result.num_clusters:8d}  "
                  f"{result.num_noise / data.n:5.1%}")
            if result.num_clusters == len(data.clusters):
                recovered.append(eps)

    assert recovered, "some eps on the grid should recover the planted clusters"
    print(f"\nplanted structure recovered for eps in {recovered} "
          "(the paper used 25.0 for its similarly-generated data)")


if __name__ == "__main__":
    main()
