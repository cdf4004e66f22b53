"""Ablation J — batched neighbourhood kernels in the executor hot loop.

The per-point executor loop issues one kd-tree range query per owned
point from Python; at Table-I scale the interpreter overhead of those
traversals dominates executor time.  ``neighbor_mode="batched"`` answers
all owned queries in one vectorised traversal — per kd-tree leaf one
BLAS product of the active queries against the leaf block, used as a
filter with an exact re-check of the pairs within rounding of eps²
(DESIGN.md §6) — and replays BFS expansion over the stored CSR rows.

Claim checked here: on a 100k-point Table-I-style dataset (d=10,
eps=25, minpts=5) the batched executor phase is at least 2x faster than
the per-point loop while producing byte-identical labels.  Measured with
this module's generator and settings at N = 20 000 (the 100k run takes
minutes per mode and was not repeated): 2.6x with the einsum distance
tiles (9.99 s per-point, 3.84 s batched), 5.8x with the product-form
kernel (9.65 s, 1.66 s).
"""

from __future__ import annotations

import numpy as np

from repro.data import EPS, MINPTS, generate_clustered
from repro.dbscan import SparkDBSCAN
from repro.kdtree import KDTree

from _harness import print_table, save_results

N = 100_000
PARTITIONS = 8
MODES = ("per_point", "batched")


def _executor_time(points: np.ndarray, tree: KDTree, mode: str, repeats: int = 1):
    """Best-of-``repeats`` executor phase time (measured-task sum).

    One round per mode by default: a single per-point pass over 100k
    points already runs minutes, and the margin checked below is 2x, far
    above scheduling noise.
    """
    model = SparkDBSCAN(EPS, MINPTS, num_partitions=PARTITIONS,
                        neighbor_mode=mode)
    best = None
    for _ in range(repeats):
        res = model.fit(points, tree=tree)
        if best is None or res.timings.executor_total < best.timings.executor_total:
            best = res
    return best


def test_ablation_batch_kernel(benchmark):
    # Generated directly: the named Table-I datasets are REPRO_SCALE-capped,
    # and this claim is specifically about 100k-point executor phases.
    g = generate_clustered(n=N, d=10, num_clusters=10, seed=7)
    tree = KDTree(g.points)

    rows, payload = [], {}
    results = {}
    for mode in MODES:
        res = _executor_time(g.points, tree, mode)
        results[mode] = res
        rows.append([
            mode, round(res.timings.executor_total, 3),
            round(res.timings.executor_max, 3),
            round(res.timings.driver_merge, 3),
            res.num_clusters, res.num_partial_clusters,
        ])
        payload[mode] = {
            "executor_total": res.timings.executor_total,
            "executor_max": res.timings.executor_max,
            "driver_merge": res.timings.driver_merge,
            "num_clusters": res.num_clusters,
            "num_partials": res.num_partial_clusters,
        }

    speedup = (payload["per_point"]["executor_total"]
               / payload["batched"]["executor_total"])
    payload["executor_speedup"] = speedup
    print_table(
        f"Ablation J: neighbour kernel ({N} points, d=10, {PARTITIONS} partitions)",
        ["mode", "exec total (s)", "exec max (s)", "merge (s)",
         "clusters", "partials"],
        rows,
    )
    print(f"batched executor speedup: {speedup:.2f}x")
    save_results("ablation_batch_kernel", payload)

    # The two modes are the same algorithm over the same neighbourhoods:
    # labels must match to the byte, not merely up to relabelling.
    assert (results["per_point"].labels.tobytes()
            == results["batched"].labels.tobytes())
    assert speedup >= 2.0, f"batched kernel only {speedup:.2f}x faster"

    benchmark.pedantic(
        lambda: SparkDBSCAN(EPS, MINPTS, num_partitions=4,
                            neighbor_mode="batched").fit(
            g.points[:10_000], tree=None
        ),
        rounds=2, iterations=1,
    )
