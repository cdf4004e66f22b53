"""Per-layer probes: each layer's public functions, timed from outside.

Every probe runs serially in the run process, on the traced run's own
points (normalised and, for the spatial plan, reordered — exactly what
the plan's executors saw) and with the workload's own configuration.
Each timing is a `worker.Trace` span, so it lands in the trace file
next to the stage spans; counts are exact and repeat for a given seed.

A metric whose layer is not in the workload's plan is reported as 0
(cells.* off the cell plan, a stage the plan does not have): the driver
wants every per-layer name on every workload.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.dbscan.cells import build_cell_assignment, cell_local_dbscan
from repro.dbscan.merge import apply_gid_map, merge_edges
from repro.dbscan.partial import (
    digest_from_partials,
    digest_payload_nbytes,
    local_dbscan,
    partials_payload_nbytes,
)
from repro.engine import INT_SUM, LIST_CONCAT, SparkContext
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree

#: Stage classes of the six plans the workloads can resolve to; one
#: ``pipeline.<Stage>_s`` metric each.
STAGES = (
    "LoadPoints", "SpatialReorder", "BuildIndex", "PartitionPlan",
    "BroadcastModel", "LocalExpand", "CollectPartials", "MergePartials",
    "CollectEdges", "MergeEdges", "ApplyGidMap", "RelabelFilter",
    "CellPartition", "LocalIndexExpand", "CellCollect",
)

SAMPLE_ROWS = 8192       # kd-tree batch-query sample
POINT_QUERY_ROWS = 2048  # its prefix walked one query at a time
NOOP_JOBS = 10
COLLECT_BYTES = 8 * 1024 * 1024
ACCUMULATOR_BYTES = 1024 * 1024


def task_metrics(states: list, speed: float) -> dict[str, float]:
    """Executor task time of the traced run, from ``timings``, at the
    reference host speed (``speed`` is the traced run's factor)."""
    per_fit = [[d / speed for d in s.timings.executor_task_durations]
               for s in states]
    flat = [d for durations in per_fit for d in durations]
    max_s = sum(max(d) for d in per_fit if d)
    mean_s = sum(sum(d) / len(d) for d in per_fit if d)
    return {
        "tasks.total_s": sum(flat),
        "tasks.max_s": max_s,
        "tasks.count": len(flat),
        "tasks.imbalance": max_s / mean_s if mean_s else 0.0,
    }


def merge_metrics(states: list, layer: dict[str, float]) -> dict[str, float]:
    """What the driver's merge received and produced, summed over fits."""
    partials_in = seeds_in = collect_bytes = merges = clusters = 0
    for s in states:
        if s.partials is not None:
            partials_in += len(s.partials)
            seeds_in += sum(len(c.seeds) for c in s.partials)
            collect_bytes += partials_payload_nbytes(s.partials)
        else:
            plan = s.extras["merge_plan"]
            partials_in += plan.num_partials
            seeds_in += plan.num_seeds
            collect_bytes += digest_payload_nbytes(s.extras["digest"])
        merges += s.outcome.num_merges
        clusters += s.outcome.num_global_clusters
    merge_s = layer["pipeline.MergePartials_s"] + layer["pipeline.MergeEdges_s"]
    return {
        "merge.partials_in": partials_in,
        "merge.seeds_in": seeds_in,
        "merge.num_merges": merges,
        "merge.clusters_out": clusters,
        "merge.collect_bytes": collect_bytes,
        "merge.partials_per_s": partials_in / merge_s if merge_s else 0.0,
    }


def run_all(state, trace, seed: int) -> dict[str, float]:
    """Every probe, on the final state of the traced run's last fit.

    Each probe group ends with a host-speed reading, so its spans are
    scaled by the readings on either side of the group.
    """
    cfg = state.config
    points = state.points
    out: dict[str, float] = {}
    trace.calibrate()
    tree = _kdtree(out, trace, points, cfg, seed)
    partials0 = _partial(out, trace, points, tree, cfg)
    _cells(out, trace, points, cfg)
    _merge(out, trace, state, partials0)
    _engine(out, trace, tree, cfg.resolved_master, cfg.num_partitions)
    return out


def _kdtree(out, trace, points, cfg, seed) -> KDTree:
    n = len(points)
    rng = np.random.default_rng(seed)
    sample = points[rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False)]
    with trace.span("kdtree.build"):
        tree = KDTree(points, leaf_size=cfg.leaf_size)
    with trace.span("kdtree.query_batch"):
        tree.query_radius_batch(sample, cfg.eps)
    with trace.span("kdtree.count_batch"):
        counts = tree.count_radius_batch(sample, cfg.eps)
    with trace.span("kdtree.query_point"):
        for q in sample[:POINT_QUERY_ROWS]:
            tree.query_radius(q, cfg.eps)
    # The round trip BroadcastModel pays under the processes backend.
    with trace.span("kdtree.pickle"):
        blob = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
    trace.calibrate()
    for name in ("build", "query_batch", "count_batch", "query_point", "pickle"):
        out[f"kdtree.{name}_s"] = trace.total(f"kdtree.{name}")
    out["kdtree.neighbors_mean"] = float(counts.mean())
    out["kdtree.pickle_bytes"] = len(blob)
    return tree


def _partial(out, trace, points, tree, cfg) -> list:
    """`local_dbscan` on range partition 0, in the workload's mode."""
    partitioner = IndexRangePartitioner(len(points), cfg.num_partitions)
    lo, hi = partitioner.range_of(0)
    with trace.span("partial.local_dbscan"):
        partials = local_dbscan(
            0, range(lo, hi), points, tree, cfg.eps, cfg.minpts, partitioner,
            neighbor_mode=cfg.neighbor_mode,
            boundary_out=set() if cfg.merge_mode == "edges" else None,
        )
    # The kd-tree share of the same rows in the same mode; what is left
    # of local_dbscan_s is the BFS and its bookkeeping.
    with trace.span("partial.query"):
        if cfg.neighbor_mode == "batched":
            tree.query_radius_batch(points[lo:hi], cfg.eps)
        else:
            for q in points[lo:hi]:
                tree.query_radius(q, cfg.eps)
    with trace.span("partial.digest"):
        digest_from_partials(partials)
    trace.calibrate()
    local_s = trace.total("partial.local_dbscan")
    out["partial.local_dbscan_s"] = local_s
    out["partial.points_per_s"] = (hi - lo) / local_s
    out["partial.expand_s"] = local_s - trace.total("partial.query")
    out["partial.partials"] = len(partials)
    out["partial.seeds"] = sum(len(c.seeds) for c in partials)
    out["partial.members"] = sum(len(c.members) for c in partials)
    out["partial.digest_s"] = trace.total("partial.digest")
    out["partial.payload_bytes"] = partials_payload_nbytes(partials)
    return partials


def _cells(out, trace, points, cfg) -> None:
    names = ("assign_s", "num_cells", "halo_points", "halo_ratio",
             "load_imbalance", "payload_bytes", "local_dbscan_s")
    out.update({f"cells.{name}": 0.0 for name in names})
    if cfg.partitioning != "cells":
        return
    with trace.span("cells.assign"):
        assignment = build_cell_assignment(points, cfg.eps, cfg.num_partitions)
    payloads = assignment.payloads(points)
    with trace.span("cells.local_dbscan"):
        cell_local_dbscan(
            payloads[0], cfg.eps, cfg.minpts, leaf_size=cfg.leaf_size,
            neighbor_mode=cfg.neighbor_mode,
            boundary_out=set() if cfg.merge_mode == "edges" else None,
        )
    trace.calibrate()
    loads = [len(o) + len(h) for o, h in zip(assignment.owned, assignment.halo)]
    out["cells.assign_s"] = trace.total("cells.assign")
    out["cells.num_cells"] = assignment.num_cells
    out["cells.halo_points"] = assignment.halo_points_total
    out["cells.halo_ratio"] = assignment.halo_points_total / len(points)
    out["cells.load_imbalance"] = max(loads) / (sum(loads) / len(loads))
    out["cells.payload_bytes"] = sum(p.nbytes for p in payloads)
    out["cells.local_dbscan_s"] = trace.total("cells.local_dbscan")


def _merge(out, trace, state, partials0) -> None:
    """The edge merge on the partials the driver holds, so both merge
    algorithms are timed on one input; partition 0's where the run
    shipped digests and the driver holds none."""
    partials = state.partials if state.partials is not None else partials0
    digests = digest_from_partials(partials)
    with trace.span("merge.edges_probe"):
        plan = merge_edges(digests)
    with trace.span("merge.apply_probe"):
        apply_gid_map(partials, plan, state.n)
    trace.calibrate()
    out["merge.edges_probe_s"] = trace.total("merge.edges_probe")
    out["merge.apply_probe_s"] = trace.total("merge.apply_probe")


def _identity(x):
    return x


def _engine(out, trace, tree, master: str, parts: int) -> None:
    """The substrate alone, on the workload's own master string."""
    sc = SparkContext(master)
    try:
        index = sc.parallelize(range(parts), parts)
        noop = []
        for _ in range(NOOP_JOBS):
            with trace.span("engine.noop_job") as sp:
                index.map(_identity).collect()
            noop.append(sp)

        with trace.span("engine.broadcast"):
            tree_b = sc.broadcast(tree)
            index.map(lambda _: tree_b.value.n).collect()

        with trace.span("engine.collect"):
            index.map(lambda _: np.zeros(COLLECT_BYTES, dtype=np.uint8)).collect()

        acc = sc.accumulator(LIST_CONCAT)
        with trace.span("engine.accumulator"):
            index.foreach(lambda _: acc.add([bytes(ACCUMULATOR_BYTES)]))
            _ = acc.value

        # A persisted RDD read by two jobs: every partition computed in
        # job 2 is a cache miss (per-process caches under `processes`).
        computed = sc.accumulator(INT_SUM)

        def compute(_pid, it):
            computed.add(1)
            return it

        cached = index.map_partitions_with_index(compute).persist()
        cached.count()
        cached.count()
        cached.unpersist()

        recomputed = computed.value - parts
        failures = sum(
            1 for job in sc.dag_scheduler.job_metrics for stage in job.stages
            for t in stage.task_metrics if not t.succeeded
        )
    finally:
        sc.stop()
    trace.calibrate()
    noop_s = float(np.median([trace.seconds(sp) for sp in noop]))
    out["engine.noop_job_s"] = noop_s
    out["engine.task_overhead_ms"] = 1000 * noop_s / parts
    out["engine.broadcast_s"] = trace.total("engine.broadcast") - noop_s
    out["engine.broadcast_bytes"] = tree_b.nbytes
    out["engine.collect_mb_per_s"] = (
        parts * COLLECT_BYTES / 2**20 / trace.total("engine.collect")
    )
    out["engine.accumulator_s"] = trace.total("engine.accumulator")
    out["engine.cache_recompute_ratio"] = recomputed / parts
    out["engine.task_failures"] = failures
