"""Sequential DBSCAN — the paper's Algorithm 1.

Two interchangeable implementations of the point-state bookkeeping,
reproducing the paper's Section III-B data-structure discussion:

- ``impl="array"``: numpy boolean/int arrays for visited/labels state —
  the fast idiomatic-Python choice.
- ``impl="hashtable"``: dict + deque, the literal translation of the
  paper's Java ``Hashtable`` + ``LinkedList``-backed ``Queue``.

Both produce identical clusterings; Ablation C benchmarks them
head-to-head.

As a pipeline composition this is the degenerate single-partition plan
(the ``sequential`` row of `repro.pipeline.STAGE_MANIFEST`): LoadPoints
→ BuildIndex → SequentialExpand, no engine, no merge.  The expansion kernels below are
what `repro.pipeline.stages.SequentialExpand` calls.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..kdtree import KDTree
from ..obs.spans import Tracer
from ..pipeline.config import RunConfig
from .core import NOISE, UNCLASSIFIED, ClusteringResult


def dbscan_sequential(
    points: np.ndarray,
    eps: float,
    minpts: int,
    tree: KDTree | None = None,
    impl: str = "array",
    leaf_size: int = 64,
    max_neighbors: int | None = None,
    neighbor_mode: str = "per_point",
    tracer: Tracer | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> ClusteringResult:
    """Cluster ``points`` with classic DBSCAN (Algorithm 1).

    Parameters mirror the paper: ``eps`` neighbourhood radius, ``minpts``
    core-point threshold.  A prebuilt `KDTree` may be passed to skip
    construction (used when timing query cost separately).

    ``neighbor_mode="batched"`` precomputes all n neighbourhoods with one
    `KDTree.query_radius_batch` call before expanding, ``"per_point"``
    queries at first visit; labels are identical.  Only this plan (the
    in-tree reference) still has the two code paths (DESIGN.md §6).
    """
    config = RunConfig(
        eps=eps,
        minpts=minpts,
        plan="sequential",
        num_partitions=1,
        impl=impl,
        leaf_size=leaf_size,
        max_neighbors=max_neighbors,
        neighbor_mode=neighbor_mode,
    )
    from ..pipeline.plans import build_plan
    from ..pipeline.runner import PipelineRunner

    runner = PipelineRunner(
        build_plan(config), config, tracer=tracer,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    state = runner.run(points, tree=tree, algo_label="sequential")
    return ClusteringResult(labels=state.labels, timings=state.timings)


def _dbscan_array(n: int, minpts: int, neigh_of) -> np.ndarray:
    visited = np.zeros(n, dtype=bool)
    labels = np.full(n, UNCLASSIFIED, dtype=np.int64)
    next_cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        neigh = neigh_of(i)
        if neigh.size < minpts:
            labels[i] = NOISE
            continue
        cid = next_cluster
        next_cluster += 1
        labels[i] = cid
        queue = deque(neigh.tolist())
        while queue:
            j = queue.popleft()
            if not visited[j]:
                visited[j] = True
                neigh2 = neigh_of(j)
                if neigh2.size >= minpts:
                    queue.extend(neigh2.tolist())
            if labels[j] < 0:  # UNCLASSIFIED or previously marked NOISE
                labels[j] = cid
    labels[labels == UNCLASSIFIED] = NOISE
    return labels


def _dbscan_hashtable(n: int, minpts: int, neigh_of) -> np.ndarray:
    """Literal port of the paper's Java data-structure choices.

    Visited state and cluster membership live in hash tables
    (``dict``), the expansion frontier in a linked-list queue
    (``deque``), matching Section III-B's O(1) put/containsKey and O(1)
    add/remove analysis.
    """
    visited: dict[int, bool] = {}
    assignment: dict[int, int] = {}
    noise: dict[int, bool] = {}
    next_cluster = 0
    for i in range(n):
        if i in visited:
            continue
        visited[i] = True
        neigh = neigh_of(i)
        if len(neigh) < minpts:
            noise[i] = True
            continue
        cid = next_cluster
        next_cluster += 1
        assignment[i] = cid
        queue: deque[int] = deque(int(x) for x in neigh)
        while queue:
            j = queue.popleft()
            if j not in visited:
                visited[j] = True
                neigh2 = neigh_of(j)
                if len(neigh2) >= minpts:
                    queue.extend(int(x) for x in neigh2)
            if j not in assignment:
                assignment[j] = cid
    labels = np.full(n, NOISE, dtype=np.int64)
    for idx, cid in assignment.items():
        labels[idx] = cid
    return labels


def core_point_mask(
    points: np.ndarray, eps: float, minpts: int, tree: KDTree | None = None
) -> np.ndarray:
    """Boolean mask of core points (Definition 1: ≥ minpts points within eps)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if tree is None:
        tree = KDTree(points)
    return tree.count_radius_batch(points, eps) >= minpts
