"""Typed pipeline stages for the paper's driver sequence.

Each stage is one box of the paper's fixed driver program (Sections
IV-A–IV-C): read points, build the kd-tree, plan partitions, broadcast,
expand locally, collect partials, merge, relabel.  A stage declares the
state keys it ``requires`` and ``provides`` (see `PipelineState`); the
`PipelineRunner` wires them together, checkpoints the ones that opt in,
and — on ``--resume`` — restores a stage's outputs from disk instead of
re-running it *and everything upstream of it*.

Every plan composition produces byte-identical labels, partials and
OpCounters to the monolithic ``fit`` methods the stages replaced.  What
several stages do alike is one body each: the tree build
(`build_index`), the executor job (`ship_expansions`), the collect
stages' drain and checkpoint codec (`CollectStage`: one `ClusterTable`
per task, op counts included, as npz columns), the label and outcome
codecs (`LabelStage`, `OutcomeStage`).
The span names emitted here (``driver.kdtree_build``, ``driver.setup``,
``driver.accumulator_drain``, ``driver.merge``, ``driver.relabel``,
``executor.partition_expand``) are the same vocabulary
`repro.obs.TraceReport` already understands.

This module is executor-path code and lives under the SHF001
shuffle-free contract; the shuffle-based baselines get their own stage
modules (`stages_naive`, `stages_mapreduce`) outside it.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict
from functools import partial
from typing import NamedTuple

import numpy as np

from ..engine import LIST_CONCAT
from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree
from ..dbscan.merge import (
    EdgeMergePlan,
    MergeOutcome,
    member_labels,
    merge_edges,
    merge_partials,
    write_labels,
)
from ..dbscan.partial import (
    ClusterTable,
    digest_payload_nbytes,
    local_dbscan,
    partials_payload_nbytes,
)
from ..obs.collect import task_span
from .checkpoint import CheckpointStore
from .memo import lent_memo
from .state import PipelineState


class PipelineError(Exception):
    """A plan is mis-wired (missing requires) or a stage misbehaved."""


class Stage:
    """One step of a `Plan`.

    Subclasses set ``name``/``requires``/``provides`` and implement
    ``run``.  Checkpointable stages additionally implement ``save`` and
    ``load``; ``load_requires`` lists the keys a *restore* needs (usually
    fewer than a run — e.g. restoring collected partials needs no engine).
    """

    name: str = "Stage"
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    load_requires: tuple[str, ...] = ()
    checkpointable: bool = False
    always_run: bool = False

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        raise NotImplementedError(f"{self.name} is not checkpointable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class LabelStage(Stage):
    """A checkpointable stage that ends in ``state.labels``."""

    checkpointable = True

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_npz(self.name, labels=state.labels)

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        state.labels = store.load_npz(self.name)["labels"].astype(np.int64)


class OutcomeStage(Stage):
    """A checkpointable stage that ends in a `MergeOutcome`: the labels,
    and the merge statistics as the JSON document next to them."""

    checkpointable = True
    #: The document's keys — the checkpoint format, whatever fields
    #: `MergeOutcome` grows.
    STATS = ("num_merges", "num_global_clusters", "overlapping_points", "groups")

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        o = state.outcome
        store.save_npz(self.name, labels=o.labels)
        store.save_json(self.name, {k: getattr(o, k) for k in self.STATS})

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        stats = store.load_json(self.name)
        state.outcome = MergeOutcome(
            labels=store.load_npz(self.name)["labels"].astype(np.int64),
            **{k: stats[k] for k in self.STATS},
        )


# ---------------------------------------------------------------------------
# shared head: points + index + partition plan
# ---------------------------------------------------------------------------

class LoadPoints(Stage):
    """Validate and normalise the caller's points (driver, Algorithm 2 l.1)."""

    name = "LoadPoints"
    provides = ("points", "n")
    always_run = True

    def run(self, state: PipelineState) -> None:
        with state.tracer.span("driver.load", cat="driver") as sp:
            points = np.ascontiguousarray(state.points, dtype=np.float64)
            if points.ndim != 2:
                raise ValueError(f"points must be 2-D, got shape {points.shape}")
            if points.shape[1] == 0:
                raise ValueError(f"points need d >= 1, got shape {points.shape}")
            if not np.isfinite(points).all():
                raise ValueError("points must be finite (found NaN or inf)")
            state.points = points
            state.n = int(points.shape[0])
            sp.annotate(n=state.n, d=int(points.shape[1]))


def build_index(state: PipelineState, own_copy: bool = False) -> None:
    """Build the fit's one kd-tree over ``state.points`` on the driver;
    with ``own_copy``, over a copy the caller cannot edit."""
    with state.tracer.span("driver.kdtree_build", cat="driver") as sp:
        t0 = time.perf_counter()
        points = state.points.copy() if own_copy else state.points
        state.tree = KDTree(points, leaf_size=state.config.leaf_size)
        state.timings.kdtree_build = time.perf_counter() - t0
        sp.annotate(n=state.n, leaf_size=state.config.leaf_size)


class SpatialReorder(Stage):
    """Renumber points into kd-tree leaf order (the paper's future work).

    The tree that defines the order is the fit's index, re-based onto it;
    downstream stages see spatially-compact index ranges and the final
    `RelabelFilter` undoes the permutation.  Not checkpointable: on tied
    inputs a tree rebuilt over the reordered points is not this tree, so
    a resumed run derives both as the cold run did — always, because the
    spatial plans list ``perm`` among their outputs.
    """

    name = "SpatialReorder"
    requires = ("points",)
    provides = ("perm", "tree")

    def run(self, state: PipelineState) -> None:
        build_index(state)
        state.perm = state.tree.rebase()
        state.points = state.tree.points


class BuildIndex(Stage):
    """Build the global kd-tree on the driver (Algorithm 2 line 2).

    A prebuilt tree lent by the caller (``fit(..., tree=...)``) short-
    circuits the build: the scaling benchmarks sweep partition counts
    over one tree.  On a lent context the context's `TreeMemo` does the
    same for a fit on the points of the last tree built there; the
    stage span says ``reused=True``.
    """

    name = "BuildIndex"
    requires = ("points",)
    provides = ("tree",)

    def run(self, state: PipelineState) -> None:
        if state.tree is not None:
            return
        memo = lent_memo(state)
        if memo is None:
            build_index(state)
            return
        state.tree = memo.lookup(state.points, state.config.leaf_size)
        if state.tree is None:
            build_index(state, own_copy=True)
            memo.keep(state.tree)
        else:
            span = state.tracer.current()
            if span is not None:
                span.annotate(reused=True)


class PartitionPlan(Stage):
    """Slice the index space into contiguous executor ranges (line 3)."""

    name = "PartitionPlan"
    requires = ("n",)
    provides = ("partitioner",)

    def run(self, state: PipelineState) -> None:
        state.partitioner = IndexRangePartitioner(
            state.n, state.config.num_partitions
        )


# ---------------------------------------------------------------------------
# the SEED pipeline body (Algorithm 2)
# ---------------------------------------------------------------------------

class BroadcastModel(Stage):
    """Broadcast the tree, parallelize indices, create the accumulator.

    The only stage that *creates* engine objects; plans whose downstream
    stages are all restored from checkpoints skip it, and the resumed run
    finishes without ever starting a SparkContext.  A lent context's
    memo tree goes out under the memo's broadcast, issued once.
    """

    name = "BroadcastModel"
    requires = ("tree", "n")
    provides = ("engine",)

    def run(self, state: PipelineState) -> None:
        sc = state.ensure_context()
        with state.tracer.span("driver.setup", cat="driver"):
            t0 = time.perf_counter()
            memo = lent_memo(state)
            tree_b = memo.acquire(sc, state.tree) if memo else None
            state.tree_b = tree_b or sc.broadcast(state.tree)
            state.indices = sc.parallelize(
                range(state.n), state.config.num_partitions
            )
            state.acc = sc.accumulator(LIST_CONCAT)
            state.timings.setup += time.perf_counter() - t0


class LocalExpand(Stage):
    """Run local DBSCAN with SEED placement on every partition (ll. 4-29).

    What reaches the driver follows ``merge_mode`` (see
    `ship_expansions`): each task's whole `ClusterTable`, or — with
    ``"edges"`` — only its projection (DESIGN.md §11).
    """

    name = "LocalExpand"
    requires = ("engine", "partitioner")
    provides = ("expanded",)

    def run(self, state: PipelineState) -> None:
        ship_expansions(state, state.indices.map_partitions_with_index(
            partial(_expand_range, state.tree_b, state.partitioner,
                    ExpandOptions.of(state.config))
        ))


class ExpandOptions(NamedTuple):
    """What an expansion task reads of the fit's `RunConfig`, shipped in
    the stage binary in place of the whole config."""

    eps: float
    minpts: int
    seed_policy: str
    max_neighbors: int | None
    neighbor_mode: str
    track_boundary: bool
    witness_once: bool

    @classmethod
    def of(cls, cfg) -> "ExpandOptions":
        return cls(cfg.eps, cfg.minpts, cfg.seed_policy, cfg.max_neighbors,
                   cfg.neighbor_mode, cfg.merge_mode == "edges",
                   cfg.witness_once)

    def kernel_kwargs(self, stats: dict[str, int]) -> dict:
        """The expansion kernels' keyword arguments, with this task's
        own boundary and orphan buffers."""
        return dict(
            seed_policy=self.seed_policy, max_neighbors=self.max_neighbors,
            neighbor_mode=self.neighbor_mode,
            boundary_out=set() if self.track_boundary else None,
            stats=stats, orphans_out=[] if self.witness_once else None,
        )


# The task functions below are module-level and bound with
# `functools.partial`, so C pickle ships them by reference: a stage
# binary carries their arguments, not their code.

def _expand_range(tree_b, partitioner, opts: ExpandOptions, pid: int, it):
    """`LocalExpand`'s task: one partition's `ClusterTable`."""
    # Worker sub-phase spans: no-ops unless the run collects telemetry,
    # merged into the driver trace either way.
    with task_span("task.broadcast_fetch", partition=pid) as bsp:
        t = tree_b.value
        bsp.annotate(n=len(t.points))
    stats: dict[str, int] = {}
    # `mode` stays for the trace schema and selects nothing; the nested
    # task.kdtree_query span carries the kernel's tiles, rows and
    # rechecks.
    with task_span("task.expand", partition=pid,
                   mode=opts.neighbor_mode) as esp:
        table = local_dbscan(pid, it, t.points, t, opts.eps, opts.minpts,
                             partitioner, **opts.kernel_kwargs(stats))
        esp.annotate(partials=len(table), rounds=stats.get("rounds", 0))
    yield table


def _ship(acc, edges: bool, _pid: int, it) -> None:
    """`ship_expansions`' task: the partition's tables, or their
    projections, into the accumulator."""
    for table in it:
        acc.add([table.project() if edges else table])


def ship_expansions(state: PipelineState, expansions) -> None:
    """The executor job shared by the range and cell plans.

    ``expansions`` is the stage's lazy RDD of one `ClusterTable` per
    partition.  With ``merge_mode="partials"`` each task's table ships
    to the driver through the accumulator as the task finishes
    (Algorithm 2 lines 26-28); with ``"edges"`` only its projection
    does, and the tables stay cached in the lineage for `ApplyGidMap` —
    which reuses them, or deterministically recomputes them on a cache
    miss under the processes backend.  Either way the table's op counts
    ride along, and only from this action, so a cache miss in
    `ApplyGidMap`'s job cannot double-count.
    """
    edges = state.config.merge_mode == "edges"
    if edges:
        expansions = expansions.persist()
        state.extras["expanded_rdd"] = expansions

    expansions.foreach_partition_with_index(partial(_ship, state.acc, edges))

    state.timings.charge_executors(state.sc.last_job_metrics.task_durations())


def drain_accumulator(state: PipelineState, stage: "CollectStage") -> None:
    """The collect stages' body: accumulator to driver.

    Drains the accumulator once (`Accumulator.drain`): its registry slot
    goes back to the empty list, so the tasks' tables live no longer
    than what ``stage.install`` keeps of them — not for the context's
    life, which a lent context shares across fits.
    Hands ``stage.install`` the tasks' tables in partition order — the
    accumulator's own order follows task *completion* under the
    threads/processes backends, and nothing downstream may depend on
    which executor finished first.  ``stage.payload_nbytes`` sizes what
    was installed for the ``repro_driver_collect_bytes`` gauge, which
    the runner renders after the fit; the tables' cluster and seed
    counts go on the per-partition expansion spans grafted onto the
    driver trace (with one partition per core, the paper's setup, their
    max is the executor wall), and their op counts on the stage's span
    (``stage.record_ops``).
    """
    tracer = state.tracer
    num_partitions = state.config.num_partitions
    partials_per, seeds_per = [0] * num_partitions, [0] * num_partitions
    with tracer.span("driver.accumulator_drain", cat="driver") as sp:
        items = sorted(state.acc.drain(), key=lambda t: t.task)
        if tracer.enabled:
            for t in items:
                partials_per[t.task] += len(t)
                seeds_per[t.task] += len(t.seeds)
            sp.annotate(num_partials=sum(partials_per))
        stage.install(state, items)
    if tracer.enabled:
        for pid, dur in enumerate(state.timings.executor_task_durations):
            tracer.add_span(
                "executor.partition_expand", dur, cat="executor",
                tid=f"executor-{pid}", partition=pid,
                partials=partials_per[pid], seeds=seeds_per[pid],
            )
    stage.record_ops(state)


class CollectStage(Stage):
    """Drain the accumulator — one `ClusterTable` per task, its op
    counts included — to the driver; save and restore what was
    collected as the tables' npz columns (`ClusterTable.to_arrays`).
    Subclasses say what the tables become (`install`), which tables
    that is (`collected`) and their canonical pickled size
    (`payload_nbytes`).  Drained or restored, the tables' op counts
    then go on the stage's ``pipeline.stage`` span."""

    checkpointable = True

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_npz(self.name, **ClusterTable.to_arrays(self.collected(state)))

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        self.install(state, ClusterTable.from_arrays(store.load_npz(self.name)))
        self.record_ops(state)

    def record_ops(self, state: PipelineState) -> None:
        """Every collected task's `OpCounters`, summed per partition, as
        the ``ops`` label of the open ``pipeline.stage`` span."""
        span = state.tracer.current()
        if span is None:
            return
        ops: dict[int, Counter] = {}
        for table in self.collected(state):
            for pid, oc in table.op_counters():
                ops.setdefault(pid, Counter()).update(asdict(oc))
        span.annotate(ops={pid: dict(c) for pid, c in ops.items()})


class CollectPartials(CollectStage):
    """Collect the tasks' full records into ``state.partials``: one
    founder-sorted `ClusterTable` (founders are globally unique; gid
    numbering downstream follows them) with every task's orphan rows."""

    name = "CollectPartials"
    requires = ("expanded", "engine")
    provides = ("partials",)

    def run(self, state: PipelineState) -> None:
        drain_accumulator(state, self)

    def payload_nbytes(self, state: PipelineState) -> int:
        return partials_payload_nbytes(state.partials, state.partials.orphans)

    def install(self, state: PipelineState, tables: list[ClusterTable]) -> None:
        state.partials = ClusterTable.concat(tables)

    def collected(self, state: PipelineState) -> list[ClusterTable]:
        return [state.partials]


class MergePartials(OutcomeStage):
    """Dig SEEDs and merge partial clusters on the driver (Algorithm 4)."""

    name = "MergePartials"
    requires = ("partials", "n")
    provides = ("outcome",)

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        partials = state.partials
        stats: dict[str, int] = {}
        with state.tracer.span("driver.merge", cat="driver") as sp:
            t0 = time.perf_counter()
            outcome = merge_partials(
                partials,
                state.n,
                strategy=cfg.merge_strategy,
                min_cluster_size=cfg.min_cluster_size,
                stats=stats,
            )
            state.timings.driver_merge = time.perf_counter() - t0
            sp.annotate(
                strategy=cfg.merge_strategy,
                num_partials=len(partials),
                num_seeds=len(partials.seeds),
                orphan_rows=len(partials.orphans),
                num_merges=outcome.num_merges,
                num_global_clusters=outcome.num_global_clusters,
                overlapping_points=outcome.overlapping_points,
                **stats,
            )
        state.outcome = outcome


# ---------------------------------------------------------------------------
# edge-based merge tail (merge_mode="edges", DESIGN.md §11)
# ---------------------------------------------------------------------------

class CollectEdges(CollectStage):
    """Collect the tasks' projections (``extras["digest"]``, partition
    order): O(edges + partials) bytes cross to the driver — counts, seed
    half-edges and boundary members — never the member point lists,
    which stay cached executor-side for `ApplyGidMap`.
    """

    name = "CollectEdges"
    requires = ("expanded", "engine")
    provides = ("digest",)

    def run(self, state: PipelineState) -> None:
        drain_accumulator(state, self)

    def payload_nbytes(self, state: PipelineState) -> int:
        return digest_payload_nbytes(state.extras["digest"])

    def install(self, state: PipelineState, tables: list[ClusterTable]) -> None:
        state.extras["digest"] = tables

    def collected(self, state: PipelineState) -> list[ClusterTable]:
        return state.extras["digest"]


class MergeEdges(Stage):
    """Union-find over cluster keys on the driver: O(edges + partials)."""

    name = "MergeEdges"
    requires = ("digest",)
    provides = ("merge_plan",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        digests = state.extras["digest"]
        stats: dict[str, int] = {}
        with state.tracer.span("driver.merge", cat="driver") as sp:
            t0 = time.perf_counter()
            plan = merge_edges(
                digests, min_cluster_size=cfg.min_cluster_size, stats=stats
            )
            state.timings.driver_merge = time.perf_counter() - t0
            sp.annotate(
                strategy=cfg.merge_strategy,
                merge_mode="edges",
                num_partials=plan.num_partials,
                num_seeds=plan.num_seeds,
                orphan_rows=sum(len(d.orphans) for d in digests),
                num_edges=plan.num_edges,
                num_merges=plan.num_merges,
                num_global_clusters=plan.num_global_clusters,
                overlapping_points=0,
                **stats,
            )
        state.extras["merge_plan"] = plan

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        # The plan's fields; its gid columns and claims as rows, sorted.
        plan = state.extras["merge_plan"]
        by_cid = np.lexsort((plan.local_id, plan.partition))
        rows = np.c_[plan.partition, plan.local_id, plan.gid][by_cid]
        store.save_json(self.name, {
            "gid_of": rows.tolist(),
            "claims": [[s, g] for s, g in sorted(plan.claims.items())],
            **{k: v for k, v in vars(plan).items()
               if k not in ("partition", "local_id", "gid", "claims")},
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        rows = np.array(doc.pop("gid_of"), dtype=np.int64).reshape(-1, 3)
        doc["claims"] = {s: g for s, g in doc["claims"]}
        state.extras["merge_plan"] = EdgeMergePlan(*rows.T, **doc)


class ApplyGidMap(OutcomeStage):
    """Second distributed pass: label members executor-side via the
    broadcast gid columns (`EdgeMergePlan.lookup`, `member_labels`); the
    driver writes each partition's member ids, 4 B a point on the wire
    below 2³¹ points, then the O(boundary) claims (`write_labels`).

    Under the processes backend a fresh worker misses the job-1 cache and
    recomputes the expansion through the lineage — deterministically, so
    the digest it was merged under still describes it exactly.
    """

    name = "ApplyGidMap"
    requires = ("merge_plan", "expanded", "engine", "n")
    provides = ("outcome",)
    # A restore rebuilds the outcome from saved labels alone — no engine,
    # so a fully-restored run never starts a SparkContext.
    load_requires = ()

    def run(self, state: PipelineState) -> None:
        plan: EdgeMergePlan = state.extras["merge_plan"]
        expanded = state.extras["expanded_rdd"]
        sc = state.sc
        gid_b = None
        try:
            with state.tracer.span("driver.apply_labels", cat="driver") as sp:
                t0 = time.perf_counter()
                gid_b = sc.broadcast(plan.lookup())
                label_acc = sc.accumulator(LIST_CONCAT)
                expanded.foreach_partition_with_index(
                    partial(_apply_partition, gid_b, label_acc)
                )
                labels = write_labels(plan, state.n, label_acc.drain())
                state.timings.driver_merge += time.perf_counter() - t0
                sp.annotate(
                    num_labelled_partials=len(plan.gid),
                    num_claims=len(plan.claims),
                )
        finally:
            expanded.unpersist()
            if gid_b is not None:
                gid_b.unpersist()
        state.outcome = MergeOutcome(
            labels, plan.num_merges, plan.num_global_clusters,
            groups=plan.groups,
        )


def _apply_partition(gid_b, label_acc, _pid: int, it) -> None:
    """`ApplyGidMap`'s task: each cached table's member ids and labels."""
    lookup = gid_b.value
    label_acc.add([member_labels(table, lookup) for table in it])


class RelabelFilter(LabelStage):
    """Finalise labels: undo any spatial permutation, remap kept partials.

    For the plain (index-partitioned) plans this is the identity tail.
    The ``perm`` (and, in partials mode, ``partials``) it reads in the
    spatial plans are declared as their ``outputs``, which is what keeps
    the producers from being skipped on a resume.
    """

    name = "RelabelFilter"
    requires = ("outcome",)
    provides = ("labels",)

    def run(self, state: PipelineState) -> None:
        perm = state.perm
        if perm is None:
            state.labels = state.outcome.labels
            return
        with state.tracer.span("driver.relabel", cat="driver"):
            # Undo the permutation: reordered[k] is original point perm[k].
            labels = np.empty_like(state.outcome.labels)
            labels[perm] = state.outcome.labels
            state.labels = labels
            if state.config.keep_partials and state.partials is not None:
                self._remap_partials(state.partials, perm)

    @staticmethod
    def _remap_partials(table: ClusterTable, perm: np.ndarray) -> None:
        # Each column keeps the id dtype it arrived in.
        for f in ("members", "seeds", "founder"):
            ids = getattr(table, f)
            setattr(table, f, perm[ids].astype(ids.dtype, copy=False))

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        super().load(state, store)
        if state.perm is not None and state.config.keep_partials \
                and state.partials is not None:
            # Restored partials are in reordered space; put them back in
            # caller order exactly as a live relabel would have.
            self._remap_partials(state.partials, state.perm)


# ---------------------------------------------------------------------------
# degenerate single-partition plan (Algorithm 1)
# ---------------------------------------------------------------------------

class SequentialExpand(LabelStage):
    """Classic DBSCAN as a single executor-less expansion over all points;
    its own time is charged as the one executor task."""

    name = "SequentialExpand"
    requires = ("points", "tree")
    provides = ("labels",)

    def run(self, state: PipelineState) -> None:
        # Imported lazily: repro.dbscan.sequential is itself a thin shim
        # over this pipeline, so a module-level import would be circular.
        from ..dbscan.sequential import _dbscan_array, _dbscan_hashtable

        cfg = state.config
        points, tree = state.points, state.tree
        t0 = time.perf_counter()
        with state.tracer.span(
            "executor.partition_expand", cat="executor", tid="executor-0",
            partition=0, impl=cfg.impl, mode=cfg.neighbor_mode,
        ):
            if cfg.neighbor_mode == "batched":
                indptr, indices = tree.query_radius_batch(
                    points, cfg.eps, cfg.max_neighbors
                )

                def neigh_of(j: int) -> np.ndarray:
                    return indices[indptr[j]:indptr[j + 1]]
            else:
                query = tree.query_radius

                def neigh_of(j: int) -> np.ndarray:
                    return query(points[j], cfg.eps, cfg.max_neighbors)

            if cfg.impl == "array":
                state.labels = _dbscan_array(state.n, cfg.minpts, neigh_of)
            else:
                state.labels = _dbscan_hashtable(state.n, cfg.minpts, neigh_of)
        state.timings.charge_executors([time.perf_counter() - t0])


__all__ = [
    "Stage",
    "PipelineError",
    "LoadPoints",
    "SpatialReorder",
    "BuildIndex",
    "PartitionPlan",
    "BroadcastModel",
    "LocalExpand",
    "CollectPartials",
    "MergePartials",
    "CollectEdges",
    "MergeEdges",
    "ApplyGidMap",
    "RelabelFilter",
    "SequentialExpand",
]
