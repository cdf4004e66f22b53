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
(`build_index`), the executor job (`ship_expansions`), the accumulator
drain (`drain_accumulator`), the counters, label and outcome checkpoint
codecs (`counters_doc` / `restore_counters`, `LabelStage`,
`OutcomeStage`).
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

import numpy as np

from ..engine import LIST_CONCAT
from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree
from ..dbscan.merge import (
    EdgeMergePlan,
    MergeOutcome,
    apply_gid_map,
    member_labels,
    merge_edges,
    merge_partials,
)
from ..dbscan.partial import (
    LocalExpansion,
    OpCounters,
    PartialCluster,
    PartialSummary,
    PartitionDigest,
    digest_payload_nbytes,
    local_dbscan,
    partials_payload_nbytes,
    partition_digest,
)
from ..obs.collect import task_span
from .checkpoint import CheckpointStore
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
            if not np.isfinite(points).all():
                raise ValueError("points must be finite (found NaN or inf)")
            state.points = points
            state.n = int(points.shape[0])
            sp.annotate(n=state.n, d=int(points.shape[1]))


def build_index(state: PipelineState) -> None:
    """Build the fit's one kd-tree over ``state.points`` on the driver."""
    with state.tracer.span("driver.kdtree_build", cat="driver") as sp:
        t0 = time.perf_counter()
        state.tree = KDTree(state.points, leaf_size=state.config.leaf_size)
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
    over one tree.
    """

    name = "BuildIndex"
    requires = ("points",)
    provides = ("tree",)

    def run(self, state: PipelineState) -> None:
        if state.tree is None:
            build_index(state)


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
    """Broadcast the tree, parallelize indices, create accumulators.

    The only stage that *creates* engine objects; plans whose downstream
    stages are all restored from checkpoints skip it, and the resumed run
    finishes without ever starting a SparkContext.
    """

    name = "BroadcastModel"
    requires = ("tree", "n")
    provides = ("engine",)

    def run(self, state: PipelineState) -> None:
        sc = state.ensure_context()
        with state.tracer.span("driver.setup", cat="driver"):
            t0 = time.perf_counter()
            state.tree_b = sc.broadcast(state.tree)
            state.indices = sc.parallelize(
                range(state.n), state.config.num_partitions
            )
            open_accumulators(state, sc)
            state.timings.setup += time.perf_counter() - t0


def open_accumulators(state: PipelineState, sc) -> None:
    """The partials/digests accumulator, plus one for `OpCounters` when
    a metrics registry is there to receive them."""
    state.acc = sc.accumulator(LIST_CONCAT)
    state.counters_acc = (
        sc.accumulator(LIST_CONCAT)
        if state.metrics_registry is not None else None
    )


class LocalExpand(Stage):
    """Run local DBSCAN with SEED placement on every partition (ll. 4-29).

    What reaches the driver follows ``merge_mode`` (see
    `ship_expansions`): whole partial clusters, or — with ``"edges"`` —
    only each partition's `PartitionDigest` (DESIGN.md §11).
    """

    name = "LocalExpand"
    requires = ("engine", "partitioner")
    provides = ("expanded",)

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        partitioner = state.partitioner
        eps, minpts = cfg.eps, cfg.minpts
        seed_policy, max_neighbors = cfg.seed_policy, cfg.max_neighbors
        neighbor_mode = cfg.neighbor_mode
        tree_b = state.tree_b
        collect_counters = state.counters_acc is not None
        track_boundary = cfg.merge_mode == "edges"

        def expand(pid: int, it):
            # Worker sub-phase spans: no-ops unless the run collects
            # telemetry, merged into the driver trace either way.
            with task_span("task.broadcast_fetch", partition=pid) as bsp:
                t = tree_b.value
                bsp.annotate(n=len(t.points))
            counters = OpCounters() if collect_counters else None
            boundary: set[int] | None = set() if track_boundary else None
            stats: dict[str, int] = {}
            # `mode` stays for the trace schema and selects nothing; the
            # nested task.kdtree_query span carries the kernel's tiles,
            # rows and rechecks.
            with task_span(
                "task.expand", partition=pid, mode=neighbor_mode,
            ) as esp:
                result = local_dbscan(
                    pid, it, t.points, t, eps, minpts, partitioner,
                    seed_policy=seed_policy, max_neighbors=max_neighbors,
                    neighbor_mode=neighbor_mode, counters=counters,
                    boundary_out=boundary, stats=stats,
                )
                esp.annotate(partials=len(result),
                             rounds=stats.get("rounds", 0))
            yield LocalExpansion(
                partition=pid, partials=result,
                boundary=boundary or set(), counters=counters,
            )

        ship_expansions(state, state.indices.map_partitions_with_index(expand))


def ship_expansions(state: PipelineState, expansions) -> None:
    """The executor job shared by the range and cell plans.

    ``expansions`` is the stage's lazy RDD of one `LocalExpansion` per
    partition.  With ``merge_mode="partials"`` the partial clusters ship
    to the driver through the accumulator as each task finishes
    (Algorithm 2 lines 26-28); with ``"edges"`` only each partition's
    digest does, and the expansions stay cached in the lineage for
    `ApplyGidMap` — which reuses them, or deterministically recomputes
    them on a cache miss under the processes backend.
    """
    acc, counters_acc = state.acc, state.counters_acc
    edges = state.config.merge_mode == "edges"
    if edges:
        expansions = expansions.persist()
        state.extras["expanded_rdd"] = expansions

    def ship(pid: int, it) -> None:
        # Counters ship only from this action, so a cache miss in
        # ApplyGidMap's job cannot double-count.
        for exp in it:
            acc.add([partition_digest(exp)] if edges else exp.partials)
            if counters_acc is not None:
                counters_acc.add([(pid, exp.counters)])

    expansions.foreach_partition_with_index(ship)

    durations = state.sc.last_job_metrics.task_durations()
    state.timings.executor_task_durations = durations
    state.timings.executor_total = sum(durations)
    state.timings.executor_max = max(durations) if durations else 0.0


def drain_accumulator(
    state: PipelineState, sort_key, payload_nbytes, counts_of
) -> list:
    """The collect stages' body: accumulator (and OpCounters) to driver.

    Returns what the executors shipped in ``sort_key`` order — the
    accumulator's own order follows task *completion* under the
    threads/processes backends, and nothing downstream may depend on
    which executor finished first.  ``payload_nbytes`` sizes the list
    for the ``repro_driver_collect_bytes`` gauge; ``counts_of(item)`` is
    its ``(partition, partials, seeds)``, for the per-partition expansion
    spans grafted onto the driver trace (with one partition per core,
    the paper's setup, their max is the executor wall).
    """
    tracer, registry = state.tracer, state.metrics_registry
    num_partitions = state.config.num_partitions
    partials_per, seeds_per = [0] * num_partitions, [0] * num_partitions
    with tracer.span("driver.accumulator_drain", cat="driver") as sp:
        items = sorted(state.acc.value, key=sort_key)
        if tracer.enabled:
            for pid, num_partials, num_seeds in map(counts_of, items):
                partials_per[pid] += num_partials
                seeds_per[pid] += num_seeds
            sp.annotate(num_partials=sum(partials_per))
        if registry is not None:
            nbytes = payload_nbytes(items)
            registry.gauge(
                "repro_driver_collect_bytes",
                "Canonical pickled size of the merge payload collected "
                "by the driver.",
            ).set(nbytes)
            sp.annotate(collect_bytes=nbytes)
    if tracer.enabled:
        for pid, dur in enumerate(state.timings.executor_task_durations):
            tracer.add_span(
                "executor.partition_expand", dur, cat="executor",
                tid=f"executor-{pid}", partition=pid,
                partials=partials_per[pid], seeds=seeds_per[pid],
            )
    install_counters(
        state,
        list(state.counters_acc.value)
        if state.counters_acc is not None else None,
    )
    return items


def install_counters(state: PipelineState, counters: list | None) -> None:
    """``state.counters`` — drained or restored — and, given a registry,
    the `OpCounters` metrics derived from them."""
    state.counters = counters
    if counters is None or state.metrics_registry is None:
        return
    from ..obs.registry import record_op_counters

    for pid, oc in counters:
        record_op_counters(state.metrics_registry, oc, partition=pid)


def counters_doc(state: PipelineState) -> list | None:
    """``state.counters`` as the collect checkpoints store them."""
    if state.counters is None:
        return None
    return [[pid, vars(oc)] for pid, oc in state.counters]


def restore_counters(state: PipelineState, doc: list | None) -> None:
    """Inverse of `counters_doc`."""
    install_counters(
        state,
        None if doc is None else [(pid, OpCounters(**c)) for pid, c in doc],
    )


class CollectPartials(Stage):
    """Drain the accumulator: partial clusters (and OpCounters) to driver.

    The collected list is founder-sorted (by ``members[0]``, globally
    unique): gid numbering downstream follows it.
    """

    name = "CollectPartials"
    requires = ("expanded", "engine")
    provides = ("partials",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        state.partials = drain_accumulator(
            state,
            sort_key=lambda c: c.members[0],
            payload_nbytes=partials_payload_nbytes,
            counts_of=lambda c: (c.partition, 1, len(c.seeds)),
        )

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "n": state.n,
            "partials": [
                {
                    "partition": c.partition,
                    "local_id": c.local_id,
                    "lo": c.lo,
                    "hi": c.hi,
                    "members": c.members,
                    "seeds": c.seeds.tolist(),
                    "borders": sorted(c.borders),
                    "status": c.status,
                }
                for c in state.partials
            ],
            "counters": counters_doc(state),
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.partials = [
            PartialCluster(
                partition=d["partition"], local_id=d["local_id"],
                lo=d["lo"], hi=d["hi"], members=list(d["members"]),
                seeds=d["seeds"], borders=set(d["borders"]),
                status=d["status"],
            )
            for d in doc["partials"]
        ]
        restore_counters(state, doc["counters"])


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
                num_seeds=sum(len(c.seeds) for c in partials),
                num_merges=outcome.num_merges,
                num_global_clusters=outcome.num_global_clusters,
                overlapping_points=outcome.overlapping_points,
                **stats,
            )
        state.outcome = outcome
        if state.metrics_registry is not None:
            from ..obs.registry import record_merge_outcome

            record_merge_outcome(
                state.metrics_registry, outcome.num_merges,
                outcome.num_global_clusters, outcome.overlapping_points,
            )


# ---------------------------------------------------------------------------
# edge-based merge tail (merge_mode="edges", DESIGN.md §11)
# ---------------------------------------------------------------------------

class CollectEdges(Stage):
    """Drain the accumulator: partition digests (and OpCounters) to driver.

    O(edges + partials) bytes cross to the driver — summaries, seed
    half-edges, and boundary exports — never the member point lists,
    which stay cached executor-side for `ApplyGidMap`.
    """

    name = "CollectEdges"
    requires = ("expanded", "engine")
    provides = ("digest",)
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        state.extras["digest"] = drain_accumulator(
            state,
            sort_key=lambda d: d.partition,
            payload_nbytes=digest_payload_nbytes,
            counts_of=lambda d: (
                d.partition, len(d.summaries), sum(map(len, d.seeds))
            ),
        )

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        store.save_json(self.name, {
            "n": state.n,
            "digests": [
                {
                    "partition": d.partition,
                    "summaries": [
                        [s.partition, s.local_id, s.founder, s.n_members,
                         s.n_seeds, s.n_borders]
                        for s in d.summaries
                    ],
                    "seeds": [ss.tolist() for ss in d.seeds],
                    "exports": [[p, l, bool(core)] for p, l, core in d.exports],
                }
                for d in state.extras["digest"]
            ],
            "counters": counters_doc(state),
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        state.extras["digest"] = [
            PartitionDigest(
                partition=d["partition"],
                summaries=[
                    PartialSummary(partition=p, local_id=l, founder=f,
                                   n_members=m, n_seeds=s, n_borders=b)
                    for p, l, f, m, s, b in d["summaries"]
                ],
                seeds=[np.asarray(ss, np.int64) for ss in d["seeds"]],
                exports=[(p, l, bool(core)) for p, l, core in d["exports"]],
            )
            for d in doc["digests"]
        ]
        restore_counters(state, doc["counters"])


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
                num_edges=plan.num_edges,
                num_merges=plan.num_merges,
                num_global_clusters=plan.num_global_clusters,
                overlapping_points=0,
                **stats,
            )
        state.extras["merge_plan"] = plan
        if state.metrics_registry is not None:
            from ..obs.registry import record_merge_outcome

            state.metrics_registry.counter(
                "repro_merge_edges_total",
                "Core seed/export half-edge joins walked by the edge merge.",
            ).inc(plan.num_edges)
            record_merge_outcome(
                state.metrics_registry, plan.num_merges,
                plan.num_global_clusters, 0,
            )

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        # The plan's fields, its two dicts as sorted rows.
        plan = state.extras["merge_plan"]
        store.save_json(self.name, {
            **vars(plan),
            "gid_of": [[p, l, g] for (p, l), g in sorted(plan.gid_of.items())],
            "claims": [[s, g] for s, g in sorted(plan.claims.items())],
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        doc["gid_of"] = {(p, l): g for p, l, g in doc["gid_of"]}
        doc["claims"] = {s: g for s, g in doc["claims"]}
        state.extras["merge_plan"] = EdgeMergePlan(**doc)


class ApplyGidMap(OutcomeStage):
    """Second distributed pass: label members executor-side via the
    broadcast ``local_cid → gid`` map (`member_labels`); the driver
    writes each partition's member ids, 8 B a point on the wire, over
    the O(boundary) claims.

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
                gid_b = sc.broadcast(dict(plan.gid_of))
                label_acc = sc.accumulator(LIST_CONCAT)

                def apply_partition(pid: int, it) -> None:
                    gid_of = gid_b.value
                    label_acc.add(
                        [member_labels(exp.partials, gid_of) for exp in it]
                    )

                expanded.foreach_partition_with_index(apply_partition)
                labels = apply_gid_map((), plan, state.n)  # the claims
                for ids, gids, sizes in label_acc.value:
                    labels[ids] = np.repeat(gids, sizes)
                state.timings.driver_merge += time.perf_counter() - t0
                sp.annotate(
                    num_labelled_partials=len(plan.gid_of),
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
    def _remap_partials(partials: list[PartialCluster], perm: np.ndarray) -> None:
        for c in partials:
            c.members = perm[c.members].tolist()
            c.seeds = perm[c.seeds]
            c.borders = set(perm[list(c.borders)].tolist())

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
    """Classic DBSCAN as a single executor-less expansion over all points."""

    name = "SequentialExpand"
    requires = ("points", "tree")
    provides = ("labels",)

    def run(self, state: PipelineState) -> None:
        # Imported lazily: repro.dbscan.sequential is itself a thin shim
        # over this pipeline, so a module-level import would be circular.
        from ..dbscan.sequential import _dbscan_array, _dbscan_hashtable

        cfg = state.config
        points, tree = state.points, state.tree
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
