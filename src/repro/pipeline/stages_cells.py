"""Stages for the cell-partitioned plan — no whole-tree broadcast.

The ``spark``/``spatial`` plans broadcast one kd-tree over the entire
dataset to every executor (`BroadcastModel`), which caps the scalable
dataset size at driver memory.  The ``cell`` plan replaces that model
with the MR-DBSCAN / dDBGSCAN shape (`repro.dbscan.cells`):

- `CellPartition` bins points into eps-aligned grid cells, packs whole
  super-cells into balanced partitions (greedy LPT over summed counts,
  side chosen by `repro.dbscan.cells.pack_cells`), and
  computes each partition's **eps-halo**: the foreign points within eps
  of one of its cells' bounding boxes.
- `LocalIndexExpand` ships each partition its `CellPayload` (owned +
  halo points) *through the RDD*, builds a kd-tree over only that
  payload on the executor, and runs `cell_local_dbscan` — the SEED
  expansion with halo points standing in for the foreign-index checks
  of the range plan.  No ``sc.broadcast`` call exists anywhere in this
  module; ``tests/pipeline/test_cell_plan.py`` pins that with the
  broadcast-nbytes telemetry.
- `CellCollect` drains the accumulator exactly like `CollectPartials`,
  whose founder sort (``members[0]``) matters most here: cell ownership
  is not contiguous, so the accumulator's partition order differs from
  the range plan's, but every partial's founder is the smallest core
  point it covers — sorting restores the global numbering order and the
  downstream union-find merge yields labels byte-identical to
  `SparkDBSCAN` (DESIGN.md §10).

The unchanged `MergePartials` + `RelabelFilter` tail completes the
plan; halo SEEDs feed the same core-seed-containment union-find.

This module is executor-path code under the SHF001 shuffle-free
contract: registering ``"cell"`` in ``SHUFFLE_FREE_PLANS`` makes these
stage classes lineage-proof entry points automatically.
"""

from __future__ import annotations

import time

import numpy as np

from ..dbscan.cells import CellAssignment, build_cell_assignment, cell_local_dbscan
from ..dbscan.partial import LocalExpansion, OpCounters
from ..obs.collect import task_span
from .checkpoint import CheckpointStore
from .stages import CollectPartials, Stage, open_accumulators, ship_expansions
from .state import PipelineState


class CellPartition(Stage):
    """Grid-partition the points and plan each partition's eps-halo.

    Driver-side and index-free: the plan is pure integer bookkeeping
    (who owns which point, who additionally sees which), so it
    checkpoints as a handful of id arrays — no kd-tree artifact.
    """

    name = "CellPartition"
    requires = ("points", "n")
    provides = ("cell_assignment", "partitioner")
    checkpointable = True

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        with state.tracer.span("driver.cell_partition", cat="driver") as sp:
            t0 = time.perf_counter()
            # lint: allow[SCL001] ROADMAP item 3: central driver binning
            assignment = build_cell_assignment(
                state.points, cfg.eps, cfg.num_partitions
            )
            state.timings.setup += time.perf_counter() - t0
            sp.annotate(
                num_cells=assignment.num_cells,
                super_side=assignment.super_side,
                num_super_cells=assignment.num_super_cells,
                halo_points=assignment.halo_points_total,
            )
        self._install(state, assignment)

    @staticmethod
    def _install(state: PipelineState, assignment) -> None:
        state.extras["cell_assignment"] = assignment
        state.partitioner = assignment.to_partitioner()

    def save(self, state: PipelineState, store: CheckpointStore) -> None:
        a = state.extras["cell_assignment"]
        arrays = {}
        for key, parts in (("owned", a.owned), ("halo", a.halo),
                           ("halo_home", a.halo_home)):
            arrays[key] = (
                np.concatenate(parts) if parts
                else np.empty(0, dtype=np.int64)
            )
            arrays[f"{key}_sizes"] = np.array(
                [len(x) for x in parts], dtype=np.int64
            )
        store.save_npz(self.name, **arrays)
        store.save_json(self.name, {
            "n": a.n,
            "num_partitions": a.num_partitions,
            "num_cells": a.num_cells,
            "super_side": a.super_side,
            "num_super_cells": a.num_super_cells,
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        # Checkpoints written before super-cell packing lack the side:
        # their plan packed single eps-cells.
        doc = store.load_json(self.name)
        arrays = store.load_npz(self.name)

        def split(key):
            flat = arrays[key].astype(np.int64)
            bounds = np.cumsum(arrays[f"{key}_sizes"].astype(np.int64))[:-1]
            return [np.ascontiguousarray(x) for x in np.split(flat, bounds)]

        assignment = CellAssignment(
            n=doc["n"],
            num_partitions=doc["num_partitions"],
            num_cells=doc["num_cells"],
            owned=split("owned"),
            halo=split("halo"),
            halo_home=split("halo_home"),
            super_side=doc.get("super_side", 1),
            num_super_cells=doc.get("num_super_cells", doc["num_cells"]),
        )
        self._install(state, assignment)


class LocalIndexExpand(Stage):
    """Per-partition kd-trees over (owned + halo) points — executors
    build their own index from the RDD payload; the driver never holds
    (let alone broadcasts) a global one.
    """

    name = "LocalIndexExpand"
    requires = ("cell_assignment", "points")
    provides = ("engine", "expanded")

    def run(self, state: PipelineState) -> None:
        cfg = state.config
        assignment = state.extras["cell_assignment"]
        sc = state.ensure_context()
        with state.tracer.span("driver.setup", cat="driver") as sp:
            t0 = time.perf_counter()
            payloads = assignment.payloads(state.points)
            halo_bytes = sum(p.halo_ids.nbytes + p.halo_points.nbytes
                             for p in payloads)
            payload_bytes = sum(p.nbytes for p in payloads)
            state.indices = sc.parallelize(payloads, cfg.num_partitions)
            open_accumulators(state, sc)
            state.timings.setup += time.perf_counter() - t0
            sp.annotate(halo_points=assignment.halo_points_total,
                        halo_nbytes=halo_bytes, payload_nbytes=payload_bytes)
        state.extras["halo_points"] = assignment.halo_points_total
        state.extras["halo_bytes"] = halo_bytes
        state.extras["payload_bytes"] = payload_bytes
        if state.metrics_registry is not None:
            state.metrics_registry.gauge(
                "repro_cell_halo_points",
                "Replicated eps-halo point slots across all partitions.",
            ).set(assignment.halo_points_total)
            state.metrics_registry.gauge(
                "repro_cell_halo_bytes",
                "Serialized bytes of replicated halo ids + coordinates.",
            ).set(halo_bytes)
            state.metrics_registry.gauge(
                "repro_cell_payload_bytes",
                "Serialized bytes of all cell payloads (owned + halo).",
            ).set(payload_bytes)

        eps, minpts = cfg.eps, cfg.minpts
        leaf_size, seed_policy = cfg.leaf_size, cfg.seed_policy
        max_neighbors, neighbor_mode = cfg.max_neighbors, cfg.neighbor_mode
        collect_counters = state.counters_acc is not None
        track_boundary = cfg.merge_mode == "edges"

        def expand(pid: int, it):
            counters = OpCounters() if collect_counters else None
            boundary: set[int] | None = set() if track_boundary else None
            result = []
            with task_span("task.expand", partition=pid,
                           mode=neighbor_mode) as esp:
                n_own = n_halo = rounds = 0
                for payload in it:
                    n_own += len(payload.owned_ids)
                    n_halo += len(payload.halo_ids)
                    stats: dict[str, int] = {}
                    result.extend(cell_local_dbscan(
                        payload, eps, minpts, leaf_size=leaf_size,
                        seed_policy=seed_policy, max_neighbors=max_neighbors,
                        neighbor_mode=neighbor_mode, counters=counters,
                        boundary_out=boundary, stats=stats,
                    ))
                    rounds = max(rounds, stats.get("rounds", 0))
                if track_boundary:
                    # A partition may aggregate several payloads whose
                    # partials restart local_id at 0; renumber so the
                    # (partition, local_id) cid is unique in the digest.
                    for k, c in enumerate(result):
                        c.local_id = k
                esp.annotate(partials=len(result), n_own=n_own,
                             n_halo=n_halo, rounds=rounds)
            yield LocalExpansion(
                partition=pid, partials=result,
                boundary=boundary or set(), counters=counters,
            )

        ship_expansions(state, state.indices.map_partitions_with_index(expand))


class CellCollect(CollectPartials):
    """`CollectPartials`, which founder-sorts (see the module docstring).

    Cell ownership is not contiguous, so partials arrive grouped by
    partition in an order unrelated to their point ids; the founder sort
    (now the base class's canonical order, since accumulator arrival is
    completion-ordered on the parallel backends too) makes the list —
    and therefore global cluster numbering and every downstream artifact
    — deterministic and identical to the range plan's.  Kept as its own
    class so the cell plan's manifest names its collect step.
    """

    name = "CollectPartials"
    requires = ("expanded", "engine")
    provides = ("partials",)
    checkpointable = True


__all__ = ["CellCollect", "CellPartition", "LocalIndexExpand"]
