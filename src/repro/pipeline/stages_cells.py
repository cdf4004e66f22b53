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
- The plan's collect step is the range plans' `CollectPartials`, whose
  founder sort (`ClusterTable.concat`) matters most here: cell
  ownership is not contiguous, so partition order is not the range
  plan's, but every partial's founder is the smallest core point it
  covers — sorting restores the global numbering and the union-find
  merge yields labels byte-identical to `SparkDBSCAN` (DESIGN.md §10).

The unchanged `MergePartials` + `RelabelFilter` tail completes the
plan; halo SEEDs feed the same core-seed-containment union-find.

This module is executor-path code under the SHF001 shuffle-free
contract: registering ``"cell"`` in ``SHUFFLE_FREE_PLANS`` makes these
stage classes lineage-proof entry points automatically.
"""

from __future__ import annotations

import time
from functools import partial

from ..dbscan.cells import CellAssignment, build_cell_assignment, cell_local_dbscan
from ..engine import LIST_CONCAT
from ..obs.collect import task_span
from .checkpoint import CheckpointStore, pack_ragged, unpack_ragged
from .stages import ExpandOptions, Stage, ship_expansions
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
        store.save_npz(self.name, **pack_ragged("owned", a.owned),
                       **pack_ragged("halo", a.halo),
                       **pack_ragged("halo_home", a.halo_home))
        store.save_json(self.name, {
            "n": a.n,
            "num_partitions": a.num_partitions,
            "num_cells": a.num_cells,
            "super_side": a.super_side,
            "num_super_cells": a.num_super_cells,
        })

    def load(self, state: PipelineState, store: CheckpointStore) -> None:
        doc = store.load_json(self.name)
        arrays = store.load_npz(self.name)
        assignment = CellAssignment(
            n=doc["n"],
            num_partitions=doc["num_partitions"],
            num_cells=doc["num_cells"],
            owned=unpack_ragged(arrays, "owned"),
            halo=unpack_ragged(arrays, "halo"),
            halo_home=unpack_ragged(arrays, "halo_home"),
            super_side=doc["super_side"],
            num_super_cells=doc["num_super_cells"],
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
            state.acc = sc.accumulator(LIST_CONCAT)
            state.timings.setup += time.perf_counter() - t0
            sp.annotate(halo_points=assignment.halo_points_total,
                        halo_nbytes=halo_bytes, payload_nbytes=payload_bytes)

        ship_expansions(state, state.indices.map_partitions_with_index(
            partial(_expand_cells, cfg.leaf_size, ExpandOptions.of(cfg))
        ))


def _expand_cells(leaf_size: int, opts: ExpandOptions, pid: int, it):
    """`LocalIndexExpand`'s task (bound like `stages._expand_range`):
    one partition's `ClusterTable`, from a kd-tree over its payload."""
    # `payloads` returns one per partition and parallelize slices them
    # one a partition, so a table's row is its local id.
    payloads = list(it)
    if len(payloads) != 1:
        raise ValueError(f"partition {pid} received {len(payloads)} "
                         "cell payloads, expected exactly one")
    (payload,) = payloads
    stats: dict[str, int] = {}
    with task_span("task.expand", partition=pid,
                   mode=opts.neighbor_mode) as esp:
        table = cell_local_dbscan(payload, opts.eps, opts.minpts,
                                  leaf_size=leaf_size,
                                  **opts.kernel_kwargs(stats))
        esp.annotate(partials=len(table),
                     n_own=len(payload.owned_ids),
                     n_halo=len(payload.halo_ids),
                     rounds=stats.get("rounds", 0))
    yield table


__all__ = ["CellPartition", "LocalIndexExpand"]
