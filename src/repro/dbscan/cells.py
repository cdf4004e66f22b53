"""Cell partitioning with eps-halos — local indexes, no global broadcast.

The paper (Section VI) defers spatial partitioning: its executors all
receive *one broadcast kd-tree over the whole dataset*, which caps the
scalable dataset size at driver memory.  MR-DBSCAN [He et al. 2014] and
the dDBGSCAN family show the production shape, built here:

1. **CellGrid** — bin points into a uniform grid with cell edge = eps
   (a point's eps-ball is covered by its own cell plus the 3^d - 1
   Chebyshev-adjacent cells), grouped by cell as one CSR pair.  The
   grouping is one stable `np.lexsort` over the integer cell
   coordinates plus a mask of the sorted rows that differ from their
   predecessor: it yields the cells in lexicographic order, each
   point's cell, and the points of a cell in ascending global index.
   (`np.unique(axis=0)` sorts opaque row bytes by comparison and cost
   ~6x more on the skewed benchmark.)
2. **Balanced super-cell partitions** — eps-cells grouped into
   super-cells of side k·eps (``cells // k``), whole super-cells packed
   into ``num_partitions`` groups by point count (greedy LPT), so skewed
   data cannot starve or overload executors the way index ranges do,
   and the eps-halo grows with super-cell *surface*, not cell count.
   k is the coarsest of `SUPER_SIDES` whose packing keeps the largest
   owned load within `SUPER_TOLERANCE` of the mean — dDBGSCAN's
   partition side of 16·eps first — else 1 (single eps-cells).  On the
   skewed d=2 benchmark k = 16 cuts the halo from 2.04 to 0.13
   replicated slots per point.
3. **eps-halo replication** — each partition also receives the points
   of *foreign* adjacent cells within eps of one of its own cells'
   bounding boxes, so owned points see their whole eps-neighbourhood
   locally and each executor builds a kd-tree over (owned + halo)
   points only: no executor ever holds a global index.
4. **`cell_local_dbscan`** — the SEED expansion (Algorithm 2 lines
   4-29) over a partition payload: halo points are recorded as SEEDs
   like foreign points in the index-range plan, and the unchanged
   union-find merge (Algorithm 4) stitches partials over those edges.

Determinism contract (tests/pipeline/test_cell_plan.py): partitions
scan their owned points in ascending global index, and the collect
stage sorts partial clusters by founder index, so the merged labels are
byte-identical to `SparkDBSCAN` whenever border assignment is
unambiguous (see DESIGN.md §10 for the tie-break rule when it is not).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..kdtree import KDTree
from ..kdtree.kdtree import id_dtype
from ..obs.collect import task_span
from .partial import ClusterTable, Frame, expand_frame

#: Relative slack on the eps comparison used by the halo filter only.
#: ``floor(x / eps)`` and ``cell * eps`` round differently, so a point at
#: *exactly* distance eps from an owned point could otherwise be dropped
#: from the halo by half an ulp.  Over-approximating the halo is always
#: safe: the kd-tree recomputes exact distances inside the partition.
HALO_SLACK = 1e-9

#: (cell, foreign point) rows the halo test holds at once.  A constant,
#: not a knob: it caps the planner's float temporaries (expanding every
#: cross-partition pair at once measured +24 % driver peak RSS).
HALO_BLOCK_ROWS = 8192

#: Super-cell sides (in eps-cells) `pack_cells` tries, coarsest first;
#: 16 is dDBGSCAN's partition side of 16·eps.  A rule, not a knob.
SUPER_SIDES = (16, 8, 4, 2)

#: Largest owned load / mean owned load a super-cell packing may reach;
#: past it at every side the planner packs single eps-cells (k = 1).
SUPER_TOLERANCE = 1.05

#: ``|floor(x / eps)|`` stays below this, so cells, their +-1 neighbours
#: and differences of two cells are all exact in int64.
CELL_LIMIT = 2 ** 62


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of an integer matrix's rows, the first
    column most significant (`np.lexsort` takes its primary key last;
    it refuses zero keys, and zero-width rows all tie)."""
    if not rows.shape[1]:
        return np.arange(len(rows))
    return np.lexsort(rows.T[::-1])


def _run_heads(ranked: np.ndarray) -> np.ndarray:
    """Mask of the rows of lexicographically sorted ``ranked`` that
    differ from their predecessor: the first row of each group."""
    heads = np.empty(len(ranked), dtype=bool)
    heads[:1] = True
    heads[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return heads


class CellGrid:
    """Batch uniform grid over a fixed point set, cell edge = ``eps``.

    The repo's one eps-grid structure, immutable once built: one
    pass of vectorised binning, then it exposes the occupied ``cells``
    (lexicographically sorted), their points as one CSR pair — cell
    ``i`` holds ``order[starts[i]:starts[i + 1]]``, ascending global
    index — and Chebyshev adjacency between them.
    """

    def __init__(self, points: np.ndarray, eps: float):
        if not eps > 0:  # NaN too
            raise ValueError(f"eps must be positive, got {eps}")
        points = np.ascontiguousarray(points, dtype=np.float64)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        self.points = points  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        self.n, self.d = points.shape
        with np.errstate(over="ignore"):
            scaled = np.floor(points / eps)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        # NaN compares false, so non-finite coordinates fail here too.
        if not (np.abs(scaled) < CELL_LIMIT).all():
            raise ValueError(
                f"floor(points / eps) must be finite and below 2**62 (eps={eps})"
            )
        coords = scaled.astype(np.int64)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        # Points grouped by cell with one stable sort: occupied cells in
        # lexicographic order, ascending global index within each cell
        # (the determinism contract needs it).
        self.order = order = _lex_order(coords)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        heads = _run_heads(coords[order])
        self.cells = coords[order[heads]]
        self.num_cells = len(self.cells)
        self.starts = np.append(np.flatnonzero(heads), self.n)
        self.counts = np.diff(self.starts)
        self.cell_of_point = np.empty(self.n, dtype=np.int64)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        self.cell_of_point[order] = np.cumsum(heads) - 1

    def join_keys(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(keys, radix)``: an ascending mixed-radix int64 key per
        occupied cell, every axis padded by one cell either side so that
        ``key + offset @ radix`` is the key of the cell at ``offset`` in
        {-1, 0, 1}^d — or ``None`` when the key space, sized in Python
        ints, does not fit int64."""
        lo = self.cells.min(axis=0).tolist()
        hi = self.cells.max(axis=0).tolist()
        radix = [1] * (self.d + 1)
        for k in range(self.d, 0, -1):
            radix[k - 1] = radix[k] * (hi[k - 1] - lo[k - 1] + 3)
        if radix[0] >= 2 ** 63:
            return None
        radix = np.array(radix[1:], dtype=np.int64)
        return (self.cells - np.array(lo, dtype=np.int64) + 1) @ radix, radix

    def adjacent_pairs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Ordered pairs ``(i, j)``, ``i != j``, of Chebyshev-adjacent
        occupied cells (coordinates differing by at most 1 everywhere),
        as chunks ``(I, J)`` of cell-row arrays, each pair in one chunk.

        Two strategies: a sorted-key join (one `np.searchsorted` and one
        chunk per offset) when the 3^d offset box is smaller than the
        occupied-cell count; else (3^d explodes at d=10 while real
        datasets occupy far fewer cells), or when the keys would
        overflow, a pairwise scan of occupied cells in vectorised
        blocks, one chunk per block.
        """
        m = self.num_cells
        joined = self.join_keys() if 3 ** self.d <= m else None
        if joined is None:
            # Block size keeps the (block, m, d) difference tensor small.
            block = max(1, (1 << 22) // max(1, m * self.d))
            for s in range(0, m, block):
                rows = self.cells[s:s + block]
                cheb = np.abs(rows[:, None] - self.cells[None]).max(axis=2)
                i, j = np.nonzero(cheb <= 1)
                i += s
                yield i[i != j], j[i != j]
            return
        keys, radix = joined
        for offset in itertools.product((-1, 0, 1), repeat=self.d):
            if any(offset):
                want = keys + int(np.dot(offset, radix))
                pos = np.minimum(np.searchsorted(keys, want), m - 1)
                i = np.flatnonzero(keys[pos] == want)
                yield i, pos[i]


@dataclass
class CellPayload:
    """Everything one executor needs — shipped as an RDD element, never
    broadcast.  Arrays are global point ids (ascending) and their
    coordinates; ``halo_home`` is each halo point's owning partition."""

    partition: int
    owned_ids: np.ndarray
    halo_ids: np.ndarray
    halo_home: np.ndarray
    owned_points: np.ndarray
    halo_points: np.ndarray

    @property
    def nbytes(self) -> int:
        """Serialized-array payload size (ids + coordinates)."""
        return int(
            self.owned_ids.nbytes + self.halo_ids.nbytes
            + self.halo_home.nbytes + self.owned_points.nbytes
            + self.halo_points.nbytes
        )


@dataclass
class CellAssignment:
    """The driver-side partition plan: who owns what, who sees what.

    ``owned[p]``/``halo[p]`` are ascending global point ids;
    ``halo_home[p]`` gives, per halo point, the partition that owns it
    (the cell plan's analogue of `IndexRangePartitioner.partition`).
    ``super_side`` is the side k, in eps-cells, of the super-cells
    `pack_cells` packed (1: single eps-cells), ``num_super_cells`` how
    many there were.
    """

    n: int
    num_partitions: int
    num_cells: int
    owned: list[np.ndarray]
    halo: list[np.ndarray]
    halo_home: list[np.ndarray]
    super_side: int
    num_super_cells: int

    @property
    def halo_points_total(self) -> int:
        """Replicated (halo) point slots across all partitions."""
        return int(sum(len(h) for h in self.halo))

    def to_partitioner(self):
        """An `engine.partitioner.LookupPartitioner` over this ownership
        table — the cell plan's counterpart of `IndexRangePartitioner`
        (ownership is not contiguous, so range checks do not apply)."""
        from ..engine.partitioner import LookupPartitioner

        pid = np.empty(self.n, dtype=np.int64)
        for p, idx in enumerate(self.owned):
            pid[idx] = p
        return LookupPartitioner(pid, self.num_partitions)

    def payloads(self, points: np.ndarray) -> list[CellPayload]:
        """Materialise one `CellPayload` per partition, its ids in the id
        dtype of the ``n`` points (`id_dtype`)."""
        points = np.ascontiguousarray(points, dtype=np.float64)
        dtype = id_dtype(self.n)
        return [
            CellPayload(
                partition=p,
                owned_ids=self.owned[p].astype(dtype),
                halo_ids=self.halo[p].astype(dtype),
                halo_home=self.halo_home[p],
                owned_points=points[self.owned[p]],
                halo_points=points[self.halo[p]],
            )
            for p in range(self.num_partitions)
        ]


def balance_cells(counts: np.ndarray, num_partitions: int) -> np.ndarray:
    """Assign each cell to a partition, balancing total point counts.

    Greedy LPT: place cells in decreasing size order onto the currently
    least-loaded partition (ties broken by lowest partition id, cells
    tied in size by cell row — all deterministic).
    """
    m = len(counts)
    cell_pid = np.zeros(m, dtype=np.int64)
    if m == 0 or num_partitions <= 1:
        return cell_pid
    order = np.lexsort((np.arange(m), -np.asarray(counts)))
    heap = [(0, p) for p in range(num_partitions)]
    heapq.heapify(heap)
    for i in order:
        load, p = heapq.heappop(heap)
        cell_pid[i] = p
        heapq.heappush(heap, (load + int(counts[i]), p))
    return cell_pid


def pack_cells(
    cells: np.ndarray, counts: np.ndarray, num_partitions: int
) -> tuple[np.ndarray, int, int]:
    """``(cell_pid, k, num_super_cells)``: each occupied eps-cell's
    partition, taken whole from its super-cell ``cells // k``.

    Super-cells are LPT-packed (`balance_cells`) by summed point count
    for k in `SUPER_SIDES`, coarsest first; the first packing whose
    largest load is within `SUPER_TOLERANCE` of the mean wins.  If none
    is, k = 1: `balance_cells` over the eps-cells themselves.
    """
    if num_partitions > 1 and len(counts):
        bound = SUPER_TOLERANCE * int(counts.sum()) / num_partitions
        for k in SUPER_SIDES:
            supers = cells // k
            order = _lex_order(supers)
            heads = _run_heads(supers[order])
            group = np.empty(len(cells), dtype=np.int64)
            group[order] = np.cumsum(heads) - 1
            sums = np.bincount(group, weights=counts).astype(np.int64)
            pid = balance_cells(sums, num_partitions)
            if np.bincount(pid, weights=sums).max() <= bound:
                return pid[group], k, len(sums)
    return balance_cells(counts, num_partitions), 1, len(counts)


def build_cell_assignment(
    points: np.ndarray, eps: float, num_partitions: int
) -> CellAssignment:
    """Grid-partition ``points`` and compute each partition's eps-halo.

    Ownership goes by whole super-cells (`pack_cells`); the halo test
    stays per eps-cell.  A point q in a *foreign* adjacent cell belongs
    to partition P's halo iff q lies within eps of the bounding box of
    one of P's cells —
    points farther than eps from every owned box cannot be within eps of
    any owned point, so they are never needed.  The comparison carries
    `HALO_SLACK` so halos only ever over-approximate.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    grid = CellGrid(points, eps)  # lint: allow[SCL001] ROADMAP item 3: central driver binning
    cell_pid, side, num_super = pack_cells(
        grid.cells, grid.counts, num_partitions)
    point_pid = cell_pid[grid.cell_of_point]  # lint: allow[SCL001] ROADMAP item 3: central driver binning

    # Halo membership as (partition * n + point) keys, found by testing
    # (cell i, point of adjacent foreign cell j) rows a block at a time.
    eps2 = (eps * eps) * (1.0 + HALO_SLACK)
    found = [np.empty(0, dtype=np.int64)]
    for ci, cj in grid.adjacent_pairs():
        cross = cell_pid[ci] != cell_pid[cj]
        ci, cj = ci[cross], cj[cross]
        cnt = grid.counts[cj]
        ends = np.cumsum(cnt)
        for s in range(0, int(cnt.sum()), HALO_BLOCK_ROWS):
            rows = np.arange(s, min(s + HALO_BLOCK_ROWS, ends[-1]))
            k = np.searchsorted(ends, rows, side="right")  # pair of each row
            idx = grid.order[grid.starts[cj[k]] + rows - (ends[k] - cnt[k])]
            i = ci[k]
            q = grid.points[idx]
            lo = grid.cells[i] * eps
            excess = np.maximum(np.maximum(lo - q, q - (lo + eps)), 0.0)
            near = (excess * excess).sum(axis=1) <= eps2
            found.append(cell_pid[i[near]] * grid.n + idx[near])
    halo_pid, halo_idx = np.divmod(np.unique(np.concatenate(found)), grid.n)
    cuts = np.searchsorted(halo_pid, np.arange(num_partitions + 1))
    owned = [  # lint: allow[SCL001] ROADMAP item 3: central driver binning
        np.flatnonzero(point_pid == p).astype(np.int64)
        for p in range(num_partitions)
    ]
    halo = [halo_idx[cuts[p]:cuts[p + 1]] for p in range(num_partitions)]
    return CellAssignment(
        n=grid.n, num_partitions=num_partitions, num_cells=grid.num_cells,
        owned=owned, halo=halo, halo_home=[point_pid[h] for h in halo],
        super_side=side, num_super_cells=num_super,
    )


def cell_local_dbscan(
    payload: CellPayload,
    eps: float,
    minpts: int,
    *,
    leaf_size: int = 64,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
    neighbor_mode: str = "batched",
    boundary_out: set[int] | None = None,
    stats: dict[str, int] | None = None,
    orphans_out: list[np.ndarray] | None = None,
) -> ClusterTable:
    """SEED expansion over one cell partition's (owned + halo) points.

    Builds a kd-tree over the local payload only (`cell_frame`), expands
    owned points (in ascending global index, like `local_dbscan` over a
    range), and records reached halo points as SEEDs for the driver
    merge.  The halo
    makes every owned point's eps-neighbourhood complete locally, so
    core status and memberships match the global-tree computation
    exactly.  ``lo``/``hi`` in the returned `ClusterTable` are 0: cell
    partitions are not contiguous ranges (`PartialCluster.owns` is a
    range check and does not apply).

    ``boundary_out``, when given, collects *global* ids of queried owned
    points with ≥1 halo neighbour within eps — the members
    `ClusterTable.project` keeps for the edge-based merge (DESIGN.md
    §11).  The eps-halo over-approximates slightly (HALO_SLACK), which
    only widens this set; the seed/owner join never probes the extras.
    ``orphans_out`` is `local_dbscan`'s: the halo makes an orphan's row
    complete too.
    """
    return expand_frame(
        cell_frame(payload, leaf_size), eps, minpts, seed_policy=seed_policy,
        max_neighbors=max_neighbors, neighbor_mode=neighbor_mode,
        boundary_out=boundary_out, stats=stats, orphans_out=orphans_out,
    )


def cell_frame(payload: CellPayload, leaf_size: int = 64) -> Frame:
    """The cell plan's frame: ``owned_ids`` then ``halo_ids``, indexed by
    a kd-tree built over exactly those points."""
    n_own = int(len(payload.owned_ids))
    if len(payload.halo_ids):
        local_points = np.vstack([payload.owned_points, payload.halo_points])
    else:
        local_points = payload.owned_points
    with task_span("task.kdtree_build", n_own=n_own,
                   n_halo=int(len(payload.halo_ids))):
        tree = KDTree(local_points, leaf_size=leaf_size)
    global_ids = np.concatenate([payload.owned_ids, payload.halo_ids])
    halo_home = payload.halo_home
    return Frame(
        partition=payload.partition, lo=0, hi=0, tree=tree,
        own_points=local_points[:n_own], to_local=None,
        to_global=global_ids.__getitem__,
        home_of=lambda ids: halo_home[ids - n_own],
        above=lambda ids: halo_home[ids - n_own] > payload.partition,
    )


__all__ = [
    "CellAssignment",
    "CellGrid",
    "CellPayload",
    "balance_cells",
    "build_cell_assignment",
    "cell_frame",
    "cell_local_dbscan",
    "pack_cells",
]
