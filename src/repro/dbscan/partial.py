"""Executor-side local clustering with SEED placement (Algorithms 2–3).

Each executor owns a contiguous index range of points.  It runs DBSCAN
expansion *only from its own points*; the full dataset's kd-tree (a
broadcast variable) lets it see foreign neighbours, but instead of
expanding them it records them as **SEEDs** — markers that let the
driver discover which partial clusters belong to the same global
cluster.  No executor⇄executor communication ever happens: that is the
paper's central design point.  (The expansion is label propagation,
not the paper's BFS; same partial clusters, no queue — DESIGN.md §6.)

Seed policies (DESIGN.md §4):

- ``"all"`` (default): every foreign point reached is recorded as a
  seed.  Guarantees exact equivalence with sequential DBSCAN (every
  cross-partition density edge is witnessed, and every cross-partition
  border point is retained).
- ``"one_per_partition"``: the literal reading of Algorithm 3 — at most
  one seed per foreign partition per partial cluster, the lowest id.
  Cheaper, but can drop cross-partition border points (Ablation A
  quantifies this).

Under ``"all"`` with untruncated rows every cross-partition core pair is
seen from both sides, so the pipeline asks for ``orphans_out``: a task
then ships only the seeds whose home partition is above its own, plus
its *orphan rows* — for each point no local cluster holds, its
neighbours homed above — from which the driver finds the claimants the
dropped seeds would have named (DESIGN.md §11, "Witness each pair
once").
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from typing import Callable, Iterable, Iterator

import numpy as np

from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree
from ..kdtree.kdtree import id_dtype
from ..obs.collect import task_span

SEED_POLICIES = ("all", "one_per_partition")

#: Accepted ``neighbor_mode`` values.  Both run the same code here: the
#: kernel has one row source, `KDTree.query_radius_segments` (DESIGN.md §6).
#: Only the sequential plan still queries per point under ``"per_point"``;
#: the field stays because the frozen benchmark passes and reads it.
NEIGHBOR_MODES = ("per_point", "batched")

#: An empty orphan table (``(orphan, neighbour homed above)`` rows),
#: shared and therefore read-only; int32, the narrowest id dtype, so
#: stacking it with a table's rows never widens them.
NO_ORPHANS = np.empty((0, 2), dtype=np.int32)
NO_ORPHANS.flags.writeable = False

#: An empty ``ops`` column (rows of task id, then the `OpCounters`
#: fields in declaration order), shared and therefore read-only.
NO_OPS = np.empty((0, 8), dtype=np.int64)
NO_OPS.flags.writeable = False


@dataclass
class OpCounters:
    """Operation counts of one executor's run — the quantities the paper's
    Section III-B data-structure analysis reasons about.

    The paper: "The number of add operations should be the same as the
    number of remove operations according to the condition in Line 9
    (while loop will not terminate until it is empty)."  That invariant
    (``queue_adds == queue_removes`` at completion) is checked in tests.
    The kernel has no queue: it computes what the paper's BFS would have
    counted in closed form from its arrays (DESIGN.md §6, "Counting").
    """

    range_queries: int = 0       # kd-tree eps-neighbourhood lookups
    queue_adds: int = 0          # Queue.add (Lines 7 and 17)
    queue_removes: int = 0       # Queue.remove (Line 10)
    hashtable_puts: int = 0      # visited/assignment writes (Line 11)
    hashtable_lookups: int = 0   # containsKey (Lines 5, 7, 17)
    seeds_placed: int = 0
    seeds_skipped: int = 0       # (cluster, seed) pairs the one-per-partition cap drops


@dataclass
class PartialCluster:
    """One partial cluster: a view of a `ClusterTable` row, or built by
    hand (tests, Algorithm 4 literal).  Nothing on the run path builds
    one; the public merge functions take a list of them (`as_table`).

    ``members`` are regular elements (indices inside the partition's
    range); ``seeds`` are foreign indices as an int64 array (any int
    sequence passed in is converted).  ``status`` mirrors the paper's
    unfinished/finished merge bookkeeping (Figure 4).

    ``borders`` is the subset of ``members`` that are *not* core points.
    The driver's merge needs it: density-connectivity only passes
    through core points, so a SEED that is merely a border member of
    another partial cluster must NOT merge the two (a border point
    shared by two clusters is legal in DBSCAN and does not join them).
    The paper's Algorithm 4 overlooks this distinction — see DESIGN.md
    §4.

    ``down_seeds`` counts the seeds the task reached in lower partitions
    but did not ship (``orphans_out``: their owners witness the same
    pairs); ``size`` includes them, so ``min_cluster_size`` filters on
    what the cluster reached, whatever was shipped.
    """

    partition: int
    local_id: int
    lo: int                      # partition index range [lo, hi)
    hi: int
    members: list[int] = field(default_factory=list)
    seeds: np.ndarray = ()
    borders: set[int] = field(default_factory=set)
    status: str = "unfinished"
    down_seeds: int = 0

    def __post_init__(self) -> None:
        self.seeds = np.asarray(self.seeds, dtype=np.int64)

    def is_core_member(self, index: int) -> bool:
        """True iff ``index`` is a member and a core point."""
        return index not in self.borders

    @property
    def cid(self) -> tuple[int, int]:
        """Globally-unique cluster id: (partition, local id)."""
        return (self.partition, self.local_id)

    @property
    def size(self) -> int:
        """Total number of elements, unshipped seeds included."""
        return len(self.members) + len(self.seeds) + self.down_seeds

    def owns(self, index: int) -> bool:
        """True iff ``index`` falls inside this partition's range.

        A range check only — it does NOT test membership; an owned index
        may belong to a sibling partial cluster or be noise.  Use
        ``index in cluster.members`` for membership.
        """
        return self.lo <= index < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartialCluster(p{self.partition}#{self.local_id}, "
            f"range=[{self.lo},{self.hi}), members={len(self.members)}, "
            f"seeds={len(self.seeds)}, {self.status})"
        )


@dataclass
class Frame:
    """One partition's id space, as the expansion kernel sees it.

    Local ids ``[0, n_own)`` are the partition's own points — row ``k``
    of ``own_points`` is local id ``k`` — and the rest, up to the size of
    ``tree``, are foreign: reachable as SEEDs, never expanded.  ``tree``
    answers radius queries in its own ids, which the table ``to_local``
    (one entry per tree point) maps into the frame — ``None`` when the
    tree is already built over local ids.  The range plan is the rotation
    ``(g - lo) % n`` of the global index space; the cell plan is
    ``owned_ids`` followed by ``halo_ids``.  ``to_global`` returns new
    arrays in the id dtype of all ``n`` points (`id_dtype`), so the
    task's record is born in it.  ``above`` tells which foreign ids are
    homed in a higher partition: under the rotation, those below
    ``n - lo``.
    """

    partition: int
    lo: int                      # stamped on the partials (range plan only)
    hi: int
    tree: KDTree
    own_points: np.ndarray
    to_local: np.ndarray | None
    to_global: Callable[[np.ndarray], np.ndarray]
    home_of: Callable[[np.ndarray], np.ndarray]  # owning partition of foreign ids
    above: Callable[[np.ndarray], np.ndarray]    # foreign ids homed higher up


def local_dbscan(
    partition_id: int,
    own_indices: Iterable[int],
    points: np.ndarray,
    tree: KDTree,
    eps: float,
    minpts: int,
    partitioner: IndexRangePartitioner,
    seed_policy: str = "all",
    max_neighbors: int | None = None,
    neighbor_mode: str = "per_point",
    boundary_out: set[int] | None = None,
    stats: dict[str, int] | None = None,
    orphans_out: list[np.ndarray] | None = None,
) -> ClusterTable:
    """Build the partial clusters of one partition (Algorithm 2 lines 4–29).

    ``own_indices`` is the iterator the executor receives for its
    partition; every index must fall inside the partition's range.
    Returns the partition's partial clusters as one `ClusterTable`;
    noise is implicit (points of this partition that are members of no
    partial cluster anywhere).

    The table carries the task's Section III-B operation counts
    (`ClusterTable.op_counters`); pass a ``stats`` dict to receive the
    kernel's propagation ``rounds``.

    ``neighbor_mode`` is validated and otherwise ignored: both accepted
    values run the same code — every owned point's eps-neighbourhood
    comes from one `KDTree.query_radius_segments` call and the expansion
    reads the hits in the kernel's tile order (nnz x 8 bytes per task).

    ``boundary_out``, when given, collects every owned point
    that has at least one foreign neighbour within eps, and the table
    then flags its members among them (``boundary``).  Those are exactly
    the members some other partition can see as a SEED (eps-symmetry) —
    what `ClusterTable.project` keeps for the edge-based merge (DESIGN.md
    §11).  Requires ``max_neighbors=None``: truncation breaks the
    symmetry argument.

    ``orphans_out``, when given, receives the partition's orphan rows
    (`expand_frame`, also the table's ``orphans``), and the partials
    then carry only their up-pointing seeds.  Requires
    ``seed_policy="all"`` and ``max_neighbors=None``.
    """
    given = np.fromiter(own_indices, dtype=np.int64)
    lo, hi = partitioner.range_of(partition_id)
    stray = given[(given < lo) | (given >= hi)]
    if stray.size:
        raise ValueError(
            f"index {int(stray[0])} handed to partition {partition_id} whose "
            f"range is [{lo}, {hi}) — partitioning is inconsistent"
        )
    return expand_frame(
        range_frame(partition_id, points, tree, partitioner), eps, minpts,
        seed_policy=seed_policy, max_neighbors=max_neighbors,
        neighbor_mode=neighbor_mode, boundary_out=boundary_out, stats=stats,
        orphans_out=orphans_out,
    )


def range_frame(partition_id: int, points: np.ndarray, tree: KDTree,
                partitioner: IndexRangePartitioner) -> Frame:
    """The range plan's frame: the rotation ``(g - lo) % n``."""
    lo, hi = partitioner.range_of(partition_id)
    n = points.shape[0]
    dtype = id_dtype(n)

    def to_global(ids: np.ndarray) -> np.ndarray:
        # (ids + lo) % n inside the id dtype: ids - (n - lo) lies in
        # (-n, n), and the negative ones wrap.
        g = ids.astype(dtype)
        g -= n - lo
        np.add(g, n, out=g, where=g < 0)
        return g

    def home_of(ids: np.ndarray) -> np.ndarray:
        ends = [partitioner.range_of(q)[1]
                for q in range(partitioner.num_partitions)]
        return np.searchsorted(ends, to_global(ids), side="right")

    return Frame(
        partition=partition_id, lo=lo, hi=hi, tree=tree,
        own_points=points[lo:hi],
        to_local=np.roll(np.arange(n, dtype=dtype), lo), to_global=to_global,
        home_of=home_of, above=lambda ids: ids < n - lo,
    )


def expand_frame(
    frame: Frame,
    eps: float,
    minpts: int,
    *,
    seed_policy: str,
    max_neighbors: int | None,
    neighbor_mode: str,
    boundary_out: set[int] | None,
    stats: dict[str, int] | None = None,
    orphans_out: list[np.ndarray] | None = None,
) -> ClusterTable:
    """The SEED expansion (Algorithm 2 with Algorithm 3's SEED rule),
    without a queue (DESIGN.md §6, "The loop").

    Over the rows of one `query_radius_segments` call (``neighbor_mode``
    is only validated): clusters are the components of the core points,
    each founded by its smallest core id as the paper's BFS over the
    owned ids in ascending order would have; a border joins the
    lowest-founder cluster in its row; a cluster's seeds are the distinct
    foreign ids on its core rows (``"one_per_partition"``: the lowest per
    home).  The `ClusterTable` lists each partial's founder, then its
    other members in ascending id, and its ``ops`` row holds the
    Section III-B counts the paper's BFS would have made, in closed form
    (DESIGN.md §6, "Counting").  ``stats`` receives the propagation
    ``rounds``.

    With ``orphans_out`` a partial keeps only the seeds whose home
    partition is above ``frame.partition`` and counts the rest in
    ``down_seeds``; ``orphans_out`` (and the table's ``orphans``)
    receives one ``(k, 2)`` array of sorted ``(orphan, neighbour)``
    global id pairs, an orphan being an owned point no local cluster
    holds and its neighbours those homed above (DESIGN.md §11).
    """
    if seed_policy not in SEED_POLICIES:
        raise ValueError(
            f"seed_policy must be one of {SEED_POLICIES}, got {seed_policy!r}"
        )
    if neighbor_mode not in NEIGHBOR_MODES:
        raise ValueError(
            f"neighbor_mode must be one of {NEIGHBOR_MODES}, got {neighbor_mode!r}"
        )
    if boundary_out is not None and max_neighbors is not None:
        raise ValueError("boundary_out requires max_neighbors=None (see local_dbscan)")
    if orphans_out is not None and (seed_policy != "all"
                                    or max_neighbors is not None):
        raise ValueError(
            "orphans_out requires seed_policy='all' and max_neighbors=None: "
            "only then is every cross-partition pair seen from both sides"
        )
    own_points, tree, to_global = frame.own_points, frame.tree, frame.to_global
    n_own = len(own_points)
    if n_own == 0:
        none = np.empty(0, dtype=np.int64)
        return _table(frame, none, none, none == 0, none,
                      np.zeros(1, dtype=np.int64), none,
                      None if boundary_out is None else none == 0, NO_ORPHANS,
                      OpCounters())
    query_stats: dict[str, int] = {}
    with task_span("task.kdtree_query", n=n_own) as qsp:
        degree, seg_q, seg_n, hits = tree.query_radius_segments(
            own_points, eps, max_neighbors, ids=frame.to_local,
            stats=query_stats,
        )
        qsp.annotate(**query_stats)
    core = degree >= minpts
    # Hits stay in tile order: a row is read through its (non-empty)
    # segments, each reduced by one reduceat and folded per query.
    seg_start = np.cumsum(seg_n) - seg_n
    foreign = None
    if boundary_out is not None:  # rows with a segment whose max is foreign
        foreign = np.zeros(n_own, dtype=bool)
        foreign[seg_q[np.maximum.reduceat(hits, seg_start) >= n_own]] = True
        boundary_out.update(to_global(np.flatnonzero(foreign)).tolist())

    n_tree = len(tree.points)
    owner, rounds = _founders(seg_q, seg_start, seg_n, hits, core, n_tree,
                              symmetric=max_neighbors is None)
    if stats is not None:
        stats["rounds"] = rounds

    # Members grouped by founder, the founder first and the rest in
    # ascending id: one sort of (founder, rank) keys, rank 0 the founder.
    ids = np.flatnonzero(owner < n_own)
    group = owner[ids].astype(np.int64)
    key = group * (n_own + 1) + np.where(ids == group, 0, ids + 1)
    key.sort()
    group = key // (n_own + 1)
    rank = key - group * (n_own + 1)
    members = np.where(rank == 0, group, rank - 1)
    starts = np.flatnonzero(rank == 0)
    m = len(starts)

    # Seeds: the distinct (cluster, foreign id) pairs on core rows, by one
    # sort of k * n_tree + id, k the cluster's rank among the m founders
    # and m on rows no cluster expands — int32 while (m + 1) * n_tree
    # fits (`seed_key_dtype`).
    cluster = np.full(n_own + 1, m, dtype=seed_key_dtype(m, n_tree))
    cluster[group[starts]] = np.arange(m)
    key = np.repeat(cluster[np.where(core, owner, n_own)][seg_q], seg_n)
    del cluster
    hit = key < m
    hit &= hits >= n_own
    # Every hit's key in place, then one gather: no intp copy of the
    # foreign hits, and rank m's keys stay under (m + 1) * n_tree too.
    key *= n_tree
    np.add(key, hits, out=key, casting="unsafe")
    key = key[hit]
    del hit
    foreign_hits = len(key)
    key.sort()  # not np.unique: numpy 2.x hashes there, 10x slower here
    key = key[heads(key)]
    seed_cluster = key // n_tree
    seeds = key - seed_cluster * n_tree
    reachable = len(seeds)
    if seed_policy == "one_per_partition":
        # Algorithm 3 line 11 as a filter: the lowest frame id per
        # (cluster, home partition) stays.
        homes = frame.home_of(seeds)
        pair = (seed_cluster.astype(np.int64) * (int(homes.max(initial=0)) + 1)
                + homes)
        first = np.sort(np.unique(pair, return_index=True)[1])
        seed_cluster, seeds = seed_cluster[first], seeds[first]
    # The Section III-B counts of the paper's BFS, in closed form.
    core_hits = int(degree[core].sum())
    ops = OpCounters(
        range_queries=n_own, queue_adds=core_hits, queue_removes=core_hits,
        hashtable_puts=n_own + len(members),
        hashtable_lookups=n_own + 2 * (core_hits - foreign_hits),
        seeds_placed=len(seeds), seeds_skipped=reachable - len(seeds),
    )
    down = np.zeros(m, dtype=np.int64)
    orphans = NO_ORPHANS
    if orphans_out is not None:
        # A cross-partition core pair is on both cores' rows: the lower
        # partition's task alone witnesses it.
        up = frame.above(seeds)
        down = np.bincount(seed_cluster[~up], minlength=m)
        seed_cluster, seeds = seed_cluster[up], seeds[up]
        orphans = _orphan_rows(frame, owner, degree, seg_q, seg_start, seg_n,
                               hits)
        orphans_out.append(orphans)
    seed_ptr = np.searchsorted(seed_cluster,
                               np.arange(m + 1, dtype=seed_cluster.dtype))
    return _table(frame, members, starts, ~core[members], seeds, seed_ptr,
                  down, None if foreign is None else foreign[members],
                  orphans, ops)


def seed_key_dtype(m: int, n_tree: int) -> type:
    """The dtype of `expand_frame`'s seed keys ``k * n_tree + id`` for a
    task with ``m`` founders and ``n_tree`` frame ids: keys are ids over
    ``(m + 1) * n_tree`` slots (rank ``m`` the no-cluster sentinel)."""
    return id_dtype((m + 1) * n_tree)


def _orphan_rows(frame: Frame, owner: np.ndarray, degree: np.ndarray,
                 seg_q: np.ndarray, seg_start: np.ndarray, seg_n: np.ndarray,
                 hits: np.ndarray) -> np.ndarray:
    """``(orphan, neighbour)`` global id pairs in ascending order: the
    ids homed in a higher partition on the row of every owned point whose
    founder is the sentinel — not core, and no core in its own partition.
    The claimants below reach such a point with their up-pointing seeds;
    these rows name the ones above.  A row holds fewer than minpts ids;
    one holding only the point itself (isolated noise) is skipped up
    front."""
    n_own = len(owner)
    lone = (owner == n_own) & (degree > 1)
    if not lone.any():
        return NO_ORPHANS
    pick = lone[seg_q]
    lens = seg_n[pick]
    at = np.arange(lens.sum()) + np.repeat(
        seg_start[pick] - np.cumsum(lens) + lens, lens)
    nbr = hits[at]
    up = nbr >= n_own
    up[up] = frame.above(nbr[up])
    orphan = frame.to_global(np.repeat(seg_q[pick], lens)[up])
    nbr = frame.to_global(nbr[up])
    order = np.lexsort((nbr, orphan))
    return np.column_stack([orphan[order], nbr[order]])


def _founders(seg_q: np.ndarray, seg_start: np.ndarray, seg_n: np.ndarray,
              hits: np.ndarray, core: np.ndarray, n_tree: int, *,
              symmetric: bool) -> tuple[np.ndarray, int]:
    """Each owned point's cluster founder (``n_own``: noise) by min-label
    propagation, and the rounds it took.  Core ids start as their own
    label, every other id as the sentinel ``n_own``; a round hooks each
    core row's root under its row minimum (over its segments) and
    pointer-jumps.  The last round's row minima are the borders' claims.
    Truncated rows (``symmetric=False``) also hook a listed core's root
    under the listing row's label, so components are undirected."""
    n_own = len(core)
    label = np.full(n_tree + 1, n_own, dtype=np.int32)
    own = label[:n_own]
    cores = np.flatnonzero(core)
    own[cores] = cores
    if not len(cores):
        return own, 0
    seen = np.empty(len(hits), dtype=np.int32)  # one gather buffer for all rounds
    low = np.empty(n_own, dtype=np.int32)
    rounds = 0
    while True:
        rounds += 1
        np.take(label, hits, out=seen, mode="clip")  # clip: unbuffered
        low.fill(n_own)
        np.minimum.at(low, seg_q, np.minimum.reduceat(seen, seg_start))
        pull = core & (low < own)
        roots, under = own[pull], low[pull]
        if not symmetric:
            row_label = np.repeat(own[seg_q], seg_n)
            push = (seen < n_own) & (seen > row_label)
            roots = np.concatenate([roots, seen[push]])
            under = np.concatenate([under, row_label[push]])
        if not len(roots):
            return np.where(core, own, low), rounds
        np.minimum.at(label, roots, under)
        while not np.array_equal(up := label[own], own):
            own[:] = up


def _table(frame: Frame, members: np.ndarray, starts: np.ndarray,
           border: np.ndarray, seeds: np.ndarray, seed_ptr: np.ndarray,
           down: np.ndarray, boundary: np.ndarray | None,
           orphans: np.ndarray, ops: OpCounters) -> "ClusterTable":
    """The task's record: its member and seed arrays as CSR columns,
    both mapped to global ids (in the id dtype) in one `to_global` call,
    and its one ``ops`` row."""
    ids = frame.to_global(np.concatenate([members, seeds]))
    m = len(starts)
    member_ptr = np.append(starts, len(members))
    member_ids = ids[:len(members)]
    return ClusterTable(
        task=frame.partition,
        partition=np.full(m, frame.partition, dtype=np.int64),
        local_id=np.arange(m, dtype=np.int64),
        lo=np.full(m, frame.lo, dtype=np.int64),
        hi=np.full(m, frame.hi, dtype=np.int64),
        founder=member_ids[starts],
        member_count=np.diff(member_ptr),
        border_count=np.diff(np.append(0, np.cumsum(border))[member_ptr]),
        down_seeds=down,
        member_ptr=member_ptr, members=member_ids, border=border,
        seed_ptr=seed_ptr, seeds=ids[len(members):], orphans=orphans,
        boundary=boundary,
        ops=np.array([[frame.partition, *vars(ops).values()]], dtype=np.int64),
    )


def stack(tables: list["ClusterTable"], f: str) -> np.ndarray:
    """Column ``f`` of the tables back to back; one table's is not copied."""
    parts = [getattr(t, f) for t in tables]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def heads(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted ``keys``:
    one adjacent comparison, not `np.diff`'s prepended copy."""
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head


def _ptr(counts: np.ndarray) -> np.ndarray:
    """CSR pointers over per-row counts."""
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _csr_take(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(new_ptr, flat)``: the CSR pointers of ``rows`` in that order,
    and the positions of their entries in the old flat array."""
    counts = np.diff(ptr)[rows]
    new_ptr = _ptr(counts)
    flat = np.arange(new_ptr[-1]) + np.repeat(ptr[:-1][rows] - new_ptr[:-1],
                                              counts)
    return new_ptr, flat


def _scatter(dst: np.ndarray, ptr: np.ndarray,
             columns: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Write each ``(out, src)`` pair's CSR rows (pointers ``ptr``) into
    ``out``, row ``k`` starting at ``dst[k]``: one slice when the rows
    land back to back in their own order, else one scatter through an
    index the size of ``src``."""
    shift = dst - ptr[:-1]
    if len(shift) and (shift == shift[0]).all():
        at = slice(shift[0], shift[0] + ptr[-1])
    else:
        at = np.repeat(shift, np.diff(ptr))
        at += np.arange(ptr[-1])
    for out, src in columns:
        out[at] = src


#: Per-cluster columns of a `ClusterTable`, and the per-member ones
#: every table has (``boundary`` is optional).
CLUSTER_COLUMNS = ("partition", "local_id", "lo", "hi", "founder",
                   "member_count", "border_count", "down_seeds")
MEMBER_COLUMNS = ("members", "border")


@dataclass(eq=False)
class ClusterTable:
    """Partial clusters as columns: the one record that flows from the
    expansion kernel through the accumulator, the collect checkpoint
    and the merge to label application (DESIGN.md §6, "Output").

    Per cluster ``k``: ``partition`` and ``local_id`` (its cid),
    ``lo``/``hi`` (the range plan's partition range, 0 on the cell
    plan), ``founder`` (its smallest core id), ``member_count`` and
    ``border_count`` (what it holds, whatever a projection dropped) and
    ``down_seeds`` (seeds reached below but not shipped).  Members are
    CSR — ``members[member_ptr[k]:member_ptr[k + 1]]``, founder first,
    the rest ascending — with a ``border`` flag each and, when the task
    tracked it (``boundary_out``), a ``boundary`` flag: the member has a
    foreign neighbour.  Seeds are CSR the same way, ascending per
    cluster.  ``orphans`` is the orphan table, ``task`` the partition
    whose task built the table (-1 when it spans tasks), and ``ops`` one
    row per task: its id, then its `OpCounters` fields in declaration
    order (`op_counters`).

    Point ids (``members``, ``seeds``, ``founder``, ``orphans``) keep
    the dtype they were written in: a task's `id_dtype`, int64 from
    `from_partials`.  `project` keeps only the boundary members — the
    edges mode's wire format.  Indexing or iterating builds
    `PartialCluster` views; nothing on the run path does.
    """

    task: int
    partition: np.ndarray
    local_id: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    founder: np.ndarray
    member_count: np.ndarray
    border_count: np.ndarray
    down_seeds: np.ndarray
    member_ptr: np.ndarray
    members: np.ndarray
    border: np.ndarray
    seed_ptr: np.ndarray
    seeds: np.ndarray
    orphans: np.ndarray = field(default_factory=lambda: NO_ORPHANS)
    boundary: np.ndarray | None = None
    ops: np.ndarray = field(default_factory=lambda: NO_OPS)

    def __len__(self) -> int:
        return len(self.founder)

    def __getitem__(self, k: int) -> PartialCluster:
        k = range(len(self))[k]
        a, b = self.member_ptr[k:k + 2].tolist()
        members = self.members[a:b]
        return PartialCluster(
            partition=int(self.partition[k]), local_id=int(self.local_id[k]),
            lo=int(self.lo[k]), hi=int(self.hi[k]), members=members.tolist(),
            seeds=self.seeds[self.seed_ptr[k]:self.seed_ptr[k + 1]].copy(),
            borders=set(members[self.border[a:b]].tolist()),
            down_seeds=int(self.down_seeds[k]),
        )

    def __iter__(self) -> Iterator[PartialCluster]:
        return map(self.__getitem__, range(len(self)))

    @property
    def sizes(self) -> np.ndarray:
        """`PartialCluster.size` per cluster: members, shipped seeds and
        unshipped ones."""
        return self.member_count + np.diff(self.seed_ptr) + self.down_seeds

    def op_counters(self) -> list[tuple[int, OpCounters]]:
        """The ``ops`` column as ``(task, OpCounters)`` pairs, row order."""
        return [(task, OpCounters(*counts))
                for task, *counts in self.ops.tolist()]

    @classmethod
    def from_partials(cls, partials: Iterable[PartialCluster]) -> "ClusterTable":
        """A hand-built partial list as a record, in list order; a
        member-less cluster's founder is -1."""
        partials = list(partials)
        member_lists = [list(c.members) for c in partials]
        counts = np.array(list(map(len, member_lists)), dtype=np.int64)
        members = np.fromiter(chain.from_iterable(member_lists), np.int64,
                              int(counts.sum()))
        seeds = [np.asarray(c.seeds, dtype=np.int64) for c in partials]

        def column(values) -> np.ndarray:
            return np.array(list(values), dtype=np.int64)

        return cls(
            task=-1,
            **{f: column(getattr(c, f) for c in partials)
               for f in ("partition", "local_id", "lo", "hi", "down_seeds")},
            founder=column(ms[0] if ms else -1 for ms in member_lists),
            member_count=counts,
            border_count=column(len(c.borders) for c in partials),
            member_ptr=_ptr(counts), members=members,
            border=np.fromiter(
                (m in c.borders for c, ms in zip(partials, member_lists)
                 for m in ms), bool, len(members)),
            seed_ptr=_ptr(np.array(list(map(len, seeds)), dtype=np.int64)),
            seeds=np.concatenate(seeds) if seeds else np.empty(0, np.int64),
        )

    @classmethod
    def concat(cls, tables: Iterable["ClusterTable"]) -> "ClusterTable":
        """The tables' clusters, founder-sorted — the canonical order gid
        numbering follows — and their orphan and ``ops`` rows in the
        order given.  The order comes from the per-cluster columns; each
        table's members, flags and seeds are then written once, straight
        into their place (`_scatter`).  The tables are left as they
        were."""
        tables = list(tables) or [cls.from_partials([])]
        first = tables[0]
        if len(tables) == 1 and (np.diff(first.founder) > 0).all():
            return first
        order = np.argsort(stack(tables, "founder"), kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        rank = np.split(rank, np.cumsum(list(map(len, tables)))[:-1])
        ragged = {"member_ptr": MEMBER_COLUMNS, "seed_ptr": ("seeds",)}
        if all(t.boundary is not None for t in tables):
            ragged["member_ptr"] += ("boundary",)
        out = {}
        for p, cols in ragged.items():
            ptr = out[p] = _ptr(np.concatenate(
                [np.diff(getattr(t, p)) for t in tables])[order])
            for f in cols:
                out[f] = np.empty(ptr[-1], dtype=np.result_type(
                    *(getattr(t, f) for t in tables)))
            for t, dst in zip(tables, rank):
                _scatter(ptr[dst], getattr(t, p),
                         [(out[f], getattr(t, f)) for f in cols])
        return cls(
            task=first.task if len(tables) == 1 else -1,
            **{f: stack(tables, f)[order] for f in CLUSTER_COLUMNS}, **out,
            orphans=stack(tables, "orphans"), ops=stack(tables, "ops"),
        )

    def take(self, rows: np.ndarray) -> "ClusterTable":
        """The clusters ``rows``, in that order (the orphan and ``ops``
        rows stay)."""
        member_ptr, at = _csr_take(self.member_ptr, rows)
        seed_ptr, seed_at = _csr_take(self.seed_ptr, rows)
        return replace(
            self, **{f: getattr(self, f)[rows] for f in CLUSTER_COLUMNS},
            **{f: getattr(self, f)[at] for f in MEMBER_COLUMNS},
            member_ptr=member_ptr,
            boundary=None if self.boundary is None else self.boundary[at],
            seed_ptr=seed_ptr, seeds=self.seeds[seed_at],
        )

    def project(self) -> "ClusterTable":
        """The edges mode's record: only the boundary members — by
        eps-symmetry every member another partition can reach as a seed —
        with every count, seed, orphan and ``ops`` row kept (DESIGN.md
        §11)."""
        keep = self.boundary
        if keep is None:
            raise ValueError("project() needs the boundary flags "
                             "(expand with boundary_out)")
        return replace(
            self, member_ptr=_ptr(np.diff(
                np.append(0, np.cumsum(keep))[self.member_ptr])),
            members=self.members[keep], border=self.border[keep],
            boundary=None,
        )

    @staticmethod
    def to_arrays(tables: list["ClusterTable"]) -> dict[str, np.ndarray]:
        """Tables as flat npz columns, each field a `pack_ragged` pair;
        inverse `from_arrays`."""
        from ..pipeline.checkpoint import pack_ragged

        arrays = {"task": np.array([t.task for t in tables], dtype=np.int64)}
        for f in TABLE_ARRAYS:
            parts = [getattr(t, f) for t in tables]
            if all(p is not None for p in parts):
                arrays.update(pack_ragged(f, parts))
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> list["ClusterTable"]:
        """Inverse of `to_arrays`."""
        from ..pipeline.checkpoint import unpack_ragged

        split = {f: unpack_ragged(arrays, f) for f in TABLE_ARRAYS
                 if f in arrays}
        return [cls(task=int(task), **{f: parts[i] for f, parts in split.items()})
                for i, task in enumerate(arrays["task"].tolist())]


#: The array fields of a `ClusterTable`, as `to_arrays` stores them.
TABLE_ARRAYS = (CLUSTER_COLUMNS + ("member_ptr",) + MEMBER_COLUMNS
                + ("boundary", "seed_ptr", "seeds", "orphans", "ops"))


def as_table(partials: ClusterTable | Iterable[PartialCluster]) -> ClusterTable:
    """The public merge entry points' one coercion: a `ClusterTable`
    passes through, a hand-built `PartialCluster` list becomes one in
    list order."""
    return (partials if isinstance(partials, ClusterTable)
            else ClusterTable.from_partials(partials))


def digest_from_partials(
        partials: ClusterTable | list[PartialCluster]) -> ClusterTable:
    """The projection the executors would have shipped in edges mode,
    concatenated in founder order: `merge_edges`'s input.

    Reference path for tests and benchmarks: without the executors'
    boundary flags, a member is kept iff some cluster lists it as a
    seed — every point that actually participates in a seed/owner join.
    (The executor-side boundary is a superset — boundary members nobody
    seeded — which the join simply never probes.)  The projection
    carries no orphan rows, so pass full-seed partials.
    """
    table = ClusterTable.concat([as_table(partials)])
    # kind="table": ids span at most the point count.
    return replace(table, orphans=NO_ORPHANS, boundary=np.isin(
        table.members, table.seeds, kind="table")).project()


#: Clusters `partials_payload_nbytes` renders at a time.
PAYLOAD_BLOCK = 256


def partials_payload_nbytes(partials: ClusterTable,
                            orphans: np.ndarray = NO_ORPHANS) -> int:
    """Canonical driver-collect size of the partial-mode payload.

    Pickles a plain-tuple rendering of each cluster of the record (its
    `PartialCluster` fields, sorted borders, fixed protocol), one
    cluster at a time, so the byte count is deterministic across
    backends and Python versions and independent of how the record is
    laid out.  The orphan table, when given, counts as one more item.
    The sum feeds the ``repro_driver_collect_bytes`` gauge the perf gate
    compares exactly.  The columns are rendered `PAYLOAD_BLOCK` clusters
    at a time, so the gauge never holds the whole record as Python
    objects.
    """
    total = 0
    for a in range(0, len(partials), PAYLOAD_BLOCK):
        b = min(a + PAYLOAD_BLOCK, len(partials))
        m0, m1 = partials.member_ptr[[a, b]].tolist()
        s0, s1 = partials.seed_ptr[[a, b]].tolist()
        members = partials.members[m0:m1].tolist()
        border = partials.border[m0:m1].tolist()
        seeds = partials.seeds[s0:s1].tolist()
        mp = (partials.member_ptr[a:b + 1] - m0).tolist()
        sp = (partials.seed_ptr[a:b + 1] - s0).tolist()
        rows = zip(*(getattr(partials, f)[a:b].tolist() for f in
                     ("partition", "local_id", "lo", "hi", "down_seeds")))
        total += sum(
            len(pickle.dumps(
                (p, lid, lo, hi, members[mp[k]:mp[k + 1]],
                 seeds[sp[k]:sp[k + 1]],
                 sorted(compress(members[mp[k]:mp[k + 1]],
                                 border[mp[k]:mp[k + 1]])),
                 "unfinished", down),
                protocol=4,
            ))
            for k, (p, lid, lo, hi, down) in enumerate(rows)
        )
    if len(orphans):
        total += len(pickle.dumps(orphans.tolist(), protocol=4))
    return total


def digest_payload_nbytes(digests: list[ClusterTable]) -> int:
    """Canonical driver-collect size of the edge-mode payload: per
    projection, its summaries ``(partition, local_id, founder, members,
    seeds, borders)``, seed lists, exports ``(point, local_id, core?)``
    and orphan rows, pickled as for :func:`partials_payload_nbytes`."""
    total = 0
    for t in digests:
        seeds, sp = t.seeds.tolist(), t.seed_ptr.tolist()
        summaries = list(zip(
            t.partition.tolist(), t.local_id.tolist(), t.founder.tolist(),
            t.member_count.tolist(), (t.sizes - t.member_count).tolist(),
            t.border_count.tolist()))
        exports = list(zip(
            t.members.tolist(),
            np.repeat(t.local_id, np.diff(t.member_ptr)).tolist(),
            (~t.border).tolist()))
        total += len(pickle.dumps(
            (t.task, summaries,
             [seeds[sp[k]:sp[k + 1]] for k in range(len(t))],
             exports, t.orphans.tolist()),
            protocol=4,
        ))
    return total
