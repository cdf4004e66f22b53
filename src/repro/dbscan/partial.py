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
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from ..engine.partitioner import IndexRangePartitioner
from ..kdtree import KDTree
from ..obs.collect import task_span

SEED_POLICIES = ("all", "one_per_partition")

#: Accepted ``neighbor_mode`` values.  Both run the same code here: the
#: kernel has one row source, `KDTree.query_radius_batch` (DESIGN.md §6).
#: Only the sequential plan still queries per point under ``"per_point"``;
#: the field stays because the frozen benchmark passes and reads it.
NEIGHBOR_MODES = ("per_point", "batched")


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

    def merge(self, other: "OpCounters") -> "OpCounters":
        """Merge another instance into this one; returns self."""
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


@dataclass
class PartialCluster:
    """One locally-built cluster, as shipped through the accumulator.

    ``members`` are regular elements (indices inside the partition's
    range); ``seeds`` are foreign indices — an int64 array from the
    kernel through the accumulator into the driver merge (any int
    sequence passed in is converted), 8 B a seed where a list of boxed
    ints held ~36.  ``status`` mirrors the paper's unfinished/finished
    merge bookkeeping (Figure 4).

    ``borders`` is the subset of ``members`` that are *not* core points.
    The driver's merge needs it: density-connectivity only passes
    through core points, so a SEED that is merely a border member of
    another partial cluster must NOT merge the two (a border point
    shared by two clusters is legal in DBSCAN and does not join them).
    The paper's Algorithm 4 overlooks this distinction — see DESIGN.md
    §4.
    """

    partition: int
    local_id: int
    lo: int                      # partition index range [lo, hi)
    hi: int
    members: list[int] = field(default_factory=list)
    seeds: np.ndarray = ()
    borders: set[int] = field(default_factory=set)
    status: str = "unfinished"

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
        """Total number of elements."""
        return len(self.members) + len(self.seeds)

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
    ``owned_ids`` followed by ``halo_ids``.
    """

    partition: int
    lo: int                      # stamped on the partials (range plan only)
    hi: int
    tree: KDTree
    own_points: np.ndarray
    to_local: np.ndarray | None
    to_global: Callable[[np.ndarray], np.ndarray]
    home_of: Callable[[np.ndarray], np.ndarray]  # owning partition of foreign ids


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
    counters: OpCounters | None = None,
    neighbor_mode: str = "per_point",
    boundary_out: set[int] | None = None,
    stats: dict[str, int] | None = None,
) -> list[PartialCluster]:
    """Build the partial clusters of one partition (Algorithm 2 lines 4–29).

    ``own_indices`` is the iterator the executor receives for its
    partition; every index must fall inside the partition's range.
    Returns the partial clusters; noise is implicit (points of this
    partition that are members of no partial cluster anywhere).

    Pass an `OpCounters` to collect the Section III-B operation counts
    (range queries, queue adds/removes, hashtable puts/lookups), and a
    ``stats`` dict to receive the kernel's propagation ``rounds``.

    ``neighbor_mode`` is validated and otherwise ignored: both accepted
    values run the same code — every owned point's eps-neighbourhood
    comes from one `KDTree.query_radius_batch` call and the expansion
    works on the stored CSR rows (nnz x 8 bytes per task).

    ``boundary_out``, when given, collects every owned point
    that has at least one foreign neighbour within eps.  Intersected
    with a partial cluster's members it yields exactly the points some
    other partition can see as a SEED (eps-symmetry) — the export set
    of the edge-based merge (DESIGN.md §11).  Requires
    ``max_neighbors=None``: truncation breaks the symmetry argument.
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
        neighbor_mode=neighbor_mode, counters=counters,
        boundary_out=boundary_out, stats=stats,
    )


def range_frame(partition_id: int, points: np.ndarray, tree: KDTree,
                partitioner: IndexRangePartitioner) -> Frame:
    """The range plan's frame: the rotation ``(g - lo) % n``."""
    lo, hi = partitioner.range_of(partition_id)
    n = points.shape[0]

    def home_of(ids: np.ndarray) -> np.ndarray:
        ends = [partitioner.range_of(q)[1]
                for q in range(partitioner.num_partitions)]
        return np.searchsorted(ends, (ids + lo) % n, side="right")

    return Frame(
        partition=partition_id, lo=lo, hi=hi, tree=tree,
        own_points=points[lo:hi], to_local=(np.arange(n) - lo) % n,
        to_global=lambda ids: (ids + lo) % n, home_of=home_of,
    )


def expand_frame(
    frame: Frame,
    eps: float,
    minpts: int,
    *,
    seed_policy: str,
    max_neighbors: int | None,
    neighbor_mode: str,
    counters: OpCounters | None,
    boundary_out: set[int] | None,
    stats: dict[str, int] | None = None,
) -> list[PartialCluster]:
    """The SEED expansion (Algorithm 2 with Algorithm 3's SEED rule),
    without a queue (DESIGN.md §6, "The loop").

    Over the rows of one `query_radius_batch` call (``neighbor_mode`` is
    only validated): clusters are the components of the core points,
    each founded by its smallest core id as the paper's BFS over the
    owned ids in ascending order would have; a border joins the
    lowest-founder cluster in its row; a cluster's seeds are the distinct
    foreign ids on its core rows (``"one_per_partition"``: the lowest per
    home).  A partial lists its founder, then its other members in
    ascending id.  ``stats`` receives the propagation ``rounds``.
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
    own_points, tree, to_global = frame.own_points, frame.tree, frame.to_global
    n_own = len(own_points)
    if n_own == 0:
        return []
    query_stats: dict[str, int] = {}
    with task_span("task.kdtree_query", n=n_own) as qsp:
        indptr, indices = tree.query_radius_batch(
            own_points, eps, max_neighbors, ids=frame.to_local,
            stats=query_stats,
        )
        qsp.annotate(**query_stats)
    degree = np.diff(indptr)
    core = degree >= minpts
    if boundary_out is not None:
        # Rows with a foreign id.  No row is empty here — rows are
        # untruncated and every point is its own neighbour — which is
        # what lets one reduceat stand for a per-row max.
        rows = np.flatnonzero(
            np.maximum.reduceat(indices, indptr[:-1]) >= n_own
        )
        boundary_out.update(to_global(rows).tolist())

    n_tree = len(tree.points)
    owner, rounds = _founders(indptr, indices, core, n_tree,
                              symmetric=max_neighbors is None)
    if stats is not None:
        stats["rounds"] = rounds

    # Members grouped by founder, the founder first and the rest in
    # ascending id: one sort of (founder, rank) keys, rank 0 the founder.
    ids = np.flatnonzero(owner < n_own)
    group = owner[ids].astype(np.int64)
    key = group * (n_own + 1) + np.where(ids == group, 0, ids + 1)
    key.sort()
    group, rank = np.divmod(key, n_own + 1)
    members = np.where(rank == 0, group, rank - 1)
    starts = np.flatnonzero(rank == 0)

    # Seeds: the distinct (founder, foreign id) pairs on core rows, by one
    # sort of founder * n_tree + id.
    key_type = np.int32 if n_own * n_tree < 2**31 else np.int64
    key = np.repeat(np.where(core, owner, n_own).astype(key_type), degree)
    hit = key < n_own
    hit &= indices >= n_own
    key = key[hit]
    key *= n_tree
    np.add(key, indices[hit], out=key, casting="unsafe")
    del hit
    foreign_hits = len(key)
    key.sort()  # not np.unique: numpy 2.x hashes there, 10x slower here
    key = key[np.diff(key, prepend=-1) != 0]
    seed_founder, seeds = np.divmod(key, n_tree)
    reachable = len(seeds)
    if seed_policy == "one_per_partition":
        # Algorithm 3 line 11 as a filter: the lowest frame id per
        # (cluster, home partition) stays.
        homes = frame.home_of(seeds)
        pair = (seed_founder.astype(np.int64) * (int(homes.max(initial=0)) + 1)
                + homes)
        first = np.sort(np.unique(pair, return_index=True)[1])
        seed_founder, seeds = seed_founder[first], seeds[first]
    if counters is not None:
        # The Section III-B counts of the paper's BFS, in closed form.
        core_hits = int(degree[core].sum())
        counters.merge(OpCounters(
            range_queries=n_own, queue_adds=core_hits, queue_removes=core_hits,
            hashtable_puts=n_own + len(members),
            hashtable_lookups=n_own + 2 * (core_hits - foreign_hits),
            seeds_placed=len(seeds), seeds_skipped=reachable - len(seeds),
        ))
    return _partials(frame, members, starts, ~core[members], seeds,
                     np.searchsorted(seed_founder, group[starts]))


def _founders(indptr: np.ndarray, indices: np.ndarray, core: np.ndarray,
              n_tree: int, *, symmetric: bool) -> tuple[np.ndarray, int]:
    """Each owned point's cluster founder (``n_own``: noise) by min-label
    propagation, and the rounds it took.  Core ids start as their own
    label, every other id as the sentinel ``n_own``; a round hooks each
    core row's root under its row minimum and pointer-jumps.  The last
    round's row minima are the borders' claims.  Truncated rows
    (``symmetric=False``) also hook a listed core's root under the
    listing row's label, so components are undirected."""
    n_own = len(core)
    label = np.full(n_tree + 1, n_own, dtype=np.int32)
    own = label[:n_own]
    cores = np.flatnonzero(core)
    own[cores] = cores
    if not len(cores):
        return own, 0
    starts = indptr[:-1]
    rounds = 0
    while True:
        rounds += 1
        seen = label[indices]
        low = np.minimum.reduceat(seen, starts)
        pull = core & (low < own)
        roots, under = own[pull], low[pull]
        if not symmetric:
            row_label = np.repeat(own, np.diff(indptr))
            push = (seen < n_own) & (seen > row_label)
            roots = np.concatenate([roots, seen[push]])
            under = np.concatenate([under, row_label[push]])
        if not len(roots):
            return np.where(core, own, low), rounds
        np.minimum.at(label, roots, under)
        while not np.array_equal(up := label[own], own):
            own[:] = up


def _partials(frame: Frame, members: np.ndarray, starts: np.ndarray,
              border: np.ndarray, seeds: np.ndarray,
              seed_starts: np.ndarray) -> list[PartialCluster]:
    """Slice the task's member and seed arrays into partial clusters,
    mapping both to global ids in one `to_global` call."""
    ids = frame.to_global(np.concatenate([members, seeds]))
    member_ids, seed_ids = ids[:len(members)], ids[len(members):]
    cuts = np.append(starts, len(members))
    seed_cuts = np.append(seed_starts, len(seeds)).tolist()
    border_cuts = np.append(0, np.cumsum(border))[cuts].tolist()
    listed, border_ids = member_ids.tolist(), member_ids[border].tolist()
    cuts = cuts.tolist()
    return [
        PartialCluster(
            partition=frame.partition, local_id=i, lo=frame.lo, hi=frame.hi,
            members=listed[cuts[i]:cuts[i + 1]],
            seeds=seed_ids[seed_cuts[i]:seed_cuts[i + 1]],
            borders=set(border_ids[border_cuts[i]:border_cuts[i + 1]]),
        )
        for i in range(len(starts))
    ]


# --------------------------------------------------------------------------
# Edge-based merge representation (DESIGN.md §11).
#
# In ``merge_mode="edges"`` the executor keeps its partial clusters local
# and ships only a `PartitionDigest`: point-free summaries, the seed lists
# (the outgoing half-edges), and the *export* table — boundary members
# another partition can reach, keyed so the driver can join seeds against
# them.  Collected bytes scale with the cross-partition surface, not with
# the number of points.
# --------------------------------------------------------------------------


@dataclass
class PartialSummary:
    """Point-free description of one partial cluster.

    ``founder`` is ``members[0]`` — the cluster's first-expanded point.
    Founders are globally unique (every point is a member of at most one
    partial cluster), so sorting summaries by founder reproduces the
    canonical order `CollectPartials` gives the full partial list, which
    is what keeps gid numbering identical across merge modes.
    """

    partition: int
    local_id: int
    founder: int
    n_members: int
    n_seeds: int
    n_borders: int

    @property
    def cid(self) -> tuple[int, int]:
        """Globally-unique cluster id: (partition, local id)."""
        return (self.partition, self.local_id)

    @property
    def size(self) -> int:
        """Total number of elements — matches `PartialCluster.size`."""
        return self.n_members + self.n_seeds


@dataclass
class LocalExpansion:
    """One partition's expansion output, retained executor-side.

    Cached in the lineage (never collected): job 1 derives the digest
    from it, job 2 applies the broadcast gid map to its members.
    ``boundary`` is the queried-points-with-foreign-neighbours set from
    ``local_dbscan(boundary_out=...)``.
    """

    partition: int
    partials: list[PartialCluster]
    boundary: set[int]
    counters: OpCounters | None = None


@dataclass
class PartitionDigest:
    """The compact merge input one partition ships to the driver.

    ``seeds[k]`` is the int64 array of foreign points ``summaries[k]``
    reached (outgoing half-edges, `PartialCluster.seeds` passed through
    unboxed); ``exports`` holds ``(point, local_id,
    is_core)`` for every boundary member — the incoming half-edges.  By
    eps-symmetry a point is a SEED of some other partition iff it has a
    foreign neighbour, so joining seeds against exports recovers exactly
    the owner-map edges the partial-mode merge walks.
    """

    partition: int
    summaries: list[PartialSummary]
    seeds: list[np.ndarray]
    exports: list[tuple[int, int, bool]]


def member_ids(partials: list[PartialCluster]) -> np.ndarray:
    """The clusters' member ids back to back, as one int64 array."""
    return np.fromiter(
        chain.from_iterable(c.members for c in partials), np.int64,
        sum(len(c.members) for c in partials),
    )


def partition_digest(exp: LocalExpansion) -> PartitionDigest:
    """Distill one partition's expansion into its merge digest."""
    summaries: list[PartialSummary] = []
    seeds: list[np.ndarray] = []
    exports: list[tuple[int, int, bool]] = []
    for c in exp.partials:
        summaries.append(
            PartialSummary(
                partition=c.partition,
                local_id=c.local_id,
                founder=c.members[0],
                n_members=len(c.members),
                n_seeds=len(c.seeds),
                n_borders=len(c.borders),
            )
        )
        seeds.append(c.seeds)
        for m in c.members:
            if m in exp.boundary:
                exports.append((int(m), c.local_id, m not in c.borders))
    return PartitionDigest(
        partition=exp.partition, summaries=summaries, seeds=seeds, exports=exports
    )


def digest_from_partials(partials: list[PartialCluster]) -> list[PartitionDigest]:
    """Digests equivalent to what the executors would have emitted.

    Reference path for tests and benchmarks: without the executors'
    boundary sets, the export table is reconstructed as members ∩
    union-of-all-seeds — every point that actually participates in a
    seed/export join.  (The executor-side export set is a superset —
    boundary members nobody seeded — which the join simply never probes.)
    """
    if not partials:
        return []
    members = member_ids(partials)
    # kind="table": ids span at most the point count, and the sort
    # method loses to the set walk it replaced where members outnumber
    # seeds.
    targets = set(members[
        np.isin(members, np.concatenate([c.seeds for c in partials]),
                kind="table")
    ].tolist())
    by_partition: dict[int, list[PartialCluster]] = {}
    for c in partials:
        by_partition.setdefault(c.partition, []).append(c)
    digests = []
    for pid in sorted(by_partition):
        exp = LocalExpansion(
            partition=pid,
            partials=by_partition[pid],
            boundary={m for c in by_partition[pid] for m in c.members if m in targets},
        )
        digests.append(partition_digest(exp))
    return digests


def partials_payload_nbytes(partials: list[PartialCluster]) -> int:
    """Canonical driver-collect size of the partial-mode payload.

    Pickles a plain-tuple rendering (sorted borders, fixed protocol),
    one item at a time, so the byte count is deterministic across
    backends and Python versions — pickling the whole list at once would
    let the memo deduplicate objects shared *across* items (e.g.
    interned status strings), and how much is shared depends on whether
    partials were unpickled per-partition or created in-process.  The
    sum feeds the ``repro_driver_collect_bytes`` gauge the perf gate
    compares exactly.
    """
    return sum(
        len(pickle.dumps(
            (c.partition, c.local_id, c.lo, c.hi, list(c.members),
             c.seeds.tolist(), sorted(c.borders), c.status),
            protocol=4,
        ))
        for c in partials
    )


def digest_payload_nbytes(digests: list[PartitionDigest]) -> int:
    """Canonical driver-collect size of the edge-mode payload.

    Per-digest pickling, summed, for the same backend-invariance reason
    as :func:`partials_payload_nbytes`.
    """
    return sum(
        len(pickle.dumps(
            (
                d.partition,
                [(s.partition, s.local_id, s.founder, s.n_members,
                  s.n_seeds, s.n_borders) for s in d.summaries],
                [ss.tolist() for ss in d.seeds],
                [(int(p), int(l), bool(core)) for (p, l, core) in d.exports],
            ),
            protocol=4,
        ))
        for d in digests
    )
