"""Driver-side merging of partial clusters via SEEDs (Algorithm 4).

A SEED in partial cluster ``Ci`` that is a *regular* element of partial
cluster ``Cj`` proves the two pieces belong to one global cluster
(Figure 4: C[0]'s seed 3000 is a regular element of C[5], so they
merge).

- ``"union_find"`` (default): connected components of the
  seed-containment graph — arbitrary merge chains (A→B→C) included.
  One implementation, `union_find_merge`, joins a `ClusterTable`'s
  seeds against its member rows — the *owner table* (point, owning
  cluster, core there?) — a point-sorted block at a time and unions
  only the pairs of clusters not already in one component;
  `merge_union_find` and `merge_edges` differ only in the table they
  pass: full records (every member) or projections (boundary members).
- ``"paper"``: a literal single pass of Algorithm 4 — for each
  unfinished cluster, dig its seeds, absorb each master, mark statuses.
  Seeds of absorbed masters are *not* re-followed, so long chains can
  stay split; Ablation B exhibits exactly that divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import NOISE
from .partial import ClusterTable, PartialCluster, as_table, stack

MERGE_STRATEGIES = ("union_find", "paper")

#: How partial clusters reach the driver (DESIGN.md §11):
#:
#: - ``"partials"``: executors ship whole member/seed point lists; the
#:   owner table is every member — O(points) collect + merge — and the
#:   driver applies the labels (`apply_gid_map`).
#: - ``"edges"``: executors ship `ClusterTable.project`ions (counts,
#:   seed half-edges, boundary members); the owner table is the boundary
#:   members — O(edges + partials) — and labels are applied by a second
#:   distributed pass (`member_labels` per task).
MERGE_MODES = ("partials", "edges")

#: Seeds joined against the owner table at a time: the join's
#: temporaries are this long, not O(seeds) — joined in one piece they
#: cost the paper-default benchmark +68 % driver RSS (53 -> 89 MiB,
#: seeds held as int64 arrays) and double its `driver_s`.
SEED_BLOCK_ROWS = 8192


class UnionFind:
    """Weighted quick-union with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.components = n

    def find(self, x: int) -> int:
        """Union-find root of the given element."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join two components; True if they were previously disjoint."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.components -= 1
        return True


@dataclass
class MergeOutcome:
    """Labels and bookkeeping produced by a merge strategy."""
    labels: np.ndarray
    num_merges: int
    num_global_clusters: int
    # Paper-strategy diagnostic: distinct points that are core members of
    # one global cluster while also being a seed of a *different* global
    # cluster — unfollowed merge evidence the single pass left behind.
    # Always 0 for union_find (those edges get merged).
    overlapping_points: int = 0
    groups: list[list[int]] = field(default_factory=list)  # partial idxs per global


@dataclass
class EdgeMergePlan:
    """The merge's decisions, without a label array.

    ``gid_of`` maps each kept partial cluster's ``(partition, local_id)``
    key to its global cluster id; `apply_gid_map` — in edges mode, the
    second distributed pass — applies it to the member lists.
    ``claims`` resolves the only other points that get a label:
    cross-partition border seeds owned by nobody — a dict of O(boundary)
    size, not O(points).  ``groups`` indexes the clusters as passed to
    `union_find_merge`: the table's rows for `merge_union_find`, the
    projections' canonical (founder-sorted) order for `merge_edges`.
    """

    gid_of: dict[tuple[int, int], int]
    claims: dict[int, int]
    num_partials: int
    num_seeds: int
    num_edges: int
    num_merges: int
    num_global_clusters: int
    groups: list[list[int]] = field(default_factory=list)


def _seed_blocks(seeds: list[np.ndarray], source: np.ndarray,
                 start: np.ndarray, count: np.ndarray, walk: np.ndarray):
    """The seeds of the clusters ``walk``, in that order, as
    ``(cluster, seed)`` array pairs `SEED_BLOCK_ROWS` long (the last
    shorter).  Cluster ``k``'s seeds are
    ``seeds[source[k]][start[k]:start[k] + count[k]]``, read in place a
    block at a time, so no temporary is O(seeds)."""
    counts = count[walk]
    ends = np.cumsum(counts)
    base = start[walk] - (ends - counts)
    total = int(ends[-1]) if len(ends) else 0
    for a in range(0, total, SEED_BLOCK_ROWS):
        q = np.arange(a, min(a + SEED_BLOCK_ROWS, total))
        k = np.searchsorted(ends, q, side="right")
        at, of = base[k] + q, source[walk[k]]
        if len(seeds) == 1:
            yield walk[k], seeds[0][at]
            continue
        s = np.empty(len(q), dtype=np.int64)
        for i in np.unique(of).tolist():
            hit = of == i
            s[hit] = seeds[i][at[hit]]
        yield walk[k], s


def union_find_merge(
    tables: ClusterTable | list[ClusterTable],
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> EdgeMergePlan:
    """Connected components over core seed⋈owner hits — the driver merge.

    The clusters are one table's rows, in that order, or a list of the
    tasks' tables in `ClusterTable.concat`'s founder-sorted order — the
    same clusters, but each task's seed column is read in place, never
    stacked.  Gids are numbered in that order and ``groups`` indexes it.
    The owner table is the member rows — every member of a full record,
    the boundary members of a projection — each core unless flagged
    ``border``.  Clusters under ``min_cluster_size``
    (`ClusterTable.sizes`) are dropped from both.  A seed whose point
    has a *core* row links the two clusters (a border row is a legal
    overlap, not an edge); a seed with no row is a cross-partition
    border point, claimed by the first cluster to reach it in ascending
    founder order — never arrival order, which varies across backends.
    An orphan row ``(point, neighbour)`` whose neighbour has a core row
    names one more claimant of ``point``: up-pointing seeds name its
    claimants from lower partitions, its rows those from higher ones.

    Seeds are joined against the point-sorted table `SEED_BLOCK_ROWS` at
    a time, in founder-walk order.  A block is first sorted on ``point *
    rows + position``: the probe then walks the table with ascending
    needles, and equal points stay in founder-walk order, so "first
    occurrence" in the claims fold is still the lowest founder.  Both
    ends of every core hit are mapped through ``comp``, each cluster's
    current component, and only the distinct pairs joining two
    components reach the `UnionFind` (of the paper-default benchmark's
    68 277 distinct pairs, 1 973 merge anything).  ``num_edges`` counts
    every core hit, *before* that filter.  No Python loop scales with
    seeds or table rows, and nothing the merge allocates is O(seeds).

    ``stats``, when given, receives ``seed_blocks`` (blocks joined) and
    ``live_pairs`` (pairs that survived the component filter).
    """
    one = isinstance(tables, ClusterTable)
    tables = [tables] if one else list(tables) or [ClusterTable.concat([])]
    founder = stack(tables, "founder")
    m = len(founder)
    # ``order`` lists the stacked rows in gid-numbering order and
    # ``place`` inverts it: every per-cluster array below is in that order.
    order = np.arange(m) if one else np.argsort(founder, kind="stable")
    place = np.empty(m, dtype=np.int64)
    place[order] = np.arange(m)
    sizes = np.concatenate([t.sizes for t in tables])[order]
    source = np.repeat(np.arange(len(tables)), list(map(len, tables)))[order]
    start = np.concatenate([t.seed_ptr[:-1] for t in tables])[order]
    count = np.concatenate([np.diff(t.seed_ptr) for t in tables])[order]

    keep = sizes >= min_cluster_size
    kept = np.flatnonzero(keep)
    owner_cluster = place[np.repeat(np.arange(m), np.concatenate(
        [np.diff(t.member_ptr) for t in tables]))]
    members = stack(tables, "members")
    rows = np.flatnonzero(keep[owner_cluster])
    rows = rows[np.argsort(members[rows], kind="stable")]
    t_cluster, t_core = owner_cluster[rows], ~stack(tables, "border")[rows]
    # One past the end holds no point, so a probe that runs off the
    # table (or finds it empty) reads a miss instead of raising.
    t_point = np.append(members[rows], -1)

    walk = kept[np.argsort(founder[order][kept], kind="stable")]
    uf = UnionFind(m)
    comp = np.arange(m)
    num_edges = seed_blocks = live_pairs = 0
    claim_point = claim_src = np.empty(0, dtype=np.int64)
    for src, s in _seed_blocks([t.seeds for t in tables], source, start,
                               count, walk):
        seed_blocks += 1
        if s.max() > np.iinfo(np.int64).max // len(s):
            raise OverflowError(f"seed {int(s.max())} is no point index")
        key = s * len(s) + np.arange(len(s))
        key.sort()
        s, position = np.divmod(key, len(s))
        src = src[position]
        pos = np.searchsorted(t_point[:-1], s)
        owned = t_point[pos] == s
        hit = pos[owned]
        core = t_core[hit]
        a, b = comp[src[owned][core]], comp[t_cluster[hit][core]]
        num_edges += len(a)
        live = a != b
        pairs = np.unique(a[live] * m + b[live])
        live_pairs += len(pairs)
        for x, y in zip((pairs // m).tolist(), (pairs % m).tolist()):
            uf.union(x, y)
        if len(pairs):
            comp = np.array(uf.parent)
            while not np.array_equal(comp, comp[comp]):  # pointer jumping
                comp = comp[comp]
        # np.unique keeps first occurrences and earlier blocks come
        # first in the concatenation: the founder-order tie-break.
        claim_point, first = np.unique(
            np.concatenate([claim_point, s[~owned]]), return_index=True
        )
        claim_src = np.concatenate([claim_src, src[~owned]])[first]
    if stats is not None:
        stats.update(seed_blocks=seed_blocks, live_pairs=live_pairs)
    orphans = stack(tables, "orphans")
    if len(orphans):
        point, nbr = orphans[:, 0], orphans[:, 1]
        pos = np.searchsorted(t_point[:-1], nbr)
        hit = np.flatnonzero(t_point[pos] == nbr)
        hit = hit[t_core[pos[hit]]]
        # The lowest founder-walk rank per point is the tie-break again.
        rank = np.empty(m, dtype=np.int64)
        rank[walk] = np.arange(len(walk))
        point = np.concatenate([claim_point, point[hit]])
        src = np.concatenate([claim_src, t_cluster[pos[hit]]])
        by_rank = np.lexsort((rank[src], point))
        first = by_rank[np.diff(point[by_rank], prepend=-1) != 0]
        claim_point, claim_src = point[first], src[first]

    # Gids number the components by first appearance in that order.
    _, first, gid = np.unique(comp[kept], return_index=True,
                              return_inverse=True)
    gid = np.argsort(np.argsort(first))[gid]
    gid_at = np.full(m, -1, dtype=np.int64)
    gid_at[kept] = gid
    by_gid = np.argsort(gid, kind="stable")
    groups = [g.tolist() for g in np.split(
        kept[by_gid], np.flatnonzero(np.diff(gid[by_gid])) + 1) if len(g)]
    cids = zip(stack(tables, "partition")[order][kept].tolist(),
               stack(tables, "local_id")[order][kept].tolist())
    return EdgeMergePlan(
        gid_of=dict(zip(cids, gid.tolist())),
        claims=dict(zip(claim_point.tolist(), gid_at[claim_src].tolist())),
        num_partials=m,
        num_seeds=int(count.sum()),
        num_edges=num_edges,
        num_merges=len(kept) - len(groups),
        num_global_clusters=len(groups),
        groups=groups,
    )


def merge_union_find(
    partials: ClusterTable | list[PartialCluster], n: int,
    stats: dict[str, int] | None = None,
) -> MergeOutcome:
    """`union_find_merge` over collected partials — a `ClusterTable` or
    a hand-built `PartialCluster` list — labels applied here.  The owner
    table is every member: O(points), which is why only
    ``merge_mode="partials"`` collects full records.  Gids follow the
    clusters as passed; the pipeline founder-sorts them."""
    return merge_partials(partials, n, stats=stats)


def merge_edges(
    digests: ClusterTable | list[ClusterTable],
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> EdgeMergePlan:
    """`union_find_merge` over the tasks' projections
    (`ClusterTable.project`), or one concatenation of them
    (`digest_from_partials`), in founder (canonical) order: O(edges +
    partials), no point lists.  The owner table is the boundary members.
    By eps-symmetry a member another partition reaches as a SEED is on
    the boundary, and so is each core that claims an orphan, so the plan
    labels byte-identically to `merge_union_find`'s."""
    if isinstance(digests, ClusterTable):
        digests = [digests]
    return union_find_merge(digests, min_cluster_size, stats)


def member_labels(
    partials: ClusterTable | list[PartialCluster],
    gid_of: dict[tuple[int, int], int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`apply_gid_map`'s per-partition half, what an `ApplyGidMap` task
    ships: the member ids of the clusters ``gid_of`` keeps, back to
    back, then each such cluster's gid and member count — 8 B a point;
    the driver repeats the gids."""
    t = as_table(partials)
    gids = np.fromiter(
        map(gid_of.get, zip(t.partition.tolist(), t.local_id.tolist()),
            repeat(-1)),
        np.int64, len(t))
    kept = gids >= 0
    counts = np.diff(t.member_ptr)
    return t.members[np.repeat(kept, counts)], gids[kept], counts[kept]


def apply_gid_map(partials: ClusterTable | list[PartialCluster],
                  plan: EdgeMergePlan, n: int) -> np.ndarray:
    """The label application: members take their cluster's gid, the
    plan's claimed border seeds theirs, everything else is noise.
    ``merge_mode="edges"`` runs the `member_labels` half executor-side
    and calls this for the claims only.
    """
    labels = np.full(n, NOISE, dtype=np.int64)
    ids, gids, sizes = member_labels(partials, plan.gid_of)
    labels[ids] = np.repeat(gids, sizes)
    claims = plan.claims
    labels[np.fromiter(claims, np.int64, len(claims))] = np.fromiter(
        claims.values(), np.int64, len(claims)
    )
    return labels


def _member_owner_map(partials: list[PartialCluster]) -> dict[int, int]:
    """`merge_paper`'s owner table: point index -> index (into
    ``partials``) of the cluster owning it as a regular element.
    Ownership is unique because each executor assigns its own points to
    at most one partial cluster."""
    owner: dict[int, int] = {}
    for ci, c in enumerate(partials):
        for m in c.members:
            owner[m] = ci
    return owner


def _links_clusters(partials: list[PartialCluster], oi: int, s: int) -> bool:
    """`merge_paper`'s edge test: a seed ``s`` owned by cluster ``oi``
    links the two clusters only if ``s`` is a *core* member there —
    density-connectivity never passes through a border point (two
    clusters may legitimately share one)."""
    return partials[oi].is_core_member(s)


def merge_paper(partials: list[PartialCluster], n: int) -> MergeOutcome:
    """Literal Algorithm 4: one pass, no transitive re-digging.

    For each cluster still ``unfinished``: identify its seeds, find each
    seed's master cluster (the one holding it as a regular element),
    absorb the master, mark the master ``finished``; finally mark the
    current cluster ``finished``.  Absorbed masters are dropped from the
    output.  Chains (a master whose own seeds point further) are NOT
    followed — the documented limitation.
    """
    for c in partials:
        c.status = "unfinished"
    # Python ints once, not a numpy scalar per step of the walks below.
    seeds = [c.seeds.tolist() for c in partials]
    owner = _member_owner_map(partials)
    absorbed: set[int] = set()
    _absorber: dict[int, int] = {}  # absorbed partial -> its absorbing cluster
    # group representative -> partial indices merged into it
    merged_into: dict[int, list[int]] = {ci: [ci] for ci in range(len(partials))}
    merges = 0
    for ci, c in enumerate(partials):
        if ci in absorbed or c.status != "unfinished":  # Algorithm 4 line 2
            continue
        for s in seeds[ci]:  # lines 3–8: only the *current* cluster's own
            # seeds are dug; seeds of absorbed masters are never followed
            # (the single-pass limitation).
            oi = owner.get(s)
            if oi is None or not _links_clusters(partials, oi, s):
                continue
            # Figure 4b semantics: after a merge, the master's elements are
            # findable in the merged cluster — follow the redirect.
            while oi in absorbed and oi != ci:
                oi = _absorber[oi]
            if oi == ci:
                continue
            group = merged_into.pop(oi)
            merged_into[ci].extend(group)
            for pi in group:
                absorbed.add(pi)
                _absorber[pi] = ci
                partials[pi].status = "finished"  # line 7
            merges += 1
        c.status = "finished"  # line 9

    labels = np.full(n, NOISE, dtype=np.int64)
    groups: list[list[int]] = []
    gid = 0
    gid_of: dict[int, int] = {}
    for ci in sorted(merged_into):
        groups.append(merged_into[ci])
        gid_of[ci] = gid
        for pi in merged_into[ci]:
            for m in partials[pi].members:
                labels[m] = gid
        gid += 1
    # Border seeds, as in union-find merging.
    for ci, group in zip(sorted(merged_into), groups):
        for pi in group:
            for s in seeds[pi]:
                if s not in owner and labels[s] == NOISE:
                    labels[s] = gid_of[ci]
    # The single-pass limitation, quantified: a core-seed edge between two
    # partials that ended up in different global groups is a merge the
    # pass failed to perform; count the distinct points witnessing one.
    partial_gid: dict[int, int] = {}
    for ci, group in zip(sorted(merged_into), groups):
        for pi in group:
            partial_gid[pi] = gid_of[ci]
    overlapping: set[int] = set()
    for pi in range(len(partials)):
        for s in seeds[pi]:
            oi = owner.get(s)
            if (
                oi is not None
                and _links_clusters(partials, oi, s)
                and partial_gid[oi] != partial_gid[pi]
            ):
                overlapping.add(s)
    return MergeOutcome(
        labels=labels,
        num_merges=merges,
        num_global_clusters=gid,
        overlapping_points=len(overlapping),
        groups=groups,
    )


def merge_partials(
    partials: ClusterTable | list[PartialCluster],
    n: int,
    strategy: str = "union_find",
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> MergeOutcome:
    """Merge partial clusters — a `ClusterTable` or a hand-built
    `PartialCluster` list — into global labels.

    ``min_cluster_size`` filters tiny *partial* clusters before merging —
    the paper's r1m trick ("we filter out those partial clusters whose
    size is too small", Section V-E).  ``MergeOutcome.groups`` always
    indexes the clusters *as passed in*, filtered or not.  ``stats`` is
    `union_find_merge`'s (the paper strategy leaves it empty).
    A table's orphan rows come with up-pointing seeds only — never for
    the paper strategy, Algorithm 4 over full seeds.
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {MERGE_STRATEGIES}, got {strategy!r}"
        )
    if strategy == "union_find":
        table = as_table(partials)
        plan = union_find_merge(table, min_cluster_size, stats)
        return MergeOutcome(apply_gid_map(table, plan, n), plan.num_merges,
                            plan.num_global_clusters, groups=plan.groups)
    if isinstance(partials, ClusterTable) and len(partials.orphans):
        raise ValueError("the paper strategy merges full seeds, not orphan rows")
    partials = list(partials)
    kept = [ci for ci, c in enumerate(partials) if c.size >= min_cluster_size]
    outcome = merge_paper([partials[ci] for ci in kept], n)
    # The pass numbered the filtered list; translate each group back to
    # indices into the caller's original list.
    outcome.groups = [[kept[ci] for ci in g] for g in outcome.groups]
    return outcome
