"""Driver-side merging of partial clusters via SEEDs (Algorithm 4).

A SEED in partial cluster ``Ci`` that is a *regular* element of partial
cluster ``Cj`` proves the two pieces belong to one global cluster
(Figure 4: C[0]'s seed 3000 is a regular element of C[5], so they
merge).

- ``"union_find"`` (default): connected components of the
  seed-containment graph — arbitrary merge chains (A→B→C) included.
  One implementation, `union_find_merge`, joins seeds against an *owner
  table* (point, owning cluster, core there?) a point-sorted block at a
  time and unions only the pairs of clusters not already in one
  component; `merge_union_find` and `merge_edges` only build that
  table, from collected member lists or from digests.
- ``"paper"``: a literal single pass of Algorithm 4 — for each
  unfinished cluster, dig its seeds, absorb each master, mark statuses.
  Seeds of absorbed masters are *not* re-followed, so long chains can
  stay split; Ablation B exhibits exactly that divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import NOISE
from .partial import PartialCluster, PartitionDigest, member_ids

MERGE_STRATEGIES = ("union_find", "paper")

#: How partial clusters reach the driver (DESIGN.md §11):
#:
#: - ``"partials"``: executors ship whole member/seed point lists; the
#:   owner table is every member — O(points) collect + merge — and the
#:   driver applies the labels (`apply_gid_map`).
#: - ``"edges"``: executors ship `PartitionDigest`s (summaries, seed
#:   half-edges, boundary exports); the owner table is the exports —
#:   O(edges + partials) — and labels are applied by a second
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
    `union_find_merge`: the collected list for `merge_union_find`,
    canonical (founder-sorted) order for `merge_edges`.
    """

    gid_of: dict[tuple[int, int], int]
    claims: dict[int, int]
    num_partials: int
    num_seeds: int
    num_edges: int
    num_merges: int
    num_global_clusters: int
    groups: list[list[int]] = field(default_factory=list)


def _seed_blocks(seeds, walk: np.ndarray):
    """The clusters' seeds along ``walk``, `SEED_BLOCK_ROWS` at a time,
    each block a list of ``(cluster, seed slice)`` pairs.  A cluster's
    seeds are taken as an int64 array once (``np.asarray`` — any int
    sequence will do) and sliced, never boxed."""
    parts, room = [], SEED_BLOCK_ROWS
    for ci in walk.tolist():
        rest = np.asarray(seeds[ci], dtype=np.int64)
        while len(rest) >= room:
            yield parts + [(ci, rest[:room])]
            rest, parts, room = rest[room:], [], SEED_BLOCK_ROWS
        if len(rest):
            parts.append((ci, rest))
            room -= len(rest)
    if parts:
        yield parts


def union_find_merge(
    clusters: list[tuple[tuple[int, int], int, int, np.ndarray]],
    owner_point: np.ndarray,
    owner_cluster: np.ndarray,
    owner_core: np.ndarray,
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> EdgeMergePlan:
    """Connected components over core seed⋈owner hits — the driver merge.

    ``clusters`` are ``(cid, founder, size, seeds)`` rows in gid-numbering
    order; the owner table is three parallel arrays, ``owner_cluster``
    indexing ``clusters``.  Clusters under ``min_cluster_size`` are
    dropped from both.  A seed whose point has a *core* row links the
    two clusters (a border row is a legal overlap, not an edge); a seed
    with no row is a cross-partition border point, claimed by the first
    cluster to reach it in ascending founder order — never arrival
    order, which varies across backends.

    Seeds are joined against the point-sorted table `SEED_BLOCK_ROWS` at
    a time.  A block is first sorted on ``point * rows + position``: the
    probe then walks the table with ascending needles, and equal points
    stay in founder-walk order, so "first occurrence" in the claims fold
    is still the lowest founder.  Both ends of every core hit are mapped
    through ``comp``, each cluster's current component, and only the
    distinct pairs joining two components reach the `UnionFind` (of the
    paper-default benchmark's 68 277 distinct pairs, 1 973 merge
    anything).  ``num_edges`` counts every core hit, *before* that
    filter.  No Python loop scales with seeds or table rows.

    ``stats``, when given, receives ``seed_blocks`` (blocks joined) and
    ``live_pairs`` (pairs that survived the component filter).
    """
    m = len(clusters)
    cids, founders, sizes, seeds = zip(*clusters) if m else ((), (), (), ())
    keep = np.array(sizes, dtype=np.int64) >= min_cluster_size
    kept = np.flatnonzero(keep)
    rows = np.flatnonzero(keep[owner_cluster])
    rows = rows[np.argsort(owner_point[rows], kind="stable")]
    t_cluster, t_core = owner_cluster[rows], owner_core[rows]
    # One past the end holds no point, so a probe that runs off the
    # table (or finds it empty) reads a miss instead of raising.
    t_point = np.append(owner_point[rows], -1)

    walk = kept[np.argsort(np.array(founders, dtype=np.int64)[kept],
                           kind="stable")]
    uf = UnionFind(m)
    comp = np.arange(m)
    num_edges = seed_blocks = live_pairs = 0
    claim_point = claim_src = np.empty(0, dtype=np.int64)
    for parts in _seed_blocks(seeds, walk):
        seed_blocks += 1
        sources, slices = zip(*parts)
        s = np.concatenate(slices)
        src = np.repeat(sources, list(map(len, slices)))
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

    # Gids number the components by first appearance in the order passed.
    gid_at = np.full(m, -1, dtype=np.int64)
    gid_of: dict[tuple[int, int], int] = {}
    root_to_gid: dict[int, int] = {}
    groups: list[list[int]] = []
    for ci in kept.tolist():
        gid = root_to_gid.setdefault(uf.find(ci), len(groups))
        if gid == len(groups):
            groups.append([])
        groups[gid].append(ci)
        gid_of[cids[ci]] = gid_at[ci] = gid
    return EdgeMergePlan(
        gid_of=gid_of,
        claims=dict(zip(claim_point.tolist(), gid_at[claim_src].tolist())),
        num_partials=m,
        num_seeds=sum(map(len, seeds)),
        num_edges=num_edges,
        num_merges=len(kept) - len(groups),
        num_global_clusters=len(groups),
        groups=groups,
    )


def merge_union_find(
    partials: list[PartialCluster], n: int,
    stats: dict[str, int] | None = None,
) -> MergeOutcome:
    """`union_find_merge` over collected partials, labels applied here.

    The owner table is every member, core unless in ``borders`` —
    O(points), which is why only ``merge_mode="partials"`` builds it.
    Gids follow the list as passed; the pipeline founder-sorts it.
    """
    point = member_ids(partials)
    borders = np.fromiter(
        chain.from_iterable(c.borders for c in partials), np.int64
    )
    plan = union_find_merge(
        [(c.cid, c.members[0] if c.members else i, c.size, c.seeds)
         for i, c in enumerate(partials)],
        owner_point=point,
        owner_cluster=np.repeat(
            np.arange(len(partials)), [len(c.members) for c in partials]
        ),
        owner_core=~np.isin(point, borders),
        stats=stats,
    )
    return MergeOutcome(
        apply_gid_map(partials, plan, n), plan.num_merges,
        plan.num_global_clusters, groups=plan.groups,
    )


def merge_edges(
    digests: list[PartitionDigest],
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> EdgeMergePlan:
    """`union_find_merge` over digests: O(edges + partials), no point
    lists.

    Clusters are the flattened summaries in founder-sorted (canonical)
    order and the owner table is the boundary exports.  By eps-symmetry
    a member some other partition reaches as a SEED is always exported,
    so the join finds the rows it would find among all members and the
    plan labels byte-identically to `merge_union_find`'s.
    """
    clusters = sorted(
        ((summ.cid, summ.founder, summ.size, seed_list) for d in digests
         for summ, seed_list in zip(d.summaries, d.seeds)),
        key=lambda row: row[1],
    )
    index_of = {row[0]: i for i, row in enumerate(clusters)}
    table = np.array(
        [(point, index_of[d.partition, local_id], is_core)
         for d in digests for point, local_id, is_core in d.exports],
        dtype=np.int64,
    ).reshape(-1, 3)
    return union_find_merge(
        clusters, table[:, 0], table[:, 1], table[:, 2].astype(bool),
        min_cluster_size, stats,
    )


def member_labels(
    partials: list[PartialCluster], gid_of: dict[tuple[int, int], int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`apply_gid_map`'s per-partition half, what an `ApplyGidMap` task
    ships: the member ids of the clusters ``gid_of`` keeps, back to
    back, then each such cluster's gid and member count — 8 B a point;
    the driver repeats the gids."""
    kept = [c for c in partials if c.cid in gid_of]
    return (
        member_ids(kept),
        np.array([gid_of[c.cid] for c in kept], np.int64),
        np.array([len(c.members) for c in kept], np.int64),
    )


def apply_gid_map(
    partials: list[PartialCluster],
    plan: EdgeMergePlan,
    n: int,
) -> np.ndarray:
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
    partials: list[PartialCluster],
    n: int,
    strategy: str = "union_find",
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
) -> MergeOutcome:
    """Merge partial clusters into global labels.

    ``min_cluster_size`` filters tiny *partial* clusters before merging —
    the paper's r1m trick ("we filter out those partial clusters whose
    size is too small", Section V-E).  ``MergeOutcome.groups`` always
    indexes the ``partials`` list *as passed in*, filtered or not.
    ``stats`` is `union_find_merge`'s (the paper strategy leaves it
    empty).
    """
    if strategy not in MERGE_STRATEGIES:
        raise ValueError(
            f"strategy must be one of {MERGE_STRATEGIES}, got {strategy!r}"
        )
    kept = [ci for ci, c in enumerate(partials) if c.size >= min_cluster_size]
    sub = [partials[ci] for ci in kept]
    outcome = (merge_union_find(sub, n, stats) if strategy == "union_find"
               else merge_paper(sub, n))
    # The strategies numbered the filtered list; translate each group
    # back to indices into the caller's original list.
    outcome.groups = [[kept[ci] for ci in g] for g in outcome.groups]
    return outcome
