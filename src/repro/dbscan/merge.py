"""Driver-side merging of partial clusters via SEEDs (Algorithm 4).

A SEED in partial cluster ``Ci`` that is a *regular* element of partial
cluster ``Cj`` proves the two pieces belong to one global cluster
(Figure 4: C[0]'s seed 3000 is a regular element of C[5], so they
merge).

- ``"union_find"`` (default): connected components of the
  seed-containment graph — arbitrary merge chains (A→B→C) included.
  One implementation, `union_find_merge`, joins a `ClusterTable`'s
  seeds against its member rows — the *owner table* (point, owning
  cluster, core there?) — a block at a time and hooks only the pairs
  of clusters not already in one component; `merge_partials` and
  `merge_edges` differ only in the table they pass — full records
  (every member) or projections (boundary members) — and so in the
  probe: a per-point code array, or the point-sorted table.
- ``"paper"``: a literal single pass of Algorithm 4 — for each
  unfinished cluster, dig its seeds, absorb each master, mark statuses.
  Seeds of absorbed masters are *not* re-followed, so long chains can
  stay split; Ablation B exhibits exactly that divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import NOISE
from .partial import ClusterTable, PartialCluster, as_table, heads, stack

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

    ``partition``, ``local_id`` and ``gid`` are int columns, one row per
    kept partial cluster: its cid and its global cluster id, in gid
    numbering order (a restored checkpoint's in cid order).  `lookup`
    sorts them for `member_labels`; `apply_gid_map` — in edges mode, the
    second distributed pass — labels the member lists with them.
    ``claims`` resolves the only other points that get a label:
    cross-partition border seeds owned by nobody — a dict of O(boundary)
    size, not O(points).  ``groups`` indexes the clusters as passed to
    `union_find_merge`: the table's rows for `merge_partials`, the
    projections' canonical (founder-sorted) order for `merge_edges`.
    """

    partition: np.ndarray
    local_id: np.ndarray
    gid: np.ndarray
    claims: dict[int, int]
    num_partials: int
    num_seeds: int
    num_edges: int
    num_merges: int
    num_global_clusters: int
    groups: list[list[int]] = field(default_factory=list)

    def lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The gid column searchable by cid: ``(key, gid)`` sorted by
        `_cid_keys`, what `member_labels` takes and `ApplyGidMap`
        broadcasts — O(partials), built once per label application."""
        return _sorted_codes(_cid_keys(self.partition, self.local_id),
                             self.gid)


def _cid_keys(partition: np.ndarray, local_id: np.ndarray) -> np.ndarray:
    """One int64 key per cid ``(partition, local_id)``, ordered as the
    pairs are: a task numbers its clusters from 0, far below 2³²."""
    return partition.astype(np.int64) << 32 | local_id


def _sorted_codes(key: np.ndarray, code: np.ndarray):
    """``(key, code)`` sorted by key, stably, each with one entry past
    the end (key -1, code -1), so that a `_search` that runs off the
    table (or finds it empty) reads a miss instead of raising."""
    by_key = np.argsort(key, kind="stable")
    return np.append(key[by_key], -1), np.append(code[by_key], -1)


def _search(table: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The code of each non-negative key ``x`` in a `_sorted_codes`
    table (its first row's), or -1 where no row holds it."""
    key, code = table
    pos = np.searchsorted(key[:-1], x)
    return np.where(key[pos] == x, code[pos], -1)


def _seed_blocks(seeds: list[np.ndarray], source: np.ndarray,
                 start: np.ndarray, count: np.ndarray, walk: np.ndarray):
    """The seeds of the clusters ``walk``, in that order, as
    ``(cluster, seed)`` array pairs `SEED_BLOCK_ROWS` long (the last
    shorter).  Cluster ``k``'s seeds are
    ``seeds[source[k]][start[k]:start[k] + count[k]]``, read in place a
    block at a time, so no temporary is O(seeds)."""
    counts = count[walk]
    ends = np.cumsum(counts)
    first = ends - counts  # each cluster's first position in the walk
    shift = start[walk] - first  # ... and in its seed column
    in_place = len(seeds) == 1 and not shift.any()
    dtype = np.result_type(*seeds)
    total = int(ends[-1]) if len(ends) else 0
    for a in range(0, total, SEED_BLOCK_ROWS):
        b = min(a + SEED_BLOCK_ROWS, total)
        # The clusters the block spans, each cut to its part inside it.
        k = slice(np.searchsorted(ends, a, side="right"),
                  np.searchsorted(ends, b - 1, side="right") + 1)
        cut = np.minimum(ends[k], b) - np.maximum(first[k], a)
        src = np.repeat(walk[k], cut)
        if in_place:  # the walk is the column's own order
            yield src, seeds[0][a:b]
            continue
        at = np.repeat(shift[k], cut) + np.arange(a, b)
        if len(seeds) == 1:
            yield src, seeds[0][at]
            continue
        of = source[src]
        s = np.empty(b - a, dtype=dtype)
        for i in np.unique(of).tolist():
            hit = of == i
            s[hit] = seeds[i][at[hit]]
        yield src, s


def _refuse_foreign(ids: np.ndarray, n: int | None) -> None:
    """A seed or orphan id must be a point: in ``[0, n)``, or at least
    non-negative when ``n`` is unknown (edges mode)."""
    lo, hi = int(ids.min(initial=0)), int(ids.max(initial=0))
    if lo < 0 or (n is not None and hi >= n):
        bound = "" if n is None else f" in [0, {n})"
        raise ValueError(f"id {lo if lo < 0 else hi} is no point{bound}")


def _point_codes(point: np.ndarray, code: np.ndarray, n: int):
    """Partials mode's probe: one code per point, ``code`` of the
    point's first owner row or -1 with none — 8 B a point (16 B while
    built), which only a caller already holding O(points) may spend.
    numpy's fancy indexing casts an int32 index array on the fly, 1.3-2x
    slower than intp even counting a cast up front: the owner rows are
    widened once, and the probe is a ``take(mode="clip")``, as fast as
    intp (every id is a point by then: `_refuse_foreign`)."""
    point = point.astype(np.intp, copy=False)
    rows = np.arange(len(point))
    row = np.full(n, len(point), dtype=np.int64)
    row[point] = rows
    # A point held by two rows: the first row wins, whichever write won.
    lost = np.flatnonzero(row[point] != rows)
    np.minimum.at(row, point[lost], lost)
    return partial(np.append(code, -1)[row].take, mode="clip")


def _table_probe(point: np.ndarray, code: np.ndarray):
    """Edges mode's probe: a binary search in the point-sorted owner
    table, O(rows) — nothing sized by the id range."""
    return partial(_search, _sorted_codes(point, code))


def _hook(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of roots ``a[i]`` and ``b[i]``: each pair
    hooks its larger root under its smaller, ``comp`` is pointer-jumped
    flat, and the pairs still spanning two components go again."""
    while len(a):
        np.minimum.at(comp, np.maximum(a, b), np.minimum(a, b))
        up = comp[comp]
        while not np.array_equal(up, comp):
            comp, up = up, up[up]
        a, b = comp[a], comp[b]
        live = a != b
        a, b = a[live], b[live]
    return comp


def union_find_merge(
    tables: ClusterTable | list[ClusterTable],
    min_cluster_size: int = 0,
    stats: dict[str, int] | None = None,
    _n: int | None = None,
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
    A seed or orphan id outside the points raises ``ValueError``.

    A probe turns each seed into its point's *code*: the cluster of its
    first owner row if that row is core, -2 if it is a border row, -1
    if no row holds it.  With ``_n``, the point count — passed only by
    `merge_partials`, whose caller already holds O(points) — the probe
    is one gather from a per-point code array (`_point_codes`); without
    it, a binary search in the point-sorted table (`_table_probe`), so
    `merge_edges` allocates nothing sized by the points.  Seeds are
    probed `SEED_BLOCK_ROWS` at a time in founder-walk order, unsorted,
    so "first occurrence" in the claims fold is the lowest founder.
    Both ends of every core hit are mapped through ``comp``, each
    cluster's component root, and the distinct pairs joining two
    components are hooked (`_hook`): the paper-default benchmark's
    183 095 seeds over 2 030 partials leave 2 258 such pairs, and
    1 973 of them merge anything.  ``num_edges`` counts every core hit,
    *before* that filter.  No Python loop scales with seeds or table
    rows, and nothing the merge allocates is O(seeds).

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
    rows = np.flatnonzero(keep[owner_cluster])
    point = stack(tables, "members")[rows]
    row_code = np.where(stack(tables, "border")[rows], -2, owner_cluster[rows])
    probe = (_table_probe(point, row_code) if _n is None
             else _point_codes(point, row_code, _n))

    walk = kept[np.argsort(founder[order][kept], kind="stable")]
    comp = np.arange(m)
    num_edges = seed_blocks = live_pairs = 0
    claim_point = claim_src = np.empty(0, dtype=np.int64)
    for src, s in _seed_blocks([t.seeds for t in tables], source, start,
                               count, walk):
        seed_blocks += 1
        _refuse_foreign(s, _n)
        code = probe(s)
        core = code >= 0
        num_edges += int(np.count_nonzero(core))
        # A negative code wraps onto some cluster; ``core`` masks it out.
        a, b = comp[src], comp.take(code, mode="wrap")
        live = core & (a != b)
        if live.any():
            pairs = np.sort(a[live] * m + b[live])  # np.unique hashes: slower
            pairs = pairs[heads(pairs)]
            live_pairs += len(pairs)
            a = pairs // m
            comp = _hook(comp, a, pairs - a * m)
        # np.unique keeps first occurrences and earlier blocks come
        # first in the concatenation: the founder-order tie-break.
        miss = code == -1
        if miss.any():
            claim_point, first = np.unique(
                np.concatenate([claim_point, s[miss]]), return_index=True
            )
            claim_src = np.concatenate([claim_src, src[miss]])[first]
    if stats is not None:
        stats.update(seed_blocks=seed_blocks, live_pairs=live_pairs)
    orphans = stack(tables, "orphans")
    if len(orphans):
        _refuse_foreign(orphans, _n)
        code = probe(orphans[:, 1])
        hit = code >= 0
        # The lowest founder-walk rank per point is the tie-break again.
        rank = np.empty(m, dtype=np.int64)
        rank[walk] = np.arange(len(walk))
        point = np.concatenate([claim_point, orphans[hit, 0]])
        src = np.concatenate([claim_src, code[hit]])
        by_rank = np.lexsort((rank[src], point))
        point, src = point[by_rank], src[by_rank]
        head = heads(point)
        claim_point, claim_src = point[head], src[head]

    # Gids number the components by first appearance in that order.
    _, first, gid = np.unique(comp[kept], return_index=True,
                              return_inverse=True)
    gid = np.argsort(np.argsort(first))[gid]
    gid_at = np.full(m, -1, dtype=np.int64)
    gid_at[kept] = gid
    by_gid = np.argsort(gid, kind="stable")
    groups = [g.tolist() for g in np.split(
        kept[by_gid], np.flatnonzero(np.diff(gid[by_gid])) + 1) if len(g)]
    return EdgeMergePlan(
        partition=stack(tables, "partition")[order][kept],
        local_id=stack(tables, "local_id")[order][kept],
        gid=gid,
        claims=dict(zip(claim_point.tolist(), gid_at[claim_src].tolist())),
        num_partials=m,
        num_seeds=int(count.sum()),
        num_edges=num_edges,
        num_merges=len(kept) - len(groups),
        num_global_clusters=len(groups),
        groups=groups,
    )


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
    labels byte-identically to `merge_partials`'s."""
    if isinstance(digests, ClusterTable):
        digests = [digests]
    return union_find_merge(digests, min_cluster_size, stats)


def member_labels(
    partials: ClusterTable | list[PartialCluster],
    lookup: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`apply_gid_map`'s per-partition half, what an `ApplyGidMap` task
    ships: the member ids of the clusters the plan keeps (its `lookup`
    finds their gids by cid), back to back, then each such cluster's
    gid and member count — one id (4 B below 2³¹ points) a point; the
    driver repeats the gids."""
    t = as_table(partials)
    gids = _search(lookup, _cid_keys(t.partition, t.local_id))
    kept = gids >= 0
    counts = np.diff(t.member_ptr)
    return t.members[np.repeat(kept, counts)], gids[kept], counts[kept]


def write_labels(plan: EdgeMergePlan, n: int, parts) -> np.ndarray:
    """The one label scatter: every point noise, then each
    `member_labels` part's members their cluster's gid, then the plan's
    claimed border seeds theirs."""
    labels = np.full(n, NOISE, dtype=np.int64)
    for ids, gids, sizes in parts:
        # An intp index scatters faster than int32, even counting the cast.
        labels[ids.astype(np.intp, copy=False)] = np.repeat(gids, sizes)
    claims = plan.claims
    labels[np.fromiter(claims, np.int64, len(claims))] = np.fromiter(
        claims.values(), np.int64, len(claims)
    )
    return labels


def apply_gid_map(partials: ClusterTable | list[PartialCluster],
                  plan: EdgeMergePlan, n: int) -> np.ndarray:
    """The label application on the driver: `write_labels` over the
    `member_labels` of ``partials``.  ``merge_mode="edges"`` runs
    `member_labels` executor-side instead (`ApplyGidMap`)."""
    return write_labels(plan, n, [member_labels(partials, plan.lookup())])


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
    `PartialCluster` list — into global labels.  Under ``"union_find"``
    the owner table is every member: O(points), which is why only
    ``merge_mode="partials"`` collects full records, and why its probe
    may be one code per point.  Gids follow the clusters as passed; the
    pipeline founder-sorts them.

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
        plan = union_find_merge(table, min_cluster_size, stats, _n=n)
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
