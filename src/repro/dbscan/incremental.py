"""Incremental DBSCAN: maintain a clustering under point insertions.

The paper's related work includes MR-IDBSCAN [Noticewala & Vaghela
2014], an incremental MapReduce DBSCAN.  This module implements the
underlying incremental algorithm [Ester et al. 1998]: when a point is
inserted, only the neighbourhood of the insertion can change state —

- the new point's eps-neighbours gain one neighbour each, so some
  previously non-core points may *become* core ("promoted");
- the new point joins a cluster / starts one / becomes noise depending
  on the cores now in reach;
- clusters previously separated only by a density gap at the insertion
  site may need to merge.

The implementation recomputes exactly the affected region (the new
point's eps-neighbourhood and the promoted points' neighbourhoods),
never the whole dataset, and is property-tested to agree with batch
DBSCAN after every insertion sequence.

The spatial index here is a small grid (cell size = eps) rather than
the kd-tree, because the kd-tree is static and insertion-heavy
workloads need cheap updates — the same trade a production system
would make.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .core import NOISE


class GridIndex:
    """Uniform grid with cell edge = eps: a point's eps-ball is covered
    by its own cell plus the 3^d neighbouring cells."""

    def __init__(self, d: int, eps: float):
        if not eps > 0:  # NaN too
            raise ValueError(f"eps must be positive, got {eps}")
        self.d = d
        self.eps = eps
        self._cells: dict[tuple[int, ...], list[int]] = defaultdict(list)
        self._points: list[np.ndarray] = []
        self._active = 0

    def _cell_of(self, x: np.ndarray) -> tuple[int, ...]:
        return tuple(int(np.floor(v / self.eps)) for v in x)

    def add(self, x: np.ndarray) -> int:
        """Add one element."""
        idx = len(self._points)
        self._points.append(np.asarray(x, dtype=np.float64))
        self._cells[self._cell_of(x)].append(idx)
        self._active += 1
        return idx

    def remove(self, idx: int) -> None:
        """Remove a stored point."""
        x = self._points[idx]
        if x is None:
            raise KeyError(f"point {idx} already removed")
        key = self._cell_of(x)
        cell = self._cells[key]
        cell.remove(idx)
        if not cell:
            # Drop emptied cells so the occupied-cell count (which the
            # neighbour-scan strategy choice reads) stays truthful.
            del self._cells[key]
        self._points[idx] = None  # tombstone keeps indices stable
        self._active -= 1

    def point(self, idx: int) -> np.ndarray:
        """Stored coordinates of a point."""
        x = self._points[idx]
        if x is None:
            raise KeyError(f"point {idx} was removed")
        return x

    @property
    def active(self) -> int:
        """Number of stored points that have not been removed."""
        return self._active

    @property
    def num_cells(self) -> int:
        """Number of occupied grid cells."""
        return len(self._cells)

    def _candidates_offsets(self, base: tuple[int, ...]):
        """Candidate indices by enumerating all 3^d neighbouring offsets."""
        for offset in np.ndindex(*(3,) * self.d):
            cell = tuple(b + o - 1 for b, o in zip(base, offset))
            yield from self._cells.get(cell, ())

    def _candidates_scan(self, base: tuple[int, ...]):
        """Candidate indices by scanning the occupied cells instead.

        Equivalent to `_candidates_offsets` up to ordering: a cell is
        Chebyshev-adjacent to ``base`` iff every coordinate differs by at
        most 1.  Preferable whenever the dict holds fewer cells than the
        3^d offset box (59 049 tuples per query at the skew generator's
        default d=10).
        """
        for cell, idxs in self._cells.items():
            if all(abs(c - b) <= 1 for c, b in zip(cell, base)):
                yield from idxs

    def neighbors(self, x: np.ndarray) -> list[int]:
        """Indices of stored points within eps of x (inclusive)."""
        x = np.asarray(x, dtype=np.float64)
        base = self._cell_of(x)
        eps2 = self.eps * self.eps
        if 3 ** self.d <= len(self._cells):
            candidates = self._candidates_offsets(base)
        else:
            candidates = self._candidates_scan(base)
        out: list[int] = []
        for idx in candidates:
            diff = self._points[idx] - x
            if float(diff @ diff) <= eps2:
                out.append(idx)
        return sorted(out)

    def __len__(self) -> int:
        return self._active


class IncrementalDBSCAN:
    """Insertion-only incremental DBSCAN with the same label semantics as
    `dbscan_sequential` (labels >= 0 clusters, -1 noise)."""

    def __init__(self, eps: float, minpts: int, d: int):
        if minpts < 1:
            raise ValueError(f"minpts must be >= 1, got {minpts}")
        self.eps = eps
        self.minpts = minpts
        self.index = GridIndex(d, eps)
        self._neighbor_count: list[int] = []
        self._labels: list[int] = []
        self._next_cluster = 0
        # Union-find over cluster ids: insertions can merge clusters.
        self._cluster_parent: dict[int, int] = {}
        self._deleted: set[int] = set()

    # -- cluster-id union-find ------------------------------------------------
    def _find(self, cid: int) -> int:
        root = cid
        while self._cluster_parent[root] != root:
            root = self._cluster_parent[root]
        while self._cluster_parent[cid] != root:
            self._cluster_parent[cid], cid = root, self._cluster_parent[cid]
        return root

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._cluster_parent[rb] = ra
        return ra

    def _new_cluster(self) -> int:
        cid = self._next_cluster
        self._next_cluster += 1
        self._cluster_parent[cid] = cid
        return cid

    # -- queries ----------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points."""
        return len(self._labels)

    def is_core(self, idx: int) -> bool:
        """True iff the point currently has >= minpts neighbours."""
        return self._neighbor_count[idx] >= self.minpts

    @property
    def labels(self) -> np.ndarray:
        """Current labels, canonicalised by first appearance.  Deleted
        points report NOISE; use `active_mask` to exclude them."""
        raw = [
            self._find(lab) if lab != NOISE and i not in self._deleted else NOISE
            for i, lab in enumerate(self._labels)
        ]
        remap: dict[int, int] = {}
        out = np.empty(len(raw), dtype=np.int64)
        for i, lab in enumerate(raw):
            if lab == NOISE:
                out[i] = NOISE
            else:
                out[i] = remap.setdefault(lab, len(remap))
        return out

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask over insertion indices: True if not deleted."""
        mask = np.ones(self.n, dtype=bool)
        for i in self._deleted:
            mask[i] = False
        return mask

    @property
    def num_clusters(self) -> int:
        """Number of distinct clusters."""
        labels = self.labels
        return int(np.unique(labels[labels >= 0]).size)

    # -- insertion ---------------------------------------------------------------
    def insert(self, x: np.ndarray) -> int:
        """Insert one point; returns its index.  Updates only the affected
        neighbourhood (Ester et al. 1998)."""
        x = np.asarray(x, dtype=np.float64)
        neigh = self.index.neighbors(x)  # existing points within eps
        idx = self.index.add(x)
        self._labels.append(NOISE)
        # Neighbour counts include the point itself, matching the kd-tree
        # convention used everywhere else in this repo.
        self._neighbor_count.append(len(neigh) + 1)

        promoted: list[int] = []
        for j in neigh:
            self._neighbor_count[j] += 1
            if self._neighbor_count[j] == self.minpts:
                promoted.append(j)  # j just became a core point

        # Promotions first: they can knit whole neighbourhoods together,
        # and they guarantee every core point is labelled before x picks
        # a cluster.
        for j in promoted:
            self._expand_promoted(j)

        # Core points now reachable from x (all labelled by now).
        core_neighbors = [j for j in neigh if self.is_core(j)]

        if self.is_core(idx):
            if self._labels[idx] == NOISE:  # promotions may have claimed x
                self._labels[idx] = self._new_cluster()
            cid = self._find(self._labels[idx])
            for j in core_neighbors:
                cid = self._absorb(cid, j)
            self._labels[idx] = cid
            # Non-core neighbours of a new core become border points.
            for j in neigh:
                if self._labels[j] == NOISE:
                    self._labels[j] = cid
        elif self._labels[idx] == NOISE and core_neighbors:
            # Border point: join (the merged cluster of) one reachable core.
            self._labels[idx] = self._find(self._labels[core_neighbors[0]])
        # else: noise (stays NOISE) or already claimed as border
        return idx

    def insert_all(self, points: np.ndarray) -> list[int]:
        """Insert many points; returns their indices."""
        return [self.insert(p) for p in np.asarray(points, dtype=np.float64)]

    def _absorb(self, cid: int, core_j: int) -> int:
        """Union cid with core_j's cluster (creating one if j was noise)."""
        if self._labels[core_j] == NOISE:
            self._labels[core_j] = self._find(cid)
            return self._find(cid)
        return self._union(cid, self._labels[core_j])

    def _expand_promoted(self, j: int) -> None:
        """Point j just turned core: everything in its eps-ball is now
        density-reachable from it — join them into one cluster."""
        if self._labels[j] == NOISE:
            self._labels[j] = self._new_cluster()
        cid = self._find(self._labels[j])
        for k in self.index.neighbors(self.index.point(j)):
            if k == j:
                continue
            if self.is_core(k):
                cid = self._absorb(cid, k)
            elif self._labels[k] == NOISE:
                self._labels[k] = cid
        self._labels[j] = cid

    # -- deletion -----------------------------------------------------------------
    def delete(self, idx: int) -> None:
        """Remove a point; re-cluster exactly the affected clusters.

        Deletion can demote cores (neighbour counts only drop) and hence
        *split* a cluster.  Splits cannot be detected locally, so every
        cluster touching the deletion neighbourhood is re-clustered from
        its own points — never the rest of the dataset [Ester et al.
        1998's "affected region", realised at cluster granularity].
        """
        if idx in self._deleted or not 0 <= idx < self.n:
            raise KeyError(f"point {idx} already deleted or unknown")
        x = self.index.point(idx)
        neigh = [j for j in self.index.neighbors(x) if j != idx]
        self.index.remove(idx)
        self._deleted.add(idx)

        demoted: list[int] = []
        for j in neigh:
            self._neighbor_count[j] -= 1
            if self._neighbor_count[j] == self.minpts - 1:
                demoted.append(j)  # j just lost core status

        # Clusters whose structure might have changed.
        affected: set[int] = set()
        if self._labels[idx] != NOISE:
            affected.add(self._find(self._labels[idx]))
        self._labels[idx] = NOISE
        for j in neigh + demoted:
            if self._labels[j] != NOISE:
                affected.add(self._find(self._labels[j]))
        for j in demoted:
            for k in self.index.neighbors(self.index.point(j)):
                if self._labels[k] != NOISE:
                    affected.add(self._find(self._labels[k]))
        if not affected:
            return

        # Gather the affected clusters' members and wipe their labels.
        region = [
            i for i in range(self.n)
            if i not in self._deleted
            and self._labels[i] != NOISE
            and self._find(self._labels[i]) in affected
        ]
        region_set = set(region)
        for i in region:
            self._labels[i] = NOISE

        # Re-cluster the region: BFS over its core points (core status is
        # global and already up to date).
        for s in region:
            if self._labels[s] != NOISE or not self.is_core(s):
                continue
            cid = self._new_cluster()
            self._labels[s] = cid
            queue = [s]
            while queue:
                p = queue.pop()
                for q in self.index.neighbors(self.index.point(p)):
                    if q == p or q not in region_set:
                        continue
                    if self._labels[q] == NOISE:
                        self._labels[q] = cid
                        if self.is_core(q):
                            queue.append(q)
        # Leftover non-core region points may still be border points of an
        # *unaffected* cluster via a core outside the region.
        for s in region:
            if self._labels[s] != NOISE:
                continue
            for q in self.index.neighbors(self.index.point(s)):
                if q != s and self.is_core(q) and self._labels[q] != NOISE:
                    self._labels[s] = self._find(self._labels[q])
                    break
