"""kd-tree (Bentley 1975) built from scratch, as the paper does in Java.

Design: a median-split kd-tree stored in flat arrays (no node objects),
with points permuted so each leaf owns a contiguous block — leaf scans
are then single vectorised numpy operations, which is the idiomatic way
to get HPC-grade throughput out of pure Python (per the repo's
optimization guides: vectorise the hot loop, keep memory contiguous).

Complexities match the paper's Section IV-C citations: O(n log n)
construction, range search between O(log n) and O(n^(1-1/d) + k).

The ``max_neighbors`` query cap implements the paper's
"kd-tree with pruning branches" used for the 1m-point runs
(Section V-E): descent stops once enough neighbours are found, trading
exact neighbourhoods for bounded work.
"""

from __future__ import annotations

import weakref

import numpy as np

#: Pending neighbour hits one query block of the batched kernel may hold
#: before it is assembled into CSR.  Block rows are sized from the running
#: hits-per-query mean, so a block's transient memory is this many narrow
#: chunk entries whatever the density (like `SEED_BLOCK_ROWS` /
#: `HALO_BLOCK_ROWS`: a constant, not an option).
QUERY_BLOCK_HITS = 1 << 19
#: Rows of the first block, before any density has been seen.
FIRST_BLOCK_ROWS = 512
#: Row cap of a sized block: bounds a leaf tile (rows x leaf points) when
#: queries hit nothing, and keeps block-relative query ids 16-bit.
MAX_BLOCK_ROWS = 1 << 13
#: Distance cells (active queries x subtree points) at or under which the
#: batched walk stops descending and answers the whole subtree as one
#: tile: a tile costs ~14 us before its first flop, so it is sized by its
#: work, not by the leaves (DESIGN.md §6 has the sweep).  Not an option.
TILE_CELLS = 1 << 15
#: Half-width of the exact re-check band around eps², in units of
#: ``(d + 4) · u · (max|q - c|² + max|p - c|² + eps²)``; the product
#: form's error stays under 3 such units (DESIGN.md §6).
BAND_ULPS = 8.0
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2
#: Tree -> `KDTree._operand`, per process: off the instance, so neither the
#: pickle nor the sanitizer's hash sees it (a thread race derives it twice).
_OPERANDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _int_dtype(lo: int, hi: int) -> type:
    """int32 where ``[lo, hi]`` fits, else intp."""
    i32 = np.iinfo(np.int32)
    return np.int32 if i32.min <= lo and hi <= i32.max else np.intp


def _check_eps(eps: float) -> None:
    if not eps >= 0:  # also rejects NaN, which every comparison lets through
        raise ValueError(f"eps must be non-negative, got {eps}")


def _exact_hits(block: np.ndarray, q: np.ndarray, eps2: float) -> np.ndarray:
    """``|block[i] - q[i]|² <= eps2``, the arithmetic every returned
    neighbour is decided by (``q`` one point or one per block row)."""
    diff = block - q
    return np.einsum("ij,ij->i", diff, diff) <= eps2


class KDTree:
    """Static kd-tree over an (n, d) float array.

    Parameters
    ----------
    points:
        Data matrix; a float64 copy is made if needed.
    leaf_size:
        Max points per leaf.  Smaller leaves prune harder; larger leaves
        vectorise better.  64 is a good default for d=10.

    Notes
    -----
    Queries return indices into the *original* point order.  Batched
    queries add (d + 2) · 8 B per point in each querying process, never pickled.
    """

    def __init__(self, points: np.ndarray, leaf_size: int = 64):
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D (n, d), got shape {points.shape}")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if not np.isfinite(points).all():
            # One NaN used to cost its own row; as a leaf's centre in the
            # batched kernel it would silently cost the whole leaf.
            raise ValueError("points must be finite (NaN or inf found)")
        self.n, self.d = points.shape
        self.leaf_size = leaf_size
        self.points = points

        # Flat node arrays.  Node i is a leaf iff split_dim[i] < 0; then
        # (start[i], end[i]) is its block in the permuted order.  Internal
        # nodes store the split hyperplane and children ids.
        self._split_dim: list[int] = []
        self._split_val: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []

        self._perm = np.arange(self.n, dtype=np.intp)
        if self.n > 0:
            self._build(0, self.n)
        # Contiguous copies in permuted order make leaf scans cache-friendly.
        self._pts_perm = points[self._perm] if self.n else points
        self.num_nodes = len(self._split_dim)

    # -- construction ---------------------------------------------------------
    def _add_node(self) -> int:
        self._split_dim.append(-1)
        self._split_val.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._start.append(0)
        self._end.append(0)
        return len(self._split_dim) - 1

    def _build(self, start: int, end: int) -> int:
        """Build the subtree over perm[start:end]; returns its node id."""
        node = self._add_node()
        count = end - start
        if count <= self.leaf_size:
            self._start[node] = start
            self._end[node] = end
            return node
        block = self.points[self._perm[start:end]]
        # Split on the widest dimension — better balance than cycling when
        # clusters make some dimensions much more spread than others.
        spans = block.max(axis=0) - block.min(axis=0)
        dim = int(np.argmax(spans))
        if spans[dim] == 0.0:
            # All points identical: keep as an (oversized) leaf.
            self._start[node] = start
            self._end[node] = end
            return node
        mid = count // 2
        order = np.argpartition(block[:, dim], mid)
        self._perm[start:end] = self._perm[start:end][order]
        split_val = float(self.points[self._perm[start + mid], dim])
        self._split_dim[node] = dim
        self._split_val[node] = split_val
        self._left[node] = self._build(start, start + mid)
        self._right[node] = self._build(start + mid, end)
        return node

    def rebase(self) -> np.ndarray:
        """Renumber the points by leaf order, in place, and return ``perm``:
        point ``k`` is now the old point ``perm[k]``.  Leaf order is what
        the blocks are stored in, so the node table stands and ``points``
        becomes that one array — in memory and in the pickle."""
        perm = self._perm
        self.points = self._pts_perm
        self._perm = np.arange(self.n, dtype=np.intp)
        return perm

    # -- queries -----------------------------------------------------------------
    def query_radius(
        self, q: np.ndarray, eps: float, max_neighbors: int | None = None
    ) -> np.ndarray:
        """Indices of points within ``eps`` of ``q`` (boundary inclusive).

        With ``max_neighbors`` set, descent stops as soon as that many
        neighbours are collected (the paper's pruned variant); the result
        is then a *subset* of the true neighbourhood.
        """
        _check_eps(eps)
        if self.n == 0:
            return np.empty(0, dtype=np.intp)
        q = np.asarray(q, dtype=np.float64)
        eps2 = eps * eps
        out: list[np.ndarray] = []
        found = 0
        stack = [0]
        split_dim = self._split_dim
        split_val = self._split_val
        while stack:
            node = stack.pop()
            dim = split_dim[node]
            if dim < 0:  # leaf: vectorised block scan
                s, e = self._start[node], self._end[node]
                hit = _exact_hits(self._pts_perm[s:e], q, eps2)
                if hit.any():
                    idx = self._perm[s:e][hit]
                    out.append(idx)
                    found += idx.size
                    if max_neighbors is not None and found >= max_neighbors:
                        break
                continue
            delta = q[dim] - split_val[node]
            # Right then left: leaves pop in storage order (the contract).
            if delta >= -eps:
                stack.append(self._right[node])
            if delta <= eps:
                stack.append(self._left[node])
        if not out:
            return np.empty(0, dtype=np.intp)
        result = np.concatenate(out)
        if max_neighbors is not None and result.size > max_neighbors:
            result = result[:max_neighbors]
        return result

    # -- batched queries ---------------------------------------------------------
    #
    # The kernels below answer a whole block of queries in one shared
    # descent: the stack holds (node, extent, active-query-ids) entries,
    # internal nodes split the active set with one vectorised plane test,
    # and once ``active x subtree points`` fits `TILE_CELLS` the subtree's
    # contiguous block is one BLAS product against the active queries (a
    # leaf is just where descent bottoms out).  Extents follow from the
    # median split, so none is stored for internal nodes.  The product's
    # tree side is built once per process (`_operand`), its query side once
    # per block: a tile is one gather and one product.
    #
    # Equivalence contract (tested property-style): every row is
    # *element-for-element identical* to `query_radius` — the row's hits
    # in storage order, under `max_neighbors` the first k of them.  Both
    # walks push right-then-left, so a row meets its blocks in storage
    # order; a point the scalar walk prunes by a plane test is never an
    # exact hit, so a subtree tile finds what the leaf scans would; and
    # the product form ||a||²-2ab+||b||² only *filters*: a pair within a
    # rounding band of eps² is decided by `_exact_hits`, the scalar
    # walk's own arithmetic (DESIGN.md §6).

    def _operand(self) -> tuple[np.ndarray, np.ndarray, float]:
        """``(c, R, max|p - c|²)``: the box centre and the tree side
        ``R = [(p - c)ᵀ; 1; |p - c|²]`` in storage order, derived once."""
        op = _OPERANDS.get(self)
        if op is None:
            R = np.empty((self.d + 2, self.n))
            P = R[:-2]
            P[:] = self._pts_perm.T  # row-wise extrema are the fast ones
            c = (P.min(axis=1) + P.max(axis=1)) / 2
            P -= c[:, None]
            R[-2] = 1.0
            np.einsum("ij,ij->j", P, P, out=R[-1])
            op = _OPERANDS[self] = (c, R, float(R[-1].max()))
        return op

    @np.errstate(over="raise", invalid="raise")  # no silent inf/nan distances
    def _batch_traverse(
        self,
        Q: np.ndarray,
        eps: float,
        max_neighbors: int | None,
        collect_indices: bool,
        query_block: int | None,
        ids: np.ndarray | None = None,
        stats: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Shared kernel: per-query neighbour counts, plus (optionally)
        the neighbours as CSR chunks — ``ids[tree id]`` where an id table
        is given.  Returns ``(counts, indices)`` with ``indices`` ordered
        by (query, storage order) or None."""
        nq, d = Q.shape
        tiles = tile_rows = rechecks = 0
        # Python floats: with eps = inf the band edges are inf and nan,
        # which numpy scalars would compute with a RuntimeWarning.
        eps2 = float(eps) * float(eps)
        band = BAND_ULPS * (d + 4) * _UNIT_ROUNDOFF
        counts = np.zeros(nq, dtype=np.intp)
        out_blocks: list[np.ndarray] = []
        split_dim = self._split_dim
        split_val = self._split_val
        centre, R, pmax = self._operand()
        if collect_indices:
            # Emitted ids in permuted order, 32-bit where they fit: the
            # pending chunks are what a block's memory is made of.
            ids = self._perm if ids is None else ids[self._perm]
            ids = ids.astype(_int_dtype(ids.min(), ids.max()))
        base = done = 0
        rows = query_block or FIRST_BLOCK_ROWS
        while base < nq:
            bs = min(rows, nq - base)
            Qb = Q[base:base + bs]
            QbT = np.ascontiguousarray(Qb.T)  # plane tests read one axis
            bcounts = counts[base:base + bs]
            # Query side L = [-2(q - c), |q - c|², 1] and one band
            # half-width for every pair of the block.
            a = Qb - centre
            L = np.column_stack((-2.0 * a, np.einsum("ij,ij->i", a, a), np.ones(bs)))
            tol = band * (float(L[:, d].max()) + pmax + eps2)
            # Per-query "still collecting" flag for max_neighbors pruning.
            alive = np.ones(bs, dtype=bool)
            # Per-tile hits: ids per hit, (query, count) per active row.
            q_segs: list[np.ndarray] = []
            n_segs: list[np.ndarray] = []
            i_chunks: list[np.ndarray] = []
            row_ids = np.arange(bs + 1)
            stack = [(0, 0, self.n, row_ids[:bs])]
            while stack:
                node, s, e, active = stack.pop()
                if max_neighbors is not None:
                    active = active[alive[active]]
                    if active.size == 0:
                        continue
                dim = split_dim[node]
                if dim >= 0 and active.size * (e - s) > TILE_CELLS:
                    delta = QbT[dim][active] - split_val[node]
                    mid = s + (e - s) // 2  # the build's median split
                    go_left = active[delta <= eps]
                    go_right = active[delta >= -eps]
                    # Push right then left — popped left-first, so a row
                    # meets its tiles in storage order.
                    if go_right.size:
                        stack.append((self._right[node], mid, e, go_right))
                    if go_left.size:
                        stack.append((self._left[node], s, mid, go_left))
                    continue
                # Tile: one gather and one product for all active queries,
                # d2 = |a|² - 2a·b + |b|²; hits are row-major flat positions.
                tiles += 1
                tile_rows += active.size
                d2 = L[active] @ R[:, s:e]
                flat = np.flatnonzero(d2 <= eps2 + tol)
                if not flat.size:
                    continue
                near = d2.ravel()[flat] > eps2 - tol
                if near.any():
                    # Band candidates: the exact arithmetic decides each.
                    r, c = np.divmod(flat[near], e - s)
                    rechecks += r.size
                    near[near] = ~_exact_hits(
                        self._pts_perm[s + c], Qb[active[r]], eps2)
                    flat = flat[~near]
                ends = np.searchsorted(flat, row_ids[:active.size + 1] * (e - s))
                cnt = ends[1:] - ends[:-1]
                bcounts[active] += cnt
                if collect_indices:
                    # One segment per active row; a hit's column is its
                    # flat position minus its row's start.
                    flat -= np.repeat(row_ids[:active.size] * (e - s), cnt)
                    q_segs.append(active)
                    n_segs.append(cnt)
                    i_chunks.append(ids[s:e][flat])
                if max_neighbors is not None:
                    full = bcounts[active] >= max_neighbors
                    alive[active[full]] = False
            base += bs
            if query_block is None:
                # Size the next block so its pending hits fit the budget.
                done += int(bcounts.sum())
                rows = max(1, min(MAX_BLOCK_ROWS,
                                  QUERY_BLOCK_HITS * base // max(done, 1)))
            if i_chunks:
                # A segment's hits are contiguous in tile order and in the
                # output; a stable sort of the *segments* by query puts
                # them in (query, storage) order, and each hit moves by
                # its segment's displacement.
                seg_n = np.concatenate(n_segs)
                order = np.argsort(
                    np.concatenate(q_segs).astype(np.min_scalar_type(bs - 1)),
                    kind="stable",  # a radix sort on 16-bit keys
                )
                sorted_n = seg_n[order]
                shift = np.cumsum(seg_n) - seg_n
                shift[order] -= np.cumsum(sorted_n) - sorted_n
                hits = np.concatenate(i_chunks)
                i_chunks.clear()  # the block's peak is hits + pos + one more
                pos = np.repeat(shift.astype(_int_dtype(0, hits.size)), seg_n)
                np.subtract(np.arange(pos.size, dtype=pos.dtype), pos, out=pos)
                out = np.empty_like(hits)
                out[pos] = hits
                out_blocks.append(out)
        if stats is not None:
            stats.update(tiles=tiles, rows=tile_rows, rechecks=rechecks)
        if not collect_indices:
            return counts, None
        if not out_blocks:
            return counts, np.empty(0, dtype=np.intp)
        return counts, np.concatenate(out_blocks, dtype=np.intp)

    def _check_batch_args(
        self, Q: np.ndarray, eps: float, query_block: int | None
    ) -> np.ndarray:
        _check_eps(eps)
        if query_block is not None and query_block < 1:
            raise ValueError(f"query_block must be >= 1, got {query_block}")
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        if Q.ndim != 2 or (self.n > 0 and Q.shape[1] != self.d):
            raise ValueError(
                f"queries must be 2-D (m, {self.d}), got shape {Q.shape}"
            )
        if not np.isfinite(Q).all():
            raise ValueError("queries must be finite (NaN or inf found)")
        return Q

    def query_radius_batch(
        self,
        Q: np.ndarray,
        eps: float,
        max_neighbors: int | None = None,
        query_block: int | None = None,
        ids: np.ndarray | None = None,
        stats: dict[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eps-neighbourhoods of all query rows in one shared traversal.

        Returns CSR-style ``(indptr, indices)``: the neighbours of query
        ``k`` are ``indices[indptr[k]:indptr[k+1]]``, element-for-element
        identical to ``query_radius(Q[k], eps, max_neighbors)`` — or,
        with an ``ids`` table (one entry per tree point), to ``ids[...]``
        of it.  ``query_block`` fixes the rows answered per traversal
        (memory, not results); by default blocks are sized to hold
        `QUERY_BLOCK_HITS` pending hits.  A ``stats`` dict receives
        ``tiles`` (products run), ``rows`` (active rows summed over them)
        and ``rechecks`` (band pairs `_exact_hits` decided).
        """
        Q = self._check_batch_args(Q, eps, query_block)
        if ids is not None:
            ids = np.asarray(ids)
            if ids.shape != (self.n,):
                raise ValueError(
                    f"ids must hold one entry per tree point ({self.n}), "
                    f"got shape {ids.shape}"
                )
        nq = Q.shape[0]
        if self.n == 0 or nq == 0:
            return np.zeros(nq + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        counts, indices = self._batch_traverse(
            Q, eps, max_neighbors, collect_indices=True,
            query_block=query_block, ids=ids, stats=stats,
        )
        if max_neighbors is not None and (counts > max_neighbors).any():
            # Over-collection only within the tile where the cap tripped;
            # trim each row to its first max_neighbors hits.
            lengths = np.minimum(counts, max_neighbors)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            pos = np.arange(indices.size) - np.repeat(starts, counts)
            indices = indices[pos < np.repeat(lengths, counts)]
            counts = lengths
        indptr = np.zeros(nq + 1, dtype=np.intp)
        np.cumsum(counts, out=indptr[1:])
        return indptr, indices

    def count_radius_batch(
        self, Q: np.ndarray, eps: float, query_block: int | None = None
    ) -> np.ndarray:
        """Neighbourhood sizes of all query rows (the Definition 1 density
        test) without materialising the neighbour lists."""
        Q = self._check_batch_args(Q, eps, query_block)
        if self.n == 0 or Q.shape[0] == 0:
            return np.zeros(Q.shape[0], dtype=np.intp)
        counts, _ = self._batch_traverse(
            Q, eps, None, collect_indices=False, query_block=query_block
        )
        return counts

    # -- introspection -------------------------------------------------------------
    def depth(self) -> int:
        """Height of the tree (leaf-only tree has depth 1)."""
        if self.num_nodes == 0:
            return 0
        depths = {0: 1}
        best = 1
        stack = [0]
        while stack:
            node = stack.pop()
            for child in (self._left[node], self._right[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
                    best = max(best, depths[child])
                    stack.append(child)
        return best

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for d in self._split_dim if d < 0)
