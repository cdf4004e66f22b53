"""Batched neighbourhood kernels: `query_radius_batch` must be
element-for-element identical to per-point `query_radius` — same
indices, same (storage) order, wherever the tile rule stops the descent
— because the executors expand over the stored rows and the scalar walk
is the reference they are checked against.
"""

import gc
import pickle
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import generate_clustered
from repro.engine.sanitize import deep_hash
from repro.kdtree import BruteForceIndex, KDTree
from repro.kdtree import kdtree as kdtree_module

point_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 120), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False, width=32),
)


def _rows(indptr, indices):
    return [indices[indptr[k]:indptr[k + 1]] for k in range(len(indptr) - 1)]


@settings(max_examples=40, deadline=None)
@given(
    pts=point_arrays,
    eps=st.floats(0.0, 80.0),
    leaf=st.integers(1, 32),
    block=st.integers(1, 64),
)
def test_batch_matches_per_point(pts, eps, leaf, block):
    """Random clouds: every row equals the per-point query, order included."""
    tree = KDTree(pts, leaf_size=leaf)
    indptr, indices = tree.query_radius_batch(pts, eps, query_block=block)
    counts = tree.count_radius_batch(pts, eps, query_block=block)
    for k, row in enumerate(_rows(indptr, indices)):
        ref = tree.query_radius(pts[k], eps)
        assert np.array_equal(row, ref)
        assert counts[k] == ref.size


@settings(max_examples=25, deadline=None)
@given(pts=point_arrays, eps=st.floats(0.0, 60.0), cap=st.integers(1, 12))
def test_batch_matches_per_point_with_pruning(pts, eps, cap):
    """The max_neighbors pruned variant must stop at the same prefix."""
    tree = KDTree(pts, leaf_size=4)
    indptr, indices = tree.query_radius_batch(pts, eps, max_neighbors=cap,
                                              query_block=16)
    for k, row in enumerate(_rows(indptr, indices)):
        assert np.array_equal(row, tree.query_radius(pts[k], eps, cap))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.0, 5.0))
def test_batch_handles_duplicate_points(seed, eps):
    """Duplicate-heavy inputs exercise the zero-span oversized-leaf path."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-10, 10, (12, 3))
    pts = base[rng.integers(0, 12, 150)]
    tree = KDTree(pts, leaf_size=8)
    indptr, indices = tree.query_radius_batch(pts, eps)
    for k, row in enumerate(_rows(indptr, indices)):
        assert np.array_equal(row, tree.query_radius(pts[k], eps))


class TestBatchEdgeCases:
    def test_empty_query_matrix(self):
        tree = KDTree(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        indptr, indices = tree.query_radius_batch(np.empty((0, 3)), 1.0)
        assert indptr.tolist() == [0]
        assert indices.size == 0
        assert tree.count_radius_batch(np.empty((0, 3)), 1.0).size == 0

    def test_empty_tree(self):
        tree = KDTree(np.empty((0, 2)))
        indptr, indices = tree.query_radius_batch(np.zeros((3, 2)), 1.0)
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0
        assert tree.count_radius_batch(np.zeros((3, 2)), 1.0).tolist() == [0, 0, 0]

    def test_zero_radius_hits_exact_duplicates_only(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        tree = KDTree(pts, leaf_size=1)
        indptr, indices = tree.query_radius_batch(pts, 0.0)
        assert sorted(indices[indptr[0]:indptr[1]].tolist()) == [0, 1]
        assert indices[indptr[2]:indptr[3]].tolist() == [2]

    def test_rejects_negative_eps(self):
        tree = KDTree(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tree.query_radius_batch(np.zeros((2, 2)), -1.0)

    def test_rejects_nan_eps_at_every_entry_point(self):
        # `nan < 0` is false: nan used to walk the tree and match nothing.
        tree = KDTree(np.zeros((4, 2)))
        for call in (
            lambda: tree.query_radius(np.zeros(2), float("nan")),
            lambda: tree.query_radius_batch(np.zeros((2, 2)), float("nan")),
            lambda: tree.count_radius_batch(np.zeros((2, 2)), float("nan")),
        ):
            with pytest.raises(ValueError, match="eps must be non-negative"):
                call()

    def test_infinite_eps_returns_every_point(self):
        pts = np.random.default_rng(2).uniform(-5, 5, (40, 3))
        tree = KDTree(pts, leaf_size=4)
        indptr, indices = tree.query_radius_batch(pts, float("inf"))
        assert np.diff(indptr).tolist() == [40] * 40
        for k, row in enumerate(_rows(indptr, indices)):
            assert np.array_equal(row, tree.query_radius(pts[k], float("inf")))
        assert tree.count_radius_batch(pts, float("inf")).tolist() == [40] * 40

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points_and_queries(self, bad):
        # As a leaf's centre a non-finite point would void the whole
        # leaf's distances, and a NaN query the tolerance of its tile.
        pts = np.zeros((4, 2))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            KDTree(pts)
        tree = KDTree(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="finite"):
            tree.query_radius_batch(pts, 1.0)
        with pytest.raises(ValueError, match="finite"):
            tree.count_radius_batch(pts, 1.0)

    def test_rejects_empty_query_block(self):
        tree = KDTree(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="query_block"):
            tree.query_radius_batch(np.zeros((2, 2)), 1.0, query_block=0)

    def test_rejects_dimension_mismatch(self):
        tree = KDTree(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tree.query_radius_batch(np.zeros((2, 3)), 1.0)

    def test_foreign_queries_allowed(self):
        """Query points need not be tree points (predict-style usage)."""
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 10, (200, 4))
        Q = rng.uniform(0, 10, (37, 4))
        tree = KDTree(pts, leaf_size=8)
        indptr, indices = tree.query_radius_batch(Q, 2.0, query_block=10)
        for k in range(37):
            assert np.array_equal(indices[indptr[k]:indptr[k + 1]],
                                  tree.query_radius(Q[k], 2.0))


# ---------------------------------------------------------------------------
# The product-form filter and its exact re-check band (DESIGN.md §6)
# ---------------------------------------------------------------------------

#: A common offset turns every coordinate into offset + small, the worst
#: case for the cancellation in |a|² - 2ab + |b|².
OFFSETS = (0.0, 1e6, 1e8)


def _assert_rows_exact(pts, eps, leaf_size=4, **kw):
    """Batched rows == per-point rows element for element == brute force."""
    tree = KDTree(pts, leaf_size=leaf_size)
    brute = BruteForceIndex(pts)
    indptr, indices = tree.query_radius_batch(pts, eps, **kw)
    counts = tree.count_radius_batch(pts, eps)
    for k, row in enumerate(_rows(indptr, indices)):
        assert np.array_equal(row, tree.query_radius(pts[k], eps))
        assert np.array_equal(np.sort(row), brute.query_radius(pts[k], eps))
        assert counts[k] == row.size
    return indptr, indices


def _three_consecutive_floats_with_consecutive_squares():
    """``x0 < x1 < x2`` adjacent floats whose rounded squares are adjacent
    floats too: with eps = x1, a pair x0 apart has squared distance
    ``nextafter(eps², -inf)`` and a pair x2 apart ``nextafter(eps², +inf)``."""
    x0 = np.float64(1.45)
    while True:
        x1 = np.nextafter(x0, np.inf)
        x2 = np.nextafter(x1, np.inf)
        if (x1 * x1 == np.nextafter(x0 * x0, np.inf)
                and x2 * x2 == np.nextafter(x1 * x1, np.inf)):
            return float(x0), float(x1), float(x2)
        x0 = x1


def _near_eps_cloud(offset):
    """Lattice multiples of eps under a common offset, first coordinates
    nudged so pairs sit within a few ulps of eps²: ``(points, eps)``."""
    x0, eps, x2 = _three_consecutive_floats_with_consecutive_squares()
    rng = np.random.default_rng(3)
    pts = rng.integers(-4, 5, (60, 3)).astype(np.float64) * eps + offset
    pts[:, 0] += rng.choice([0.0, x0 - eps, x2 - eps], size=60)
    return pts, eps


class TestBandRecheck:
    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("d,side,eps", [
        (1, 40, 3.0), (2, 9, 1.0), (2, 9, 5.0), (3, 5, 2.0), (3, 5, 3.0),
    ])
    def test_integer_lattice_pairs_at_exactly_eps(self, d, side, eps, offset):
        # Integer coordinates (offset + k is exact up to 2**53): every
        # squared distance is an exact integer and many equal eps²
        # (3-4-5, 1-2-2 triples) — boundary-inclusive, like query_radius.
        axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * d)
        pts = np.stack([a.ravel() for a in axes], axis=1) + offset
        _assert_rows_exact(pts, eps)
        on_boundary = (
            (pts[:, None, :] - pts[None, :, :]) ** 2
        ).sum(axis=2) == eps * eps
        assert on_boundary.any()
        # ... and it is the exact arithmetic that decides those pairs.
        stats = {}
        KDTree(pts, leaf_size=4).query_radius_batch(pts, eps, stats=stats)
        assert stats["rechecks"] >= on_boundary.sum() > 0

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_pairs_one_ulp_either_side_of_eps_squared(self, d):
        x0, eps, x2 = _three_consecutive_floats_with_consecutive_squares()
        eps2 = eps * eps
        assert x0 * x0 == np.nextafter(eps2, -np.inf)
        assert x2 * x2 == np.nextafter(eps2, np.inf)
        # Along the first axis: 0, then points x0, eps and x2 away from it.
        pts = np.zeros((4, d))
        pts[1:, 0] = [x0, eps, x2]
        tree = KDTree(pts, leaf_size=2)
        indptr, indices = _assert_rows_exact(pts, eps, leaf_size=2)
        assert sorted(indices[indptr[0]:indptr[1]].tolist()) == [0, 1, 2]
        assert tree.count_radius_batch(pts[:1], eps).tolist() == [3]

    @pytest.mark.parametrize("offset", OFFSETS[1:])
    def test_near_eps_pairs_under_a_common_offset(self, offset):
        # Shifted, the pairs above are no longer exactly one ulp from
        # eps² (offset + x rounds), but they stay within a few ulps of
        # it, now with the cancellation at its worst.
        pts, eps = _near_eps_cloud(offset)
        _assert_rows_exact(pts, eps)
        _assert_rows_exact(pts, eps, query_block=7)

    def test_everything_in_the_band_changes_nothing(self, monkeypatch):
        # With an infinite band every visited pair is decided by the
        # exact arithmetic; rows must not move, so the filter never
        # decides a pair the exact test would decide differently.
        pts = generate_clustered(n=1500, d=10, seed=5).points
        tree = KDTree(pts)
        want = tree.query_radius_batch(pts, 25.0)
        want_capped = tree.query_radius_batch(pts, 25.0, max_neighbors=9)
        monkeypatch.setattr(kdtree_module, "BAND_ULPS", float("inf"))
        stats = {}
        got = tree.query_radius_batch(pts, 25.0, stats=stats)
        assert stats["rechecks"] >= want[1].size
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        for a, b in zip(want_capped,
                        tree.query_radius_batch(pts, 25.0, max_neighbors=9)):
            assert np.array_equal(a, b)
        assert np.array_equal(tree.count_radius_batch(pts, 25.0),
                              np.diff(want[0]))

    def test_filter_is_the_fast_path_on_clustered_input(self):
        # At the real band width no pair of a 5 000 x 10 clustered input
        # needs the exact arithmetic: the matrix product decides them all.
        pts = generate_clustered(n=5000, d=10, seed=1).points
        stats = {}
        indptr, _ = KDTree(pts).query_radius_batch(pts, 25.0, stats=stats)
        assert indptr[-1] > 5000
        assert stats["rechecks"] == 0

    def test_high_dynamic_range_is_decided_by_the_recheck(self):
        # Tight clusters spread over a 10⁶ box at an offset of 10⁸: the
        # band scales with (tree diameter / eps)², so nearly every
        # candidate pair is re-checked, and rows stay exact.
        rng = np.random.default_rng(4)
        centres = rng.uniform(0.0, 1e6, (40, 3))
        pts = centres[rng.integers(0, 40, 400)] + rng.normal(0, 1e-3, (400, 3))
        pts += 1e8
        _assert_rows_exact(pts, 1e-2)
        stats = {}
        indptr, _ = KDTree(pts, leaf_size=4).query_radius_batch(
            pts, 1e-2, stats=stats)
        assert stats["rechecks"] >= indptr[-1] > len(pts)  # 4 524 = every hit

    def test_overflow_in_the_product_is_an_error_not_a_wrong_row(self):
        pts = np.array([[0.0, 0.0], [1e200, 0.0], [1e200, 1.0]])
        with pytest.raises(FloatingPointError):
            KDTree(pts, leaf_size=8).query_radius_batch(pts, 2.0)


# ---------------------------------------------------------------------------
# The tile rule (DESIGN.md §6): where descent stops is a cost decision only
# ---------------------------------------------------------------------------

def _duplicate_cloud():
    rng = np.random.default_rng(7)
    return 4, rng.uniform(-10, 10, (9, 3))[rng.integers(0, 9, 70)], 6.0


#: name -> (leaf_size, points, a finite eps with partial neighbourhoods)
TILE_CLOUDS = {
    "uniform_d3": lambda: (
        4, np.random.default_rng(11).uniform(-10, 10, (90, 3)), 6.0),
    "oversized_duplicate_leaves": _duplicate_cloud,
    "fewer_points_than_a_leaf": lambda: (
        64, np.random.default_rng(12).uniform(-1, 1, (10, 2)), 0.7),
    "d1": lambda: (4, np.random.default_rng(13).uniform(0, 50, (80, 1)), 3.0),
    "near_eps_offset_1e6": lambda: (4, *_near_eps_cloud(OFFSETS[1])),
    "near_eps_offset_1e8": lambda: (4, *_near_eps_cloud(OFFSETS[2])),
}


@pytest.mark.parametrize(
    "tile_cells", [1, kdtree_module.TILE_CELLS, 1 << 62],
    ids=["to_the_leaves", "default", "root_tile"])
@pytest.mark.parametrize("cloud", sorted(TILE_CLOUDS))
def test_rows_do_not_depend_on_the_tile_budget(cloud, tile_cells, monkeypatch):
    """From one tile per leaf to one tile over the whole tree (brute
    force): every row equals `query_radius` element for element — which
    is the row's hits in storage order, capped rows a prefix of it — and
    brute force as a set, whatever the block, the cap or the id table."""
    leaf, pts, mid_eps = TILE_CLOUDS[cloud]()
    monkeypatch.setattr(kdtree_module, "TILE_CELLS", tile_cells)
    tree = KDTree(pts, leaf_size=leaf)
    brute = BruteForceIndex(pts)
    slot = np.argsort(tree._perm)  # point -> position in storage order
    table = np.random.default_rng(5).integers(-5, 3 * len(pts), len(pts))
    for eps in (0.0, mid_eps, float("inf")):
        full = [tree.query_radius(q, eps) for q in pts]
        for q, row in zip(pts, full):
            assert (np.diff(slot[row]) > 0).all()
            assert np.array_equal(np.sort(row), brute.query_radius(q, eps))
        for block in (1, 7, None):
            assert np.array_equal(
                tree.count_radius_batch(pts, eps, query_block=block),
                [len(row) for row in full])
            for cap in (None, 0, 1, 3):
                want = [tree.query_radius(q, eps, cap) for q in pts]
                for row, ref in zip(full, want):
                    assert np.array_equal(ref, row[:cap])
                for ids in (None, table):
                    indptr, indices = tree.query_radius_batch(
                        pts, eps, cap, query_block=block, ids=ids)
                    for got, ref in zip(_rows(indptr, indices), want):
                        assert np.array_equal(
                            got, ref if ids is None else ids[ref])


def test_tile_budget_changes_the_tile_count_not_the_rows(monkeypatch):
    """The ``stats`` out-parameter sees the rule at work: fewer, taller
    tiles as the budget grows, one per block at the root."""
    pts = generate_clustered(n=1500, d=10, seed=5).points
    tree = KDTree(pts)
    seen = []
    for tile_cells in (1, kdtree_module.TILE_CELLS, 1 << 62):
        monkeypatch.setattr(kdtree_module, "TILE_CELLS", tile_cells)
        stats = {}
        seen.append((tree.query_radius_batch(pts, 25.0, stats=stats), stats))
    (rows, leaves), (_, default), (_, root) = seen
    for other, _ in seen[1:]:
        assert np.array_equal(rows[0], other[0])
        assert np.array_equal(rows[1], other[1])
    assert leaves["tiles"] > default["tiles"] > root["tiles"]
    assert root["rows"] == len(pts)          # every query in exactly one tile
    assert leaves["rows"] > default["rows"] > root["rows"]


@settings(max_examples=40, deadline=None)
@given(
    pts=point_arrays,
    eps=st.floats(0.0, 80.0),
    block=st.sampled_from([1, 7, None]),
    cap=st.one_of(st.none(), st.integers(1, 12)),
    table_seed=st.one_of(st.none(), st.integers(0, 1000)),
)
def test_identity_over_blocks_caps_and_id_table(pts, eps, block, cap, table_seed):
    """Every row equals `query_radius` — mapped through the id table when
    one is given — whatever the block size and the neighbour cap."""
    tree = KDTree(pts, leaf_size=4)
    table = None
    if table_seed is not None:
        # Arbitrary ids (not a permutation, wider than the tree, signed).
        table = np.random.default_rng(table_seed).integers(
            -5, 3 * len(pts) + 5, len(pts)
        )
    indptr, indices = tree.query_radius_batch(
        pts, eps, cap, query_block=block, ids=table
    )
    assert indices.dtype == np.intp
    for k, row in enumerate(_rows(indptr, indices)):
        ref = tree.query_radius(pts[k], eps, cap)
        assert np.array_equal(row, ref if table is None else table[ref])
    if cap is None:
        assert np.array_equal(
            tree.count_radius_batch(pts, eps, query_block=block), np.diff(indptr)
        )


def test_id_table_wider_than_32_bits_and_misshapen():
    pts = np.random.default_rng(0).uniform(0, 1, (30, 2))
    tree = KDTree(pts, leaf_size=4)
    table = np.arange(30) + 2 ** 40
    indptr, indices = tree.query_radius_batch(pts, 0.3, ids=table)
    plain = tree.query_radius_batch(pts, 0.3)[1]
    assert np.array_equal(indices, table[plain])
    with pytest.raises(ValueError, match="ids"):
        tree.query_radius_batch(pts, 0.3, ids=np.arange(29))


class TestTreeOperand:
    """The product's tree side is derived per process on a tree's first
    batched query and held off the instance: a broadcast tree's pickle and
    sanitizer hash must not see it, and a tree loaded from either side of
    that first query answers the same."""

    @pytest.fixture(scope="class")
    def cloud(self):
        return generate_clustered(n=600, d=4, seed=3).points

    def test_query_leaves_pickle_and_hash_unchanged(self, cloud):
        tree = KDTree(cloud)
        blob, digest = pickle.dumps(tree), deep_hash(tree)
        tree.query_radius_batch(cloud, 25.0)
        assert tree in kdtree_module._OPERANDS
        assert pickle.dumps(tree) == blob
        assert deep_hash(tree) == digest
        # The map holds the tree weakly: the operand goes with it.
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None

    def test_trees_pickled_before_and_after_a_query_answer_alike(self, cloud):
        tree = KDTree(cloud)
        before = pickle.dumps(tree)
        want = tree.query_radius_batch(cloud, 25.0)
        for blob in (before, pickle.dumps(tree)):
            clone = pickle.loads(blob)
            assert clone not in kdtree_module._OPERANDS
            for a, b in zip(want, clone.query_radius_batch(cloud, 25.0)):
                assert np.array_equal(a, b)

    def test_threads_racing_on_a_fresh_tree_answer_alike(self, cloud):
        # No lock: a race derives the operand twice, and every answer
        # must still be the serial one.
        want = KDTree(cloud).query_radius_batch(cloud, 25.0, query_block=64)
        tree = KDTree(cloud)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(tree.query_radius_batch, cloud, 25.0,
                                       query_block=64) for _ in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            for a, b in zip(want, got):
                assert np.array_equal(a, b)


class TestKernelMemory:
    """Block transients must not add a third copy of the CSR: peak traced
    memory stays within two outputs (the blocks plus their final
    concatenate), a fixed per-block budget and the tree's product operand,
    ``(d + 2) · 8 · n`` bytes, which a fresh tree derives inside the traced
    window — for the plain query and, under the same bound, for
    `local_dbscan` with a boundary set, whose frame mapping and boundary
    reduction used to cost two more O(nnz) int64 temporaries (3.1x the
    CSR)."""

    #: A block's transients: 12 bytes per pending hit (int32 chunk, its
    #: concatenated copy or the scattered output, an int32 position)
    #: plus the tile and operand temporaries.
    BUDGET = 16 * kdtree_module.QUERY_BLOCK_HITS

    @pytest.fixture(scope="class")
    def dense(self):
        pts = generate_clustered(n=7000, d=10, seed=2).points
        nnz = int(KDTree(pts).count_radius_batch(pts, 25.0).sum())
        assert nnz * 8 >= 8 * 2 ** 20  # the CSR is at least 8 MiB
        n, d = pts.shape
        return pts, 2 * nnz * 8 + self.BUDGET + (d + 2) * 8 * n

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_query_radius_batch(self, dense):
        pts, bound = dense
        tree = KDTree(pts)
        assert self._peak(lambda: tree.query_radius_batch(pts, 25.0)) <= bound

    def test_local_dbscan_with_boundary_out(self, dense):
        from repro.dbscan import local_dbscan
        from repro.engine.partitioner import IndexRangePartitioner

        pts, bound = dense
        tree = KDTree(pts)
        part = IndexRangePartitioner(len(pts), 1)
        peak = self._peak(lambda: local_dbscan(
            0, range(len(pts)), pts, tree, 25.0, 5, part,
            neighbor_mode="batched", boundary_out=set(),
        ))
        assert peak <= bound
