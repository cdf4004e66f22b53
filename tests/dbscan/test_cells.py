"""Cell partitioning primitives: grid binning, adjacency, LPT balance,
eps-halo completeness, and the per-partition SEED expansion."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import generate_clustered, generate_skewed
from repro.dbscan import cells as cells_mod
from repro.dbscan.cells import (
    HALO_SLACK,
    SUPER_SIDES,
    SUPER_TOLERANCE,
    CellGrid,
    balance_cells,
    build_cell_assignment,
    cell_local_dbscan,
    pack_cells,
)
from repro.kdtree import KDTree
from tests.dbscan.test_properties import plain


def brute_adjacent_pairs(cells: np.ndarray) -> set[tuple[int, int]]:
    cheb = np.abs(cells[:, None, :] - cells[None, :, :]).max(axis=2)
    return {
        (int(i), int(j))
        for i, j in zip(*np.nonzero(cheb <= 1))
        if i != j
    }


def pair_set(grid: CellGrid) -> set[tuple[int, int]]:
    """`adjacent_pairs` chunks as a set; also checks that no pair is
    reported twice (the halo test relies on it only for cost)."""
    pairs = [p for i, j in grid.adjacent_pairs()
             for p in zip(i.tolist(), j.tolist())]
    assert len(set(pairs)) == len(pairs)
    return set(pairs)


def reference_assignment(points, eps, num_partitions):
    """The per-pair planner `build_cell_assignment` replaced, kept as the
    reference for everything downstream of the packing: it takes the
    planner's cell -> partition map (`pack_cells`) and recomputes the
    halo with one Python step per adjacent cell pair, a (partitions, n)
    bool mask, adjacency by brute force."""
    grid = CellGrid(points, eps)
    cell_pid, _, _ = pack_cells(grid.cells, grid.counts, num_partitions)
    point_pid = cell_pid[grid.cell_of_point]
    halo_mask = np.zeros((num_partitions, grid.n), dtype=bool)
    eps2 = (eps * eps) * (1.0 + HALO_SLACK)
    for i, j in sorted(brute_adjacent_pairs(grid.cells)):
        pi, pj = int(cell_pid[i]), int(cell_pid[j])
        if pi == pj:
            continue
        idx = np.flatnonzero(grid.cell_of_point == j)
        q = grid.points[idx]
        lo = grid.cells[i] * eps
        hi = lo + eps
        excess = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        near = (excess * excess).sum(axis=1) <= eps2
        halo_mask[pi, idx[near]] = True
    owned = [np.flatnonzero(point_pid == p).astype(np.int64)
             for p in range(num_partitions)]
    halo = [np.flatnonzero(halo_mask[p]).astype(np.int64)
            for p in range(num_partitions)]
    return owned, halo, [point_pid[h] for h in halo]


def assert_matches_reference(points, eps, num_partitions):
    a = build_cell_assignment(points, eps, num_partitions)
    owned, halo, home = reference_assignment(points, eps, num_partitions)
    assert a.n == len(points) and a.num_partitions == num_partitions
    for got, want in ((a.owned, owned), (a.halo, halo), (a.halo_home, home)):
        assert len(got) == num_partitions
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)
    return a


class TestCellGrid:
    def test_binning_partitions_the_points(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 100, (300, 3))
        grid = CellGrid(pts, eps=10.0)
        assert int(grid.counts.sum()) == 300
        assert sorted(grid.order.tolist()) == list(range(300))
        assert grid.starts[0] == 0 and grid.starts[-1] == 300
        np.testing.assert_array_equal(np.diff(grid.starts), grid.counts)
        for ci in range(grid.num_cells):
            idx = grid.order[grid.starts[ci]:grid.starts[ci + 1]]
            # Ascending global index within each cell (the determinism
            # contract), and every point binned to its own coordinates.
            assert (np.diff(idx) > 0).all() or len(idx) <= 1
            want = np.floor(pts[idx] / 10.0).astype(np.int64)
            assert (want == grid.cells[ci]).all()

    def test_empty(self):
        grid = CellGrid(np.empty((0, 2)), eps=1.0)
        assert grid.num_cells == 0
        assert pair_set(grid) == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            CellGrid(np.zeros((3, 2)), eps=0.0)
        with pytest.raises(ValueError, match="eps must be positive"):
            CellGrid(np.zeros((3, 2)), eps=float("nan"))
        with pytest.raises(ValueError):
            CellGrid(np.zeros(3), eps=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -5e18])
    def test_unbinnable_coordinates_rejected(self, bad):
        """floor(x / eps) outside the int64-safe range used to be cast to
        garbage INT64_MIN cells; it must raise, with no numpy warning."""
        pts = np.array([[0.0, 1.0], [2.0, bad]])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="eps"):
            CellGrid(pts, eps=1.0)
        with pytest.raises(ValueError):
            build_cell_assignment(pts, 1.0, 2)
        # Finite and in range for this eps: fine.
        CellGrid(np.array([[0.0, 4e18]]), eps=1.0)
        CellGrid(np.array([[0.0, 1e300]]), eps=1e290)

    def test_adjacency_offset_strategy_matches_brute_force(self):
        # d=2, many occupied cells: 3^2 = 9 <= m picks the sorted-key
        # join, one searchsorted per offset.
        rng = np.random.default_rng(1)
        pts = rng.uniform(-30, 30, (400, 2))
        grid = CellGrid(pts, eps=5.0)
        assert 3 ** grid.d <= grid.num_cells
        keys, _ = grid.join_keys()
        assert (np.diff(keys) > 0).all()
        assert len(list(grid.adjacent_pairs())) == 3 ** grid.d - 1
        assert pair_set(grid) == brute_adjacent_pairs(grid.cells)

    def test_adjacency_key_overflow_falls_back_to_scan(self):
        # Two far-apart clumps: the per-axis spans multiply past int64,
        # so the join is refused (exact Python-int guard) and the scan
        # answers instead — same pairs.
        rng = np.random.default_rng(11)
        near = rng.uniform(0, 6, (60, 3))
        pts = np.vstack([near, near + 3e12, near - 3e12])
        grid = CellGrid(pts, eps=1.0)
        assert 3 ** grid.d <= grid.num_cells
        assert grid.join_keys() is None
        assert pair_set(grid) == brute_adjacent_pairs(grid.cells)
        assert_matches_reference(pts, 1.0, 3)
        # Just inside the guard the join still runs, exactly.
        wide = np.vstack([near[:, :2], near[:, :2] + 2.0e9])
        grid = CellGrid(wide, eps=1.0)
        assert grid.join_keys() is not None
        assert pair_set(grid) == brute_adjacent_pairs(grid.cells)

    def test_adjacency_scan_strategy_matches_brute_force(self):
        # d=10: 3^10 = 59 049 offsets dwarf the occupied-cell count, so
        # the blocked vectorised scan runs instead.
        g = generate_skewed(400, d=10, seed=2)
        grid = CellGrid(g.points, eps=25.0)
        assert 3 ** grid.d > grid.num_cells
        assert pair_set(grid) == brute_adjacent_pairs(grid.cells)


class TestBalanceCells:
    def test_deterministic_and_complete(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 50, 40)
        a = balance_cells(counts, 4)
        b = balance_cells(counts, 4)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= set(range(4))

    def test_lpt_bound(self):
        """Greedy LPT: no partition exceeds the average load by more
        than one cell's worth of points."""
        rng = np.random.default_rng(4)
        counts = rng.integers(1, 100, 60)
        pid = balance_cells(counts, 5)
        loads = np.bincount(pid, weights=counts, minlength=5)
        assert loads.max() <= counts.sum() / 5 + counts.max()

    def test_single_partition(self):
        assert (balance_cells(np.array([3, 1, 2]), 1) == 0).all()


def check_packing(points, eps, num_partitions) -> int:
    """`pack_cells` keeps its rule on this input; returns the side k."""
    grid = CellGrid(points, eps)
    pid, k, num_super = pack_cells(grid.cells, grid.counts, num_partitions)
    assert pid.dtype == np.int64 and len(pid) == grid.num_cells
    assert set(pid.tolist()) <= set(range(num_partitions))
    _, group = np.unique(grid.cells // k, axis=0, return_inverse=True)
    group = group.ravel()
    assert num_super == len(np.unique(group))
    # Every super-cell lands whole in one partition.
    first = np.zeros(num_super, dtype=np.int64)
    first[group] = pid
    np.testing.assert_array_equal(first[group], pid)
    # The coarsest side within the tolerance wins; past every side the
    # packing is plain eps-cell LPT.
    bound = SUPER_TOLERANCE * grid.n / num_partitions
    for side in SUPER_SIDES:
        _, g = np.unique(grid.cells // side, axis=0, return_inverse=True)
        sums = np.bincount(g.ravel(), weights=grid.counts)
        loads = np.bincount(balance_cells(sums, num_partitions), weights=sums)
        if side > k or k == 1:
            assert num_partitions == 1 or grid.n == 0 or loads.max() > bound
    if k == 1:
        np.testing.assert_array_equal(
            pid, balance_cells(grid.counts, num_partitions))
    else:
        assert k in SUPER_SIDES
        loads = np.bincount(pid, weights=grid.counts)
        assert loads.max() <= bound
    return k


class TestPackCells:
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("partitions", [1, 2, 4, 7])
    def test_rule_on_random_inputs(self, d, partitions):
        rng = np.random.default_rng(100 * d + partitions)
        pts = rng.normal(0.0, 6.0 if d < 10 else 1.2, (260, d))
        k = check_packing(pts, 2.0, partitions)
        assert (k == 1) == (partitions == 1 or (d, partitions) == (1, 7))

    def test_tiny_inputs_fall_back_to_single_cells(self):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0.0, 10.0, (50, 2))
        assert check_packing(pts, 1.0, 7) == 1
        assert build_cell_assignment(pts, 1.0, 7).super_side == 1

    def test_deterministic_across_calls(self):
        pts = generate_clustered(400, d=3, seed=25).points
        grid = CellGrid(pts, 10.0)
        a = pack_cells(grid.cells, grid.counts, 3)
        b = pack_cells(grid.cells.copy(), grid.counts.copy(), 3)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]
        x, y = (build_cell_assignment(pts, 10.0, 3) for _ in range(2))
        for got, want in zip(x.owned + x.halo, y.owned + y.halo):
            np.testing.assert_array_equal(got, want)


class TestHalo:
    @pytest.mark.parametrize("data", [
        generate_clustered(300, seed=5),
        generate_skewed(300, d=10, seed=6, shuffle=False),
    ])
    def test_halo_completes_every_owned_neighborhood(self, data):
        """The load-bearing invariant: every owned point's eps-ball is a
        subset of (owned + halo), so executor-local core status and
        memberships equal the global computation."""
        eps = 25.0
        a = build_cell_assignment(data.points, eps, 4)
        tree = KDTree(data.points)
        for p in range(a.num_partitions):
            visible = set(a.owned[p].tolist()) | set(a.halo[p].tolist())
            for i in a.owned[p]:
                ball = tree.query_radius(data.points[i], eps)
                assert set(ball.tolist()) <= visible
        # Ownership is a partition of 0..n-1; halos never overlap it.
        all_owned = np.concatenate(a.owned)
        assert sorted(all_owned.tolist()) == list(range(a.n))
        for p in range(a.num_partitions):
            assert not set(a.halo[p].tolist()) & set(a.owned[p].tolist())

    def test_halo_home_names_the_owner(self):
        data = generate_clustered(200, seed=7)
        a = build_cell_assignment(data.points, 25.0, 3)
        part = a.to_partitioner()
        for p in range(a.num_partitions):
            for g, home in zip(a.halo[p], a.halo_home[p]):
                assert part.partition(int(g)) == int(home)
                assert int(home) != p

    def test_exact_eps_point_lands_in_halo(self):
        """A point at exactly distance eps across a cell boundary must
        be replicated (the HALO_SLACK guarantee)."""
        eps = 1.0
        pts = np.array([[0.5, 0.0], [1.5, 0.0], [10.0, 10.0], [10.5, 10.0]])
        a = build_cell_assignment(pts, eps, 2)
        part = a.to_partitioner()
        if part.partition(0) != part.partition(1):
            p0 = part.partition(0)
            assert 1 in a.halo[p0].tolist()

    def test_single_partition_has_no_halo(self):
        data = generate_clustered(100, seed=8)
        a = build_cell_assignment(data.points, 25.0, 1)
        assert a.halo_points_total == 0
        assert len(a.owned[0]) == a.n


SKEWED_BENCH = dict(n=15000, d=2, num_clusters=10, zipf_exponent=1.2,
                    cluster_std=20, noise_fraction=0.05, shuffle=False, seed=1)


class TestPlannerMatchesReference:
    """The array planner makes exactly the per-pair loop's decisions:
    owned / halo / halo_home equal array for array."""

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("partitions", [1, 2, 4, 7])
    def test_dimensions_and_partition_counts(self, d, partitions):
        # Centred on 0 (negative cells, floor not trunc); d=10 takes the
        # scan branch (3^10 > m), d <= 3 the sorted-key join.
        rng = np.random.default_rng(100 * d + partitions)
        pts = rng.normal(0.0, 6.0 if d < 10 else 1.2, (260, d))
        grid = CellGrid(pts, eps=2.0)
        assert (3 ** d <= grid.num_cells) == (d < 10)
        a = assert_matches_reference(pts, 2.0, partitions)
        assert (a.halo_points_total > 0) == (partitions > 1)

    def test_duplicate_points(self):
        rng = np.random.default_rng(21)
        base = rng.uniform(-8, 8, (40, 2))
        assert_matches_reference(np.repeat(base, 5, axis=0), 1.5, 3)

    def test_all_points_in_one_cell(self):
        pts = np.random.default_rng(22).uniform(0.1, 0.9, (50, 3))
        a = assert_matches_reference(pts, 1.0, 4)
        assert a.num_cells == 1 and a.halo_points_total == 0

    def test_more_partitions_than_cells(self):
        pts = np.array([[0.5], [1.5], [2.5], [2.6]])
        a = assert_matches_reference(pts, 1.0, 6)
        assert sum(len(o) > 0 for o in a.owned) == 3
        assert (a.super_side, a.num_super_cells) == (1, 3)

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_empty_input(self, d):
        a = assert_matches_reference(np.empty((0, d)), 1.0, 3)
        assert a.num_cells == 0 and a.halo_points_total == 0
        assert [len(x) for x in a.owned + a.halo + a.halo_home] == [0] * 9

    def test_points_at_exactly_eps_from_a_foreign_box(self):
        # eps = 0.1 is not a binary fraction: cell * eps and floor(x/eps)
        # round differently, which is what HALO_SLACK absorbs.
        eps = 0.1
        k = np.arange(-20, 20)
        pts = np.column_stack([
            np.concatenate([k * eps, k * eps + eps, k * eps + eps / 2]),
            np.tile(k % 3 * eps, 3),
        ])
        a = assert_matches_reference(pts, eps, 2)
        tree = KDTree(pts)
        for p in range(2):
            visible = set(a.owned[p].tolist()) | set(a.halo[p].tolist())
            for i in a.owned[p]:
                assert set(tree.query_radius(pts[i], eps).tolist()) <= visible

    def test_cell_larger_than_one_row_block(self):
        # One cell holds more points than HALO_BLOCK_ROWS, so its rows
        # straddle block boundaries for every adjacent foreign cell.
        rng = np.random.default_rng(23)
        big = rng.uniform(0.0, 1.0, (cells_mod.HALO_BLOCK_ROWS + 700, 2))
        ring = rng.uniform(-1.0, 2.0, (60, 2))
        a = assert_matches_reference(np.vstack([big, ring]), 1.0, 3)
        assert a.halo_points_total > cells_mod.HALO_BLOCK_ROWS

    def test_skewed_benchmark_shape_matches_and_memory_is_bounded(self):
        """The `skewed_cells_edges` input.  tracemalloc peak stays under
        6 MiB (per-pair loop 3.6, streaming planner ~3): expanding every
        cross-partition (cell, point) row at once would fail here, in
        Tier-1, before it fails the benchmark's RSS bound."""
        pts = generate_skewed(**SKEWED_BENCH).points
        tracemalloc.start()
        try:
            a = build_cell_assignment(pts, 2.0, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20, f"planner peak {peak / 2 ** 20:.1f} MiB"
        assert (a.num_cells, a.halo_points_total) == (8043, 1962)
        assert (a.super_side, a.num_super_cells) == (16, 610)
        assert check_packing(pts, 2.0, 4) == 16


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 90),
    d=st.sampled_from([1, 2, 3, 10]),
    partitions=st.integers(1, 6),
    eps=st.sampled_from([0.1, 0.5, 1.0, 2.5]),
    block=st.sampled_from([1, 7, 8192]),
    snap=st.booleans(),
)
def test_planner_equals_reference_property(seed, n, d, partitions, eps,
                                           block, snap):
    """Random inputs, with the row block shrunk so block boundaries fall
    inside cells, and optionally snapped to multiples of eps / 2 so many
    points are duplicates or sit exactly eps from a foreign box."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4, 4, (n, d)) * (1.0 if d < 10 else 0.3)
    if snap:
        pts = np.round(pts / (eps / 2)) * (eps / 2)
    check_packing(pts, eps, partitions)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cells_mod, "HALO_BLOCK_ROWS", block)
        assert_matches_reference(pts, eps, partitions)


class TestCellLocalDBSCAN:
    def payloads(self, n=250, partitions=3, eps=25.0, seed=9):
        data = generate_clustered(n, seed=seed)
        a = build_cell_assignment(data.points, eps, partitions)
        return data.points, a, a.payloads(data.points)

    def test_partials_are_locally_consistent(self):
        pts, a, payloads = self.payloads()
        tree = KDTree(pts)
        for payload in payloads:
            owned = set(payload.owned_ids.tolist())
            halo = set(payload.halo_ids.tolist())
            for c in cell_local_dbscan(payload, 25.0, 5):
                # Members are owned; seeds live in the halo; the founder
                # is the smallest *core* member (borders claimed by the
                # cluster may carry smaller ids) and is globally core.
                assert set(c.members) <= owned
                assert set(c.seeds) <= halo
                cores = [m for m in c.members if m not in c.borders]
                assert c.members[0] == min(cores)
                assert tree.query_radius(pts[c.members[0]], 25.0).size >= 5

    def test_batched_equals_per_point(self):
        """Cell frame: both accepted values give the same partials (one
        row source, DESIGN.md §6; the range frame is in
        test_neighbor_mode.py)."""
        pts, a, payloads = self.payloads()
        for payload in payloads:
            assert plain(cell_local_dbscan(
                payload, 25.0, 5, neighbor_mode="batched"
            )) == plain(cell_local_dbscan(
                payload, 25.0, 5, neighbor_mode="per_point"))

    def test_empty_partition(self):
        pts, a, payloads = self.payloads(partitions=3)
        empty = payloads[0]
        empty.owned_ids = empty.owned_ids[:0]
        empty.owned_points = empty.owned_points[:0]
        assert len(cell_local_dbscan(empty, 25.0, 5)) == 0

    def test_validation(self):
        _, _, payloads = self.payloads(n=50)
        with pytest.raises(ValueError):
            cell_local_dbscan(payloads[0], 25.0, 5, seed_policy="bogus")
        with pytest.raises(ValueError):
            cell_local_dbscan(payloads[0], 25.0, 5, neighbor_mode="bogus")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(0, 120),
    d=st.integers(1, 3),
    partitions=st.integers(1, 5),
    eps=st.floats(0.5, 3.0),
)
def test_halo_completeness_property(seed, n, d, partitions, eps):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, (n, d))
    a = build_cell_assignment(pts, eps, partitions)
    assert a.n == n
    if n == 0:
        return
    tree = KDTree(pts)
    for p in range(a.num_partitions):
        visible = set(a.owned[p].tolist()) | set(a.halo[p].tolist())
        for i in a.owned[p]:
            ball = tree.query_radius(pts[i], eps)
            assert set(ball.tolist()) <= visible
