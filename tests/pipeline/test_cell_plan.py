"""The cell plan must reproduce `SparkDBSCAN` byte for byte — with no
global index and nothing dataset-sized ever broadcast.

Byte-identity argument (DESIGN.md §10): the range plan's collected
partials are founder-sorted, and each global cluster's minimal founder
is its minimal core point regardless of how the cluster was decomposed
across partitions — so `CellCollect`'s founder sort reproduces the
range plan's global numbering exactly.
"""

import json

import numpy as np
import pytest

from repro.data import generate_clustered, generate_skewed
from repro.dbscan import SparkDBSCAN
from repro.dbscan import cells as cells_mod
from repro.dbscan.cells import build_cell_assignment
from repro.kdtree import KDTree
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline import (
    CellPartition,
    CheckpointStore,
    PipelineCrash,
    PipelineState,
)

EPS, MINPTS = 25.0, 5

#: `skewed_cells_edges` at its benchmark size (n = 15 000), minus the seed.
SKEWED_BENCH = dict(n=15000, d=2, num_clusters=10, zipf_exponent=1.2,
                    cluster_std=20, noise_fraction=0.05, shuffle=False)

DATASETS = {
    "quest": lambda: generate_clustered(500, num_clusters=4,
                                        cluster_std=8.0, seed=11),
    "skew": lambda: generate_skewed(600, d=10, seed=3),
    "skew-unshuffled": lambda: generate_skewed(600, d=10, seed=3,
                                               shuffle=False),
}


def fit(points, **kw):
    kw.setdefault("num_partitions", 4)
    return SparkDBSCAN(EPS, MINPTS, **kw).fit(points)


class TestByteIdentity:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_labels_identical_to_range_plan(self, name):
        points = DATASETS[name]().points
        base = fit(points)
        cell = fit(points, partitioning="cells")
        assert np.array_equal(base.labels, cell.labels)

    def test_identical_under_batched_kernels(self):
        points = DATASETS["skew"]().points
        base = fit(points, neighbor_mode="batched")
        cell = fit(points, neighbor_mode="batched", partitioning="cells")
        assert np.array_equal(base.labels, cell.labels)

    def test_single_partition(self):
        points = DATASETS["quest"]().points
        base = fit(points, num_partitions=1)
        cell = fit(points, num_partitions=1, partitioning="cells")
        assert np.array_equal(base.labels, cell.labels)

    def test_merge_counts_consistent(self):
        points = DATASETS["quest"]().points
        cell = fit(points, partitioning="cells", keep_partials=True)
        # Partials arrive founder-sorted off the collect stage.
        founders = [c.members[0] for c in cell.partials]
        assert founders == sorted(founders)
        assert cell.num_partial_clusters == len(cell.partials)


class TestNoBroadcast:
    def test_cell_plan_broadcasts_nothing(self):
        """The point of the plan: the range plan broadcasts the global
        kd-tree (a ``driver.broadcast`` span, with nbytes metered when
        the broadcast is serialized); the cell plan must show no
        broadcast span and no broadcast bytes at all."""
        points = DATASETS["quest"]().points
        reg_range, tr_range = MetricsRegistry(), Tracer()
        fit(points, metrics_registry=reg_range, tracer=tr_range)
        assert any(s.name == "driver.broadcast" for s in tr_range.spans)

        reg_cell, tr_cell = MetricsRegistry(), Tracer()
        fit(points, partitioning="cells", metrics_registry=reg_cell,
            tracer=tr_cell)
        assert reg_cell.get("repro_broadcast_bytes_total") is None
        assert not any(s.name == "driver.broadcast" for s in tr_cell.spans)

    def test_no_broadcast_bytes_under_process_backend(self):
        """Under ``processes[k]`` broadcasts spill to disk and the
        engine meters their serialized size — the range plan pays for
        the whole-dataset kd-tree, the cell plan pays nothing."""
        points = DATASETS["quest"]().points
        reg_range = MetricsRegistry()
        fit(points, master="processes[2]", num_partitions=2,
            metrics_registry=reg_range)
        bc = reg_range.get("repro_broadcast_bytes_total")
        assert bc is not None and bc.value() > points.nbytes

        reg_cell = MetricsRegistry()
        cell = fit(points, master="processes[2]", num_partitions=2,
                   partitioning="cells", metrics_registry=reg_cell)
        assert reg_cell.get("repro_broadcast_bytes_total") is None
        base = fit(points, num_partitions=2)
        assert np.array_equal(base.labels, cell.labels)

    def test_partition_span_names_the_packing(self):
        points = DATASETS["quest"]().points
        tracer = Tracer()
        fit(points, partitioning="cells", tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "driver.cell_partition"]
        a = build_cell_assignment(points, EPS, 4)
        assert a.super_side > 1
        assert span.labels["super_side"] == a.super_side
        assert span.labels["num_super_cells"] == a.num_super_cells

    def test_halo_telemetry_exported(self):
        points = DATASETS["skew"]().points
        reg = MetricsRegistry()
        fit(points, partitioning="cells", metrics_registry=reg)
        halo_pts = reg.get("repro_cell_halo_points")
        halo_bytes = reg.get("repro_cell_halo_bytes")
        payload_bytes = reg.get("repro_cell_payload_bytes")
        assert halo_pts is not None and halo_pts.value() > 0
        assert halo_bytes is not None and halo_bytes.value() > 0
        # Halo replication is strictly part of the total payload.
        assert payload_bytes.value() > halo_bytes.value()


class TestCheckpointResume:
    @pytest.mark.parametrize("crash_after", ["CellPartition",
                                             "CollectPartials"])
    def test_crash_then_resume_matches_direct_run(self, tmp_path,
                                                  crash_after):
        points = DATASETS["quest"]().points
        direct = fit(points, partitioning="cells")
        ckpt = str(tmp_path / "ckpt")
        with pytest.raises(PipelineCrash):
            fit(points, partitioning="cells", checkpoint_dir=ckpt,
                fail_after=crash_after)
        resumed = fit(points, partitioning="cells", checkpoint_dir=ckpt,
                      resume=True)
        assert np.array_equal(direct.labels, resumed.labels)

    def test_checkpoint_without_super_side_loads_as_single_cells(
            self, tmp_path):
        """A `CellPartition` artifact written before super-cell packing
        has no ``super_side``: it loads as a single-eps-cell plan, array
        for array, and a resume runs on its ownership."""
        points = DATASETS["quest"]().points
        ckpt = tmp_path / "ckpt"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cells_mod, "SUPER_SIDES", ())  # the k = 1 plan
            old = build_cell_assignment(points, EPS, 4)
            direct = fit(points, partitioning="cells")
            with pytest.raises(PipelineCrash):
                fit(points, partitioning="cells", checkpoint_dir=str(ckpt),
                    fail_after="CellPartition")
        (artifact,) = ckpt.glob("*/CellPartition.json")
        doc = json.loads(artifact.read_text())
        assert doc.pop("super_side") == 1
        assert doc.pop("num_super_cells") == old.num_cells
        artifact.write_text(json.dumps(doc))

        run_key = json.loads(
            (artifact.parent / "manifest.json").read_text())["run_key"]
        config = SparkDBSCAN(EPS, MINPTS, partitioning="cells").config
        state = PipelineState(config=config, tracer=Tracer())
        CellPartition().load(state, CheckpointStore(str(ckpt), run_key))
        a = state.extras["cell_assignment"]
        assert (a.super_side, a.num_super_cells) == (1, old.num_cells)
        for got, want in zip(a.owned + a.halo + a.halo_home,
                             old.owned + old.halo + old.halo_home):
            assert np.array_equal(got, want)
        resumed = fit(points, partitioning="cells", checkpoint_dir=str(ckpt),
                      resume=True)
        assert np.array_equal(direct.labels, resumed.labels)

    def test_partitioning_changes_checkpoint_key(self, tmp_path):
        """Cell and range runs must never share checkpoints."""
        points = DATASETS["quest"]().points
        a = SparkDBSCAN(EPS, MINPTS).config.content_hash(points)
        b = SparkDBSCAN(EPS, MINPTS,
                        partitioning="cells").config.content_hash(points)
        assert a != b


class TestBorderTieBreak:
    """Satellite: a border point exactly on a cell boundary, within eps
    of core points in two different clusters (owned by two different
    partitions), must get one deterministic label.

    Tie-break (DESIGN.md §10): a contested non-core point is labelled by
    the partial that *contains it as a member* — its owning partition's
    expansion — and only a point claimed by no partial falls back to
    first-come among the founder-sorted partials listing it as a seed.
    """

    # 1-D, eps=1: cluster A spans [0.5, 1.1], cluster B spans
    # [2.9, 3.5]; point 2.0 sits exactly on the cell-1|2 boundary, with
    # exactly one core neighbour on each side (1.1 and 2.9, both at
    # distance 0.9) — three neighbours including itself, under
    # minpts=4, so it is a border point of both clusters while the
    # clusters themselves stay 1.8 apart and never merge.
    POINTS = np.array(
        [[0.5], [0.6], [0.7], [1.1], [2.0], [2.9], [3.3], [3.4], [3.5]]
    )

    def labels(self, **kw):
        return SparkDBSCAN(1.0, 4, num_partitions=2, **kw).fit(
            self.POINTS).labels

    def test_scenario_shape(self):
        labels = self.labels()
        # Two clusters; the contested point is not noise.
        assert labels[0] == labels[3] != labels[5]
        assert labels[5] == labels[8]
        assert labels[4] >= 0

    def test_deterministic_with_documented_tie_break(self):
        base = self.labels()
        runs = [self.labels(partitioning="cells") for _ in range(3)]
        # Deterministic: every cell-plan run yields the same labels.
        for labels in runs:
            assert np.array_equal(runs[0], labels)
        cell = runs[0]
        # The contested point gets exactly one cluster's label: that of
        # its one core neighbour (1.1 or 2.9) in the partition the
        # planner's packing rule gives 2.0 — that partition's expansion
        # claims it as a border member.
        home = build_cell_assignment(self.POINTS, 1.0, 2).to_partitioner()
        local = [c for c in (3, 5) if home.partition(c) == home.partition(4)]
        assert len(local) == 1
        assert cell[4] == cell[local[0]]
        # Everything *un*contested is byte-identical to the range plan.
        # The contested point itself may differ: a border point
        # reachable from two clusters legitimately belongs to whichever
        # claims it first (classic DBSCAN order-dependence, scoped here
        # to exactly this point).
        rest = np.arange(len(base)) != 4
        assert np.array_equal(base[rest], cell[rest])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_skewed_benchmark_differs_only_at_contested_borders(self, seed):
        """The `skewed_cells_edges` input (super-cell side 16): every label
        that differs from the range plan is a non-core point with cores
        of two or more clusters within eps, and there are some."""
        eps = 2.0
        points = generate_skewed(seed=seed, **SKEWED_BENCH).points
        kw = dict(num_partitions=4, merge_mode="edges",
                  neighbor_mode="batched")
        base = SparkDBSCAN(eps, MINPTS, **kw).fit(points).labels
        cell = SparkDBSCAN(eps, MINPTS, partitioning="cells",
                           **kw).fit(points).labels
        tree = KDTree(points)
        core = tree.count_radius_batch(points, eps) >= MINPTS
        assert np.array_equal(base[core], cell[core])
        moved = np.flatnonzero(base != cell)
        assert 0 < len(moved) < 100
        for i in moved:
            ball = tree.query_radius(points[i], eps)
            assert not core[i]
            assert len(set(base[ball[core[ball]]].tolist())) >= 2
