"""RunConfig: the single validation point and the checkpoint key."""

import numpy as np
import pytest

from repro.dbscan import SparkDBSCAN, SpatialSparkDBSCAN
from repro.pipeline import HASHED_FIELDS, STAGE_MANIFEST, RunConfig


def cfg(**kw):
    base = dict(eps=25.0, minpts=5)
    base.update(kw)
    return RunConfig(**base)


class TestValidation:
    def test_valid_defaults(self):
        c = cfg()
        assert c.plan == "spark"
        assert c.resolved_master == "simulated[4]"

    @pytest.mark.parametrize("bad", [
        dict(eps=0.0),
        dict(eps=-1.0),
        dict(minpts=0),
        dict(num_partitions=0),
        dict(plan="hadoop"),
        dict(seed_policy="sometimes"),
        dict(merge_strategy="hope"),
        dict(neighbor_mode="psychic"),
        dict(max_neighbors=0),
        dict(min_cluster_size=-1),
        dict(leaf_size=0),
        dict(impl="gpu"),
        dict(max_rounds=0),
        dict(startup_overhead=-0.5),
        dict(eps=float("nan")),              # `nan <= 0` is false
        dict(num_partitions=2.5),            # not a count
        dict(num_partitions=True),           # a bool is not a count
        dict(minpts=np.float64(3.0)),
        dict(max_neighbors=False),
        dict(eps="25"),
        dict(startup_overhead=None),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad)

    def test_one_plan_field_replaces_three_selectors(self):
        for selector in ("algorithm", "partitioning", "merge_mode"):
            with pytest.raises(TypeError):
                cfg(**{selector: "spark"})
        assert len(RunConfig.field_names()) == 17
        assert len(HASHED_FIELDS) == 13

    def test_frozen(self):
        with pytest.raises(AttributeError):
            cfg().eps = 1.0

    def test_every_algorithm_accepted(self):
        for plan in STAGE_MANIFEST:
            assert cfg(plan=plan).plan == plan

    def test_explicit_master_wins(self):
        assert cfg(master="processes[2]").resolved_master == "processes[2]"

    def test_partitioning_validated(self):
        # Read-only, derived from the row.
        assert cfg(plan="cell").partitioning == "cells"
        assert cfg(plan="cell_edges").partitioning == "cells"
        assert cfg(plan="spatial").partitioning == "range"
        assert SparkDBSCAN(1.0, 3, partitioning="cells").config.plan == "cell"
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 3, partitioning="hex")
        # Cell partitioning re-bases the spark plan only: one line.
        with pytest.raises(ValueError, match=r"^[^\n]*partitioning[^\n]*$"):
            SpatialSparkDBSCAN(1.0, 3, partitioning="cells")

    def test_merge_mode_validated(self):
        assert cfg(plan="spatial_edges").merge_mode == "edges"
        assert cfg(plan="cell").merge_mode == "partials"
        assert SpatialSparkDBSCAN(
            1.0, 3, merge_mode="edges").config.plan == "spatial_edges"
        with pytest.raises(ValueError):
            SparkDBSCAN(1.0, 3, merge_mode="telepathy")
        # Range partitions have no edges row (the digest would be the
        # whole record): one line names the two rows that do.
        with pytest.raises(ValueError,
                           match=r"^[^\n]*spatial_edges, cell_edges[^\n]*$"):
            SparkDBSCAN(1.0, 3, merge_mode="edges")

    @pytest.mark.parametrize("given,stored", [
        (dict(minpts=np.int64(3), num_partitions=np.int32(2),
              leaf_size=np.uint8(16), max_neighbors=np.int64(40),
              min_cluster_size=np.int16(1), max_rounds=np.int64(7)),
         dict(minpts=3, num_partitions=2, leaf_size=16, max_neighbors=40,
              min_cluster_size=1, max_rounds=7)),
        (dict(eps=np.float32(0.5), startup_overhead=0),
         dict(eps=0.5, startup_overhead=0.0)),
        (dict(eps=2), dict(eps=2.0)),
    ])
    def test_numbers_are_stored_as_python_numbers(self, given, stored):
        c = cfg(**given)
        for name, value in stored.items():
            assert getattr(c, name) == value
            assert type(getattr(c, name)) is type(value), name

    def test_numpy_counts_key_a_checkpoint(self, tmp_path):
        pts = np.random.default_rng(0).random((30, 2))
        est = SparkDBSCAN(0.2, np.int64(3), num_partitions=np.int64(2),
                          checkpoint_dir=str(tmp_path))
        assert np.array_equal(est.fit(pts).labels,
                              SparkDBSCAN(0.2, 3, num_partitions=2).fit(pts).labels)
        assert cfg(minpts=np.int64(5)).content_hash(pts) == cfg().content_hash(pts)

    @pytest.mark.parametrize("bad", [
        dict(plan="naive_edges"),            # SEED pipelines only: no row
        dict(plan="mapreduce_edges"),
        dict(merge_strategy="paper"),        # edge merge is union-find
        dict(keep_partials=True),            # executors never ship partials
        dict(max_neighbors=40),              # truncation breaks eps-symmetry
    ])
    def test_edges_mode_incompatibilities(self, bad):
        with pytest.raises(ValueError):
            cfg(**{"plan": "spatial_edges", **bad})


class TestContentHash:
    def test_deterministic(self):
        pts = np.arange(20, dtype=np.float64).reshape(10, 2)
        assert cfg().content_hash(pts) == cfg().content_hash(pts)

    @pytest.mark.parametrize("change", [
        dict(eps=26.0),
        dict(minpts=6),
        dict(num_partitions=8),
        dict(plan="spatial"),
        dict(seed_policy="one_per_partition"),
        dict(merge_strategy="paper"),
        dict(min_cluster_size=2),
        dict(leaf_size=32),
        dict(neighbor_mode="batched"),
        dict(impl="hashtable"),
        dict(max_neighbors=40),
        dict(plan="cell"),
        dict(plan="spatial_edges"),
    ])
    def test_semantic_field_changes_hash(self, change):
        pts = np.arange(20, dtype=np.float64).reshape(10, 2)
        assert cfg().content_hash(pts) != cfg(**change).content_hash(pts)

    @pytest.mark.parametrize("change", [
        dict(master="processes[2]"),
        dict(sanitize=True),
        dict(keep_partials=True),
        dict(tmp_dir="/tmp/elsewhere"),
    ])
    def test_runtime_knobs_do_not_change_hash(self, change):
        pts = np.arange(20, dtype=np.float64).reshape(10, 2)
        assert cfg().content_hash(pts) == cfg(**change).content_hash(pts)

    def test_data_changes_hash(self):
        a = np.arange(20, dtype=np.float64).reshape(10, 2)
        b = a.copy()
        b[3, 1] += 1e-9
        assert cfg().content_hash(a) != cfg().content_hash(b)

    def test_semantic_dict_covers_hashed_fields(self):
        assert set(cfg().semantic_dict()) == set(HASHED_FIELDS)

    def test_hashed_fields_are_real_fields(self):
        assert set(HASHED_FIELDS) <= set(RunConfig.field_names())
