"""RunConfig: the single validation point and the checkpoint key."""

import numpy as np
import pytest

from repro.pipeline import ALGORITHMS, HASHED_FIELDS, RunConfig


def cfg(**kw):
    base = dict(eps=25.0, minpts=5)
    base.update(kw)
    return RunConfig(**base)


class TestValidation:
    def test_valid_defaults(self):
        c = cfg()
        assert c.algorithm == "spark"
        assert c.resolved_master == "simulated[4]"

    @pytest.mark.parametrize("bad", [
        dict(eps=0.0),
        dict(eps=-1.0),
        dict(minpts=0),
        dict(num_partitions=0),
        dict(algorithm="hadoop"),
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
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            cfg(**bad)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            cfg().eps = 1.0

    def test_every_algorithm_accepted(self):
        for algo in ALGORITHMS:
            assert cfg(algorithm=algo).algorithm == algo

    def test_explicit_master_wins(self):
        assert cfg(master="processes[2]").resolved_master == "processes[2]"

    def test_partitioning_validated(self):
        assert cfg(partitioning="cells").partitioning == "cells"
        with pytest.raises(ValueError):
            cfg(partitioning="hex")
        # Cell partitioning re-bases the spark plan only.
        with pytest.raises(ValueError):
            cfg(algorithm="naive", partitioning="cells")

    def test_merge_mode_validated(self):
        assert cfg(merge_mode="edges").merge_mode == "edges"
        with pytest.raises(ValueError):
            cfg(merge_mode="telepathy")

    @pytest.mark.parametrize("bad", [
        dict(algorithm="naive"),             # SEED pipelines only
        dict(algorithm="mapreduce"),
        dict(merge_strategy="paper"),        # edge merge is union-find
        dict(keep_partials=True),            # executors never ship partials
        dict(max_neighbors=40),              # truncation breaks eps-symmetry
    ])
    def test_edges_mode_incompatibilities(self, bad):
        with pytest.raises(ValueError):
            cfg(merge_mode="edges", **bad)


class TestContentHash:
    def test_deterministic(self):
        pts = np.arange(20, dtype=np.float64).reshape(10, 2)
        assert cfg().content_hash(pts) == cfg().content_hash(pts)

    @pytest.mark.parametrize("change", [
        dict(eps=26.0),
        dict(minpts=6),
        dict(num_partitions=8),
        dict(algorithm="spatial"),
        dict(seed_policy="one_per_partition"),
        dict(merge_strategy="paper"),
        dict(min_cluster_size=2),
        dict(leaf_size=32),
        dict(neighbor_mode="batched"),
        dict(impl="hashtable"),
        dict(max_neighbors=40),
        dict(partitioning="cells"),
        dict(merge_mode="edges"),
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
