"""Point ids in one dtype, chosen from the point count (`id_dtype`).

Below 2³¹ points a task writes its record's members, seeds, founders
and orphan rows as int32, and every stage after it — the collect, the
checkpoint, the projections, the MapReduce reducer, the merge and the
spatial remap — keeps them so.  What a caller sees does not move: int64
labels, `PartialCluster` views with int64 seeds in the same founder
order, and the canonical collect gauges to the byte.
"""

import hashlib

import numpy as np
import pytest

from repro.data import generate_scattered
from repro.dbscan import (
    ClusterTable,
    MapReduceDBSCAN,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    apply_gid_map,
    merge_partials,
    union_find_merge,
)
from repro.dbscan import partial
from repro.dbscan.partial import seed_key_dtype
from repro.kdtree.kdtree import id_dtype
from repro.obs import MetricsRegistry
from repro.pipeline import stages_mapreduce
from tests.dbscan.test_collect_record import columns
from tests.dbscan.test_witness_once import FIXED, expansions

#: The record's columns that hold point ids.
ID_COLUMNS = ("members", "seeds", "founder", "orphans")
INT32 = dict.fromkeys(ID_COLUMNS, np.dtype(np.int32))

FRONTENDS = [(SparkDBSCAN, "range"), (SpatialSparkDBSCAN, "range"),
             (SparkDBSCAN, "cells")]


def id_dtypes(table):
    return {f: getattr(table, f).dtype for f in ID_COLUMNS}


@pytest.fixture(scope="module")
def paper():
    """3 200 points of the paper's shape (eps 25, minpts 5)."""
    return generate_scattered(n=3_200, d=10, points_per_cluster=200,
                              cluster_std=5.0, noise_fraction=0.10,
                              seed=1).points


def test_the_id_dtype_is_int32_below_2_31_points():
    """Decided from ``n`` alone; nothing of that size is allocated."""
    assert id_dtype(0) == id_dtype(409_600) == id_dtype(2**31 - 1) == np.int32
    assert id_dtype(2**31) == id_dtype(2**40) == np.int64


def test_seed_keys_are_int32_while_m_plus_one_times_n_tree_fits():
    """``(m + 1) · n_tree < 2³¹``: a paper-size task (12 800 owned of
    409 600 points, a few hundred founders) keys in int32, where the
    old ``n_own · n_tree`` rule fell back to int64."""
    n_tree = 1 << 16
    assert seed_key_dtype((1 << 15) - 2, n_tree) == np.int32
    assert seed_key_dtype((1 << 15) - 1, n_tree) == np.int64
    assert seed_key_dtype(400, 409_600) == np.int32


@pytest.mark.parametrize("frame", ["range", "cells"])
@pytest.mark.parametrize("witness", [False, True])
def test_int64_seed_keys_give_the_same_tables(monkeypatch, frame, witness):
    """The fallback keys, forced on a small input, build the very same
    tables (int32 ids included) as the int32 keys."""
    pts, eps, minpts, p = FIXED
    want = [columns(t) for t in expansions(frame, pts, eps, minpts, p,
                                           witness)]
    monkeypatch.setattr(partial, "seed_key_dtype", lambda m, n: np.int64)
    got = [columns(t) for t in expansions(frame, pts, eps, minpts, p, witness)]
    assert got == want


@pytest.mark.parametrize("estimator, partitioning", FRONTENDS)
def test_the_collected_record_holds_int32_ids(estimator, partitioning):
    """Range, spatial (its ids remapped back by `RelabelFilter`) and cell
    plans, with orphan rows."""
    pts, eps, minpts, p = FIXED
    state = estimator(eps, minpts, num_partitions=p, partitioning=partitioning,
                      keep_partials=True)._fit_state(pts)
    assert len(state.partials.seeds) and len(state.partials.orphans)
    assert id_dtypes(state.partials) == INT32
    assert state.labels.dtype == np.int64


@pytest.mark.parametrize("partitioning", ["range", "cells"])
def test_the_projections_hold_int32_ids(partitioning):
    pts, eps, minpts, p = FIXED
    state = SparkDBSCAN(eps, minpts, num_partitions=p, partitioning=partitioning,
                        merge_mode="edges")._fit_state(pts)
    digests = state.extras["digest"]
    assert sum(len(d.orphans) for d in digests)
    assert [id_dtypes(d) for d in digests] == [INT32] * p


def test_the_mapreduce_reducer_merges_int32_ids(monkeypatch):
    """The tables cross the MapReduce spill files in their dtype."""
    pts, eps, minpts, _ = FIXED
    seen = []
    merge = stages_mapreduce.merge_partials

    def record(partials, n, *args, **kwargs):
        seen.append(partials)
        return merge(partials, n, *args, **kwargs)

    monkeypatch.setattr(stages_mapreduce, "merge_partials", record)
    result = MapReduceDBSCAN(eps, minpts, num_maps=4,
                             startup_overhead=0.0).fit(pts)
    (record,) = seen
    assert id_dtypes(record) == INT32
    np.testing.assert_array_equal(
        result.labels, SparkDBSCAN(eps, minpts, num_partitions=4).fit(pts).labels)


@pytest.mark.parametrize("frame", ["range", "cells"])
def test_int64_and_int32_tables_merge_to_the_same_labels(frame):
    """Every other task's table rebuilt by hand as int64 (full seeds, so
    no orphan rows are lost): the record, the tasks' list read in place
    and the point-sorted probe all label as the int32 tables do."""
    pts, eps, minpts, p = FIXED
    n = len(pts)
    tables = expansions(frame, pts, eps, minpts, p, False)
    mixed = [ClusterTable.from_partials(t) if k % 2 else t
             for k, t in enumerate(tables)]
    assert {t.seeds.dtype for t in mixed} == {np.dtype(np.int32),
                                              np.dtype(np.int64)}
    want = merge_partials(ClusterTable.concat(tables), n).labels
    record = ClusterTable.concat(mixed)
    assert record.seeds.dtype == np.int64
    np.testing.assert_array_equal(merge_partials(record, n).labels, want)
    np.testing.assert_array_equal(
        apply_gid_map(record, union_find_merge(mixed), n), want)


def partials_digest(partials):
    """Every field of every view, in list order."""
    rows = [(c.partition, c.local_id, c.lo, c.hi, list(c.members),
             c.seeds.tolist(), sorted(c.borders), c.down_seeds, c.status)
            for c in partials]
    assert all(c.seeds.dtype == np.int64 for c in partials)
    return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: `partials_digest` of ``keep_partials`` as recorded with int64 records.
KEPT_PARTIALS = {
    ("SparkDBSCAN", "range"): (112, "c0daee59282694d7"),
    ("SpatialSparkDBSCAN", "range"): (20, "efca2a41efc33afc"),
    ("SparkDBSCAN", "cells"): (22, "db9e8e774a698e1f"),
}


@pytest.mark.parametrize("estimator, partitioning", FRONTENDS)
def test_kept_partials_are_those_of_int64_records(paper, estimator,
                                                  partitioning):
    """Same clusters, same founder order, same fields, int64 seeds."""
    result = estimator(25.0, 5, num_partitions=8, partitioning=partitioning,
                       keep_partials=True).fit(paper)
    assert partials_digest(result.partials) == KEPT_PARTIALS[
        estimator.__name__, partitioning]


#: ``repro_driver_collect_bytes`` per merge mode, as recorded with int64
#: records: the gauges pickle Python ints, so the dtype never shows.
COLLECT_BYTES = {"partials": 44_322, "edges": 55_610}


@pytest.mark.parametrize("merge_mode", ["partials", "edges"])
def test_the_collect_gauge_is_unchanged(paper, merge_mode):
    registry = MetricsRegistry()
    SparkDBSCAN(25.0, 5, num_partitions=8, merge_mode=merge_mode,
                metrics_registry=registry).fit(paper)
    assert registry.get("repro_driver_collect_bytes").value() == (
        COLLECT_BYTES[merge_mode])
