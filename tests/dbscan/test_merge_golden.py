"""Golden record of the driver merge, taken from the two per-seed loops.

`merge_partials` and `merge_edges` are adapters over one union-find
core, so the edges-vs-partials identity tests (`test_merge_edges.py`,
`test_properties.py`) pass when both drift together.  This file pins
them to what the pre-collapse loops produced on one fixed 240-point
input x ``min_cluster_size`` in {0, 3, 8} x founder-sorted and shuffled list
order — ``labels``, ``num_merges``, ``num_global_clusters``, ``groups``
for `merge_partials`; ``gid_of`` (the plan's gid columns as
``[partition, local_id, gid]`` rows, in column order), sorted
``claims``, ``num_edges``, ``num_merges``, ``groups`` for `merge_edges`
— and to the checkpoint JSON documents the five tail stages wrote for
one run of the same input in each merge mode: `SparkDBSCAN` in
partials mode, `SpatialSparkDBSCAN` in edges mode.

``merge_golden.json`` was written by running this module as a script
(``PYTHONPATH=src python tests/dbscan/test_merge_golden.py``) at commit
bfeea70; rerunning it rewrites the file from whatever code is on the
path, so only do that to record a deliberate change of the answer.  It
was re-recorded once, when neighbour rows went to kd-tree storage order:
the ``CollectPartials`` / ``CollectEdges`` documents list the same
members, seeds and exports in another order, and every merge record and
the other three documents stayed byte-identical.  It was re-recorded a
second time, the same way, when label propagation replaced the expansion
BFS (members founder first, then ascending; seeds ascending): per
partial the same fields, founder, member set and seed set, per digest
the same summaries, seed sets and export set, and everything else
byte-identical.  It was re-recorded a third time when the pipeline began
shipping only up-pointing seeds plus orphan rows (DESIGN.md §11,
"Witness each pair once"): in the ``CollectPartials`` / ``CollectEdges``
documents every partial's and digest's seeds became exactly the old
seeds whose home partition is above its own, ``down_seeds`` counts the
rest (so the summaries' ``n_seeds`` are unchanged), members, borders and
exports are equal, and the new ``orphans`` table equals the brute-force
set of (point in no partial, eps-neighbour homed in a higher partition)
pairs; in
``MergeEdges`` only ``num_seeds`` (1261 -> 642) and ``num_edges`` (1255
-> 638) moved.  The ``merge_partials`` / ``merge_edges`` records and the
other two documents stayed byte-identical.

It was re-recorded a fourth time when both collect stages began saving
their `ClusterTable` records as npz columns under a JSON header of
``n`` and the counters: the two collect records are now that header
plus the npz columns (``<stage>.npz``).  Read back through
`ClusterTable.from_arrays` and compared with the JSON documents they
replace: per partial cluster the same cid, founder, ``lo``/``hi``,
member set, border set, seed set and ``down_seeds`` (65 clusters, in the
same founder order, members and seeds even in the same order), the
same orphan table (6 rows); per partition the same summaries, seed
sets, export set and orphan table.  Every ``merge_partials`` /
``merge_edges`` record and the ``MergePartials`` / ``MergeEdges`` /
``ApplyGidMap`` documents stayed byte-identical.

Checkpoint format 2 then dropped that JSON header and put the tasks'
op counts in the npz, as an ``ops`` column pair.  The file was not
re-recorded for it: the test compares the record minus the two
retired headers (`RETIRED`) with the documents minus the ``ops``
columns, which it checks on their own against the kernel's tables
(`test_collect_records_carry_each_tasks_op_counts`).

It was re-recorded a fifth time when the range head lost its edges row
(``spark_edges``: index ranges make nearly every member a boundary
member, so the digest was the whole record) and the merge plan's
``(partition, local_id) -> gid`` dict became three int columns.  The
edges documents — ``CollectEdges.npz``, ``MergeEdges`` and
``ApplyGidMap`` — now come from `SpatialSparkDBSCAN` on the same 240
points, so they describe other partitions and other partial clusters;
the retired ``CollectEdges`` header went with them.  Every
``merge_partials`` / ``merge_edges`` record, with its ``gid_of`` rows
now read off the columns, and the partials-mode documents stayed
byte-identical.  `test_the_merge_edges_checkpoint_layout_applies` holds
the ``MergeEdges`` document to the layout `MergeEdges.load` reads.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.dbscan import (
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    digest_from_partials,
    local_dbscan,
    merge_edges,
    merge_partials,
    relabel_canonical,
)
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree
from repro.pipeline import PipelineCrash

GOLDEN = Path(__file__).with_name("merge_golden.json")
#: The collect stages' JSON headers (``n`` and the op counters) that
#: checkpoint format 1 wrote and format 2 does not.
RETIRED = ("checkpoint/CollectPartials", "checkpoint/CollectEdges")
EPS, MINPTS, PARTITIONS = 1.5, 4, 6
#: Per merge mode: the frontend that wrote the documents, and its stages.
TAIL_DOCS = {
    "partials": (SparkDBSCAN, ("CollectPartials", "MergePartials")),
    "edges": (SpatialSparkDBSCAN,
              ("CollectEdges", "MergeEdges", "ApplyGidMap")),
}


def golden_points() -> np.ndarray:
    """240 points in d=2: four clumps, uniform noise, shuffled — every
    clump straddles several of the six range cuts."""
    rng = np.random.default_rng(20160523)
    centres = np.array([[0.0, 0.0], [6.0, 1.0], [2.0, 7.0], [9.0, 8.0]])
    clumps = [rng.normal(c, 1.1, (50, 2)) for c in centres]
    noise = rng.uniform(-3.0, 12.0, (40, 2))
    pts = np.vstack(clumps + [noise])
    return np.round(pts[rng.permutation(len(pts))], 6)


def golden_tables(spatial: bool = False) -> list:
    """The six tasks' `ClusterTable` records, full seeds; ``spatial``:
    over the points renumbered in leaf order, as `SpatialSparkDBSCAN`
    partitions them."""
    pts = golden_points()
    tree = KDTree(pts, leaf_size=64 if spatial else 8)
    if spatial:
        tree.rebase()
        pts = tree.points
    part = IndexRangePartitioner(len(pts), PARTITIONS)
    return [local_dbscan(pid, range(*part.range_of(pid)), pts, tree,
                         EPS, MINPTS, part) for pid in range(PARTITIONS)]


def golden_partials(order: str) -> list:
    partials = [c for table in golden_tables() for c in table]
    partials.sort(key=lambda c: c.members[0])
    if order == "shuffled":
        rng = np.random.default_rng(4)
        partials = [partials[i] for i in rng.permutation(len(partials))]
    return partials


def merge_records() -> dict:
    n = len(golden_points())
    out = {}
    for order in ("founder", "shuffled"):
        for size in (0, 3, 8):
            partials = golden_partials(order)
            o = merge_partials(partials, n, min_cluster_size=size)
            out[f"merge_partials/{order}/min{size}"] = {
                "labels": o.labels.tolist(),
                "num_merges": o.num_merges,
                "num_global_clusters": o.num_global_clusters,
                "groups": o.groups,
            }
            plan = merge_edges(digest_from_partials(partials),
                               min_cluster_size=size)
            out[f"merge_edges/{order}/min{size}"] = {
                "gid_of": np.c_[plan.partition, plan.local_id,
                                plan.gid].tolist(),
                "claims": [[s, g] for s, g in sorted(plan.claims.items())],
                "num_edges": plan.num_edges,
                "num_merges": plan.num_merges,
                "groups": plan.groups,
            }
    return out


def checkpoint_documents() -> dict:
    """The tail stages' JSON artifacts, as text, for one run per mode,
    and the collect stages' npz columns as lists."""
    pts = golden_points()
    out = {}
    for mode, (frontend, stages) in TAIL_DOCS.items():
        with tempfile.TemporaryDirectory() as root:
            frontend(EPS, MINPTS, num_partitions=PARTITIONS,
                     merge_mode=mode, checkpoint_dir=root).fit(pts)
            (run_dir,) = Path(root).iterdir()
            for stage in stages:
                if stage.startswith("Collect"):
                    with np.load(run_dir / f"{stage}.npz") as arrays:
                        out[f"checkpoint/{stage}.npz"] = {
                            k: arrays[k].tolist() for k in arrays.files}
                else:
                    out[f"checkpoint/{stage}"] = (
                        run_dir / f"{stage}.json").read_text()
    return out


def split_ops(docs: dict) -> dict:
    """The collect records' ``ops`` columns, taken out of ``docs``."""
    return {stage: {k: docs[f"checkpoint/{stage}.npz"].pop(k)
                    for k in ("ops", "ops_len")}
            for stage in ("CollectPartials", "CollectEdges")}


def golden_view() -> dict:
    """What the record pins: every merge record and checkpoint document,
    the ``ops`` columns aside."""
    docs = merge_records() | checkpoint_documents()
    split_ops(docs)
    return docs


def _dump(doc: dict) -> str:
    """Canonical text: one record per line."""
    rows = (f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
            for key in sorted(doc))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_both_adapters_reproduce_the_golden_record_byte_for_byte():
    text = GOLDEN.read_text()
    golden = json.loads(text)
    assert _dump(golden) == text
    for key in RETIRED:
        golden.pop(key, None)
    assert _dump(golden_view()) == _dump(golden)


def test_collect_records_carry_each_tasks_op_counts():
    """Both collect records store the six tasks' counts in task order:
    the partials record as one table's six rows, the edges record (the
    spatial plan's tasks) as six projections of one row each."""
    ops = split_ops(checkpoint_documents())
    for stage, spatial, ops_len in (
            ("CollectPartials", False, [PARTITIONS]),
            ("CollectEdges", True, [1] * PARTITIONS)):
        want = [[pid, *vars(c).values()] for table in golden_tables(spatial)
                for pid, c in table.op_counters()]
        assert [row[0] for row in want] == list(range(PARTITIONS))
        assert ops[stage] == {"ops": want, "ops_len": ops_len}


def test_merge_plan_values_are_plain_python_ints():
    """`EdgeMergePlan`'s counts, claims and groups go into checkpoint
    JSON as they are, and its gid columns as int rows: a numpy scalar
    would fail the first."""
    plan = merge_edges(digest_from_partials(golden_partials("founder")))
    ints = [plan.num_partials, plan.num_seeds, plan.num_edges,
            plan.num_merges, plan.num_global_clusters]
    for s, g in plan.claims.items():
        ints += [s, g]
    for group in plan.groups:
        ints += group
    assert {type(v) for v in ints} == {int}
    for column in (plan.partition, plan.local_id, plan.gid):
        assert column.dtype == np.int64 and len(column) == plan.num_partials
    json.dumps(plan.groups)


def test_the_merge_edges_checkpoint_layout_applies(tmp_path):
    """The golden ``MergeEdges`` document, resumed through
    `MergeEdges.load` in place of the one the run wrote, drives
    `ApplyGidMap` to the golden outcome document and to the labels of an
    uninterrupted run — which partition the points as the golden
    `merge_partials` record does.  A change of the document's layout on
    either side fails here."""
    golden = json.loads(GOLDEN.read_text())
    pts = golden_points()

    def model(**kw):
        return SpatialSparkDBSCAN(EPS, MINPTS, num_partitions=PARTITIONS,
                                  merge_mode="edges", **kw)

    with pytest.raises(PipelineCrash):
        model(checkpoint_dir=str(tmp_path), fail_after="MergeEdges").fit(pts)
    (run_dir,) = tmp_path.iterdir()
    (run_dir / "MergeEdges.json").write_text(golden["checkpoint/MergeEdges"])
    resumed = model(checkpoint_dir=str(tmp_path), resume=True)
    state = resumed._fit_state(pts)
    assert state.stage_status["MergeEdges"] == "restored"
    assert state.stage_status["ApplyGidMap"] == "run"
    assert (run_dir / "ApplyGidMap.json").read_text() == (
        golden["checkpoint/ApplyGidMap"])
    np.testing.assert_array_equal(state.labels, model().fit(pts).labels)
    want = np.array(golden["merge_partials/founder/min0"]["labels"])
    assert relabel_canonical(state.labels).tolist() == (
        relabel_canonical(want).tolist())


def test_golden_input_exercises_merges_claims_and_the_size_filter():
    """The record is only worth pinning if it is not trivially empty."""
    golden = json.loads(GOLDEN.read_text())
    full = golden["merge_edges/founder/min0"]
    assert full["num_merges"] > 5 and full["num_edges"] > full["num_merges"]
    assert len(full["claims"]) > 3
    filtered = golden["merge_edges/founder/min8"]
    assert len(filtered["gid_of"]) < len(full["gid_of"])
    assert (golden["merge_partials/shuffled/min0"]["groups"]
            != golden["merge_partials/founder/min0"]["groups"])


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_view()))
    print(f"wrote {GOLDEN}")
