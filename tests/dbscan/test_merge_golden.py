"""Golden record of the driver merge, taken from the two per-seed loops.

`merge_union_find` and `merge_edges` are adapters over one union-find
core, so the edges-vs-partials identity tests (`test_merge_edges.py`,
`test_properties.py`) pass when both drift together.  This file pins
them to what the pre-collapse loops produced on one fixed 240-point
input x ``min_cluster_size`` in {0, 3, 8} x founder-sorted and shuffled list
order — ``labels``, ``num_merges``, ``num_global_clusters``, ``groups``
for `merge_partials`; ``gid_of`` (in dict order: it is the broadcast
payload), sorted ``claims``, ``num_edges``, ``num_merges``, ``groups``
for `merge_edges` — and to the checkpoint JSON documents the five tail
stages wrote for one run of the same input in each merge mode.

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
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from repro.dbscan import (
    SparkDBSCAN,
    digest_from_partials,
    local_dbscan,
    merge_edges,
    merge_partials,
)
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree

GOLDEN = Path(__file__).with_name("merge_golden.json")
EPS, MINPTS, PARTITIONS = 1.5, 4, 6
TAIL_DOCS = {
    "partials": ("CollectPartials", "MergePartials"),
    "edges": ("CollectEdges", "MergeEdges", "ApplyGidMap"),
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


def golden_partials(order: str) -> list:
    pts = golden_points()
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), PARTITIONS)
    partials = [
        c for pid in range(PARTITIONS)
        for c in local_dbscan(pid, range(*part.range_of(pid)), pts, tree,
                              EPS, MINPTS, part)
    ]
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
                "gid_of": [[p, l, g] for (p, l), g in plan.gid_of.items()],
                "claims": [[s, g] for s, g in sorted(plan.claims.items())],
                "num_edges": plan.num_edges,
                "num_merges": plan.num_merges,
                "groups": plan.groups,
            }
    return out


def checkpoint_documents() -> dict:
    """The tail stages' JSON artifacts, as text, for one run per mode."""
    pts = golden_points()
    out = {}
    for mode, stages in TAIL_DOCS.items():
        with tempfile.TemporaryDirectory() as root:
            SparkDBSCAN(EPS, MINPTS, num_partitions=PARTITIONS,
                        merge_mode=mode, checkpoint_dir=root).fit(pts)
            (run_dir,) = Path(root).iterdir()
            for stage in stages:
                out[f"checkpoint/{stage}"] = (run_dir / f"{stage}.json").read_text()
    return out


def _dump(doc: dict) -> str:
    """Canonical text: one record per line."""
    rows = (f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
            for key in sorted(doc))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_both_adapters_reproduce_the_golden_record_byte_for_byte():
    assert _dump(merge_records() | checkpoint_documents()) == GOLDEN.read_text()


def test_merge_plan_values_are_plain_python_ints():
    """`EdgeMergePlan` goes into checkpoint JSON and a broadcast pickle:
    a numpy scalar would fail the first and bloat the second."""
    plan = merge_edges(digest_from_partials(golden_partials("founder")))
    ints = [plan.num_partials, plan.num_seeds, plan.num_edges,
            plan.num_merges, plan.num_global_clusters]
    for (p, l), g in plan.gid_of.items():
        ints += [p, l, g]
    for s, g in plan.claims.items():
        ints += [s, g]
    for group in plan.groups:
        ints += group
    assert {type(v) for v in ints} == {int}
    json.dumps(plan.groups)


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
    GOLDEN.write_text(_dump(merge_records() | checkpoint_documents()))
    print(f"wrote {GOLDEN}")
