"""Golden record of the executor expansion, taken from the four-loop code.

This file pins the kernel to what the pre-collapse loops (`_expand`,
`_expand_batched`, `_expand_counted`, `_expand_cells`) produced on one
fixed input — one range frame and one cell frame, both accepted
``neighbor_mode`` values, both seed policies: per-partial ``members``
and ``seeds`` in order, sorted ``borders``, and the table's `OpCounters`
(`ClusterTable.op_counters`).

``expansion_golden.json`` was first written at commit 02e70a8 by running
this module as a script (``PYTHONPATH=src python
tests/dbscan/test_expansion_golden.py``).  It was re-recorded once, when
neighbour rows went from leaf-visit order to the tree's storage order:
ids inside ``members`` and ``seeds`` moved, and under
``one_per_partition`` the first-met seed of a home (with it
``seeds_skipped``); `set_view` of the 02e70a8 file and of the new one
are equal.  The script refuses to rewrite the file when that view
differs from the file it would replace, so a re-record stays order-only.

The twelve ``cell/...`` records were recorded afresh (file deleted, script
run) once, when `build_cell_assignment` began packing super-cells: this
input now packs side-4 super-cells, so cell ownership moved — 21 partials
became 10, the core members over the three partitions stayed the same,
the merged labels
under ``seed_policy="all"`` stayed identical — and the twelve ``range/...``
records were left byte-identical.

All 24 records were re-recorded through the script once more, when label
propagation replaced the BFS: a partial now lists its founder first and
its other members in ascending id, and its seeds in ascending frame id.
Under ``one_per_partition`` the lowest id of a home stands for it rather
than the first met, and ``seeds_skipped`` counts the distinct dropped
(cluster, foreign id) pairs rather than re-meetings.  The set view was
unchanged on all 24 records, so every ``.../all`` counter dict and every
capped counter but ``seeds_skipped`` is as before.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dbscan import local_dbscan
from repro.dbscan.cells import build_cell_assignment, cell_local_dbscan
from repro.dbscan.partial import NEIGHBOR_MODES, SEED_POLICIES, ClusterTable
from repro.engine.partitioner import IndexRangePartitioner
from repro.kdtree import KDTree

GOLDEN = Path(__file__).with_name("expansion_golden.json")
EPS, MINPTS, PARTITIONS = 1.5, 4, 3


def golden_points() -> np.ndarray:
    """240 points in d=2: four clumps, uniform noise, shuffled — clusters
    straddle every range cut and several grid-cell partitions."""
    rng = np.random.default_rng(20160523)
    centres = np.array([[0.0, 0.0], [6.0, 1.0], [2.0, 7.0], [9.0, 8.0]])
    clumps = [rng.normal(c, 1.1, (50, 2)) for c in centres]
    noise = rng.uniform(-3.0, 12.0, (40, 2))
    pts = np.vstack(clumps + [noise])
    return np.round(pts[rng.permutation(len(pts))], 6)


def _render(partials) -> dict:
    ((_, counters),) = partials.op_counters()
    return {
        "partials": [
            {"members": [int(m) for m in c.members],
             "seeds": [int(s) for s in c.seeds],
             "borders": sorted(int(b) for b in c.borders)}
            for c in partials
        ],
        "counters": dict(vars(counters)),
    }


def expand_tables() -> dict:
    """Every (frame, partition, mode, policy) expansion of the input, as
    the kernel's `ClusterTable`."""
    pts = golden_points()
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), PARTITIONS)
    payloads = build_cell_assignment(pts, EPS, PARTITIONS).payloads(pts)
    out = {}
    for mode in NEIGHBOR_MODES:
        for policy in SEED_POLICIES:
            for pid in range(PARTITIONS):
                out[f"range/p{pid}/{mode}/{policy}"] = local_dbscan(
                    pid, range(*part.range_of(pid)), pts, tree, EPS, MINPTS,
                    part, seed_policy=policy, neighbor_mode=mode,
                )
                out[f"cell/p{pid}/{mode}/{policy}"] = cell_local_dbscan(
                    payloads[pid], EPS, MINPTS, leaf_size=8,
                    seed_policy=policy, neighbor_mode=mode,
                )
    return out


def expand_frames() -> dict:
    """Every expansion of the input, rendered as the record pins it."""
    return {key: _render(t) for key, t in expand_tables().items()}


def _dump(doc: dict) -> str:
    """Canonical text: one frame/partition/mode/policy record per line."""
    rows = (f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
            for key in sorted(doc))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def _homes() -> dict[str, np.ndarray]:
    """Owning partition of every golden point, per frame."""
    pts = golden_points()
    part = IndexRangePartitioner(len(pts), PARTITIONS)
    cells = np.empty(len(pts), dtype=np.int64)
    for pid, owned in enumerate(
            build_cell_assignment(pts, EPS, PARTITIONS).owned):
        cells[owned] = pid
    ranges = np.array([part.partition(i) for i in range(len(pts))])
    return {"range": ranges, "cell": cells}


def set_view(doc: dict) -> dict:
    """The record minus the order ids were met in: per partial its founder
    (``members[0]``), member set, borders and seed set, plus the counter
    dict.  Under ``one_per_partition`` *which* foreign point stands for a
    home, and so ``seeds_skipped``, has changed with the kernel (first
    met, then lowest id), so there the view keeps the homes seeded and
    leaves ``seeds_skipped`` out."""
    homes = _homes()
    view = {}
    for key, rec in doc.items():
        frame, _, _, policy = key.split("/")
        capped = policy == "one_per_partition"
        partials = []
        for c in rec["partials"]:
            seeds = c["seeds"]
            if capped:
                seeds = homes[frame][seeds].tolist()
                assert len(set(seeds)) == len(seeds), key
            partials.append({
                "founder": c["members"][0], "members": sorted(c["members"]),
                "borders": c["borders"], "seeds": sorted(seeds),
            })
        counters = {name: count for name, count in rec["counters"].items()
                    if not (capped and name == "seeds_skipped")}
        view[key] = {"partials": partials, "counters": counters}
    return view


def test_kernel_reproduces_the_golden_record_byte_for_byte():
    assert _dump(expand_frames()) == GOLDEN.read_text()


def test_table_op_counters_match_the_golden_record():
    """The op counts ride in the table's ``ops`` column: one row per
    task, its partition first, through concatenation and the npz codec
    alike."""
    golden = json.loads(GOLDEN.read_text())
    tables = expand_tables()
    for key, table in tables.items():
        pid = int(key.split("/")[1][1:])
        assert [(task, vars(c)) for task, c in table.op_counters()] == [
            (pid, golden[key]["counters"])], key
    for frame in ("range", "cell"):
        keys = [f"{frame}/p{pid}/batched/all" for pid in range(PARTITIONS)]
        want = [(pid, golden[key]["counters"]) for pid, key in enumerate(keys)]
        (stacked,) = ClusterTable.from_arrays(ClusterTable.to_arrays(
            [ClusterTable.concat(tables[key] for key in keys)]))
        assert [(task, vars(c)) for task, c in stacked.op_counters()] == want


def test_golden_input_exercises_seeds_borders_and_both_frames():
    """The record is only worth pinning if it is not trivially empty."""
    golden = json.loads(GOLDEN.read_text())
    for frame in ("range", "cell"):
        partials = [c for key, doc in golden.items()
                    if key.startswith(frame) for c in doc["partials"]]
        assert sum(len(c["seeds"]) for c in partials) > 20
        assert sum(len(c["borders"]) for c in partials) > 5
    capped = golden["range/p1/batched/one_per_partition"]["counters"]
    assert capped["seeds_skipped"] > 0


@pytest.mark.parametrize("frame", ["range", "cell"])
def test_golden_modes_agree_with_each_other(frame):
    golden = json.loads(GOLDEN.read_text())
    for policy in SEED_POLICIES:
        for pid in range(PARTITIONS):
            a = golden[f"{frame}/p{pid}/per_point/{policy}"]
            b = golden[f"{frame}/p{pid}/batched/{policy}"]
            assert a == b


def set_view_diff(was: dict, now: dict) -> list[str]:
    """One line per (record, field) on which two set-level views differ."""
    lines = []
    for key in sorted(was.keys() | now.keys()):
        a, b = was.get(key), now.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in the {'new' if a is None else 'old'} record")
            continue
        if a["counters"] != b["counters"]:
            lines.append(f"{key}: counters {a['counters']} -> {b['counters']}")
        if len(a["partials"]) != len(b["partials"]):
            lines.append(f"{key}: {len(a['partials'])} -> "
                         f"{len(b['partials'])} partials")
        for i, (ca, cb) in enumerate(zip(a["partials"], b["partials"])):
            lines += [f"{key} #{i}: {name} {ca[name]} -> {cb[name]}"
                      for name in ca if ca[name] != cb[name]]
    return lines


def test_set_view_ignores_order_and_nothing_else():
    golden = json.loads(GOLDEN.read_text())
    key = "range/p1/batched/all"
    was = set_view(golden)
    first = golden[key]["partials"][0]
    first["members"][1:] = first["members"][:0:-1]
    first["seeds"].reverse()
    assert set_view_diff(was, set_view(golden)) == []
    first["members"].reverse()               # another founder
    first["seeds"].pop()
    golden[key]["counters"]["queue_adds"] += 1
    moved = set_view_diff(was, set_view(golden))
    assert [line.split(": ")[1].split()[0] for line in moved] == [
        "counters", "founder", "seeds"]


if __name__ == "__main__":
    # Rewrites the record only when nothing but the order of ids inside
    # ``members`` / ``seeds`` moved; anything else is printed, not recorded
    # (delete the file by hand to record a deliberate change of the answer).
    doc = _dump(expand_frames())
    was = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else json.loads(doc)
    moved = set_view_diff(set_view(was), set_view(json.loads(doc)))
    if moved:
        print("\n".join(moved))
        raise SystemExit(f"{len(moved)} set-level differences: {GOLDEN} kept")
    GOLDEN.write_text(doc)
    print(f"wrote {GOLDEN} (set-level view unchanged)")
