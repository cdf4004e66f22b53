"""Golden record of the executor expansion, taken from the four-loop code.

Mode-vs-mode identity tests pass when both neighbour modes drift
together; this file pins the kernel to what the pre-collapse loops
(`_expand`, `_expand_batched`, `_expand_counted`, `_expand_cells`)
produced on one fixed input — one range frame and one cell frame, both
neighbour modes, both seed policies: per-partial ``members`` and
``seeds`` in order, sorted ``borders``, and the `OpCounters` dict.

``expansion_golden.json`` was written by running this module as a script
(``PYTHONPATH=src python tests/dbscan/test_expansion_golden.py``) at
commit 02e70a8; rerunning it rewrites the file from whatever code is on
the path, so only do that to record a deliberate change of the answer.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dbscan import local_dbscan
from repro.dbscan.cells import build_cell_assignment, cell_local_dbscan
from repro.dbscan.partial import NEIGHBOR_MODES, SEED_POLICIES, OpCounters
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


def _render(partials, counters) -> dict:
    return {
        "partials": [
            {"members": [int(m) for m in c.members],
             "seeds": [int(s) for s in c.seeds],
             "borders": sorted(int(b) for b in c.borders)}
            for c in partials
        ],
        "counters": dict(vars(counters)),
    }


def expand_frames(counted: bool = True) -> dict:
    """Every (frame, partition, mode, policy) expansion of the input."""
    pts = golden_points()
    tree = KDTree(pts, leaf_size=8)
    part = IndexRangePartitioner(len(pts), PARTITIONS)
    payloads = build_cell_assignment(pts, EPS, PARTITIONS).payloads(pts)
    out = {}
    for mode in NEIGHBOR_MODES:
        for policy in SEED_POLICIES:
            for pid in range(PARTITIONS):
                c = OpCounters()
                partials = local_dbscan(
                    pid, range(*part.range_of(pid)), pts, tree, EPS, MINPTS,
                    part, seed_policy=policy, neighbor_mode=mode,
                    counters=c if counted else None,
                )
                out[f"range/p{pid}/{mode}/{policy}"] = _render(partials, c)
                c = OpCounters()
                partials = cell_local_dbscan(
                    payloads[pid], EPS, MINPTS, leaf_size=8,
                    seed_policy=policy, neighbor_mode=mode,
                    counters=c if counted else None,
                )
                out[f"cell/p{pid}/{mode}/{policy}"] = _render(partials, c)
    return out


def _dump(doc: dict) -> str:
    """Canonical text: one frame/partition/mode/policy record per line."""
    rows = (f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
            for key in sorted(doc))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_kernel_reproduces_the_golden_record_byte_for_byte():
    assert _dump(expand_frames()) == GOLDEN.read_text()


def test_uncounted_partials_match_the_golden_record():
    golden = json.loads(GOLDEN.read_text())
    for key, got in expand_frames(counted=False).items():
        assert got["partials"] == golden[key]["partials"], key


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


if __name__ == "__main__":
    GOLDEN.write_text(_dump(expand_frames()))
    print(f"wrote {GOLDEN}")
