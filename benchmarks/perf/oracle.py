"""Independent DBSCAN reference: checks a labelling, imports no `repro`.

Built only on `scipy.spatial.cKDTree` and `scipy.sparse.csgraph`, so a
bug shared by every plan through `local_dbscan`'s conventions cannot
pass here.  DBSCAN's output is defined up to border-point ties; the
oracle checks exactly the tie-invariant parts:

- the **core set**: a point with at least ``minpts`` points (itself
  included) within eps must be labelled;
- the **core partition**: two core points share a label iff they are
  connected in the eps-graph over core points;
- **border points**: a labelled non-core point carries the label of a
  core point within eps;
- the **noise set**: a point is noise iff it is neither core nor within
  eps of a core point.

Pairs whose distance is within `TIE` (relative) of eps may fall on
either side without failing the check: every test uses the radius that
gives the benefit of the doubt (``lo`` for what must hold, ``hi`` for
what may hold).

Run as a process of its own so its memory never reaches the measured
``driver_peak_rss_mb``::

    python oracle.py POINTS.npy MINPTS EPS LABELS.npy [EPS LABELS.npy ...]

Prints one JSON object per labelling and exits 1 if any is rejected.
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

#: Relative half-width of the band around eps that counts as a tie.
TIE = 1e-9
#: Neighbour pairs materialised per chunk: 24 B each as scipy returns
#: them, plus the sparse-graph copies — well under 1 GiB in total.
PAIR_BUDGET = 8_000_000


def _chunks(weights: np.ndarray, budget: int):
    """Split ``range(len(weights))`` into runs of total weight <= budget."""
    cum = np.cumsum(weights)
    start = 0
    while start < len(weights):
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + budget, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _pairs_to(tree: cKDTree, queries: np.ndarray, radius: float,
              weights: np.ndarray):
    """Yield ``(query row, tree row, distance)`` arrays, chunk by chunk."""
    for a, b in _chunks(weights, PAIR_BUDGET):
        found = cKDTree(queries[a:b]).sparse_distance_matrix(
            tree, radius, output_type="ndarray"
        )
        yield found["i"] + a, found["j"], found["v"]


def _union(comp: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Component labels after joining ``i[k]`` with ``j[k]`` for all k."""
    m = len(comp)
    a, b = comp[i], comp[j]
    # Pairs arrive in both directions and include self-pairs; one
    # direction of each cross-component pair carries all the information.
    keep = a < b
    graph = coo_matrix(
        (np.ones(int(keep.sum()), dtype=bool), (a[keep], b[keep])), shape=(m, m)
    )
    _, merged = connected_components(graph, directed=False)
    return merged[comp]


def _count_pairs(a: np.ndarray, b: np.ndarray) -> int:
    """Number of distinct ``(a[k], b[k])`` pairs."""
    return len(np.unique(np.stack([a, b], axis=1), axis=0)) if len(a) else 0


def check(points: np.ndarray, labels: np.ndarray, eps: float,
          minpts: int) -> dict:
    """Verdict on one labelling: ``{"ok", "reason", clusters, noise, ...}``."""
    n = len(points)
    stats = {
        "ok": False, "reason": "", "eps": eps, "n": n,
        "clusters": int(np.unique(labels[labels >= 0]).size),
        "noise": int(np.count_nonzero(labels == -1)),
    }

    def reject(reason: str) -> dict:
        stats["reason"] = reason
        return stats

    if labels.shape != (n,):
        return reject(f"labels have shape {labels.shape}, expected ({n},)")
    if n and labels.min() < -1:
        return reject("a label below -1 (unclassified sentinel) leaked")

    lo, hi = eps * (1 - TIE), eps * (1 + TIE)
    tree = cKDTree(points)
    count_lo = tree.query_ball_point(points, lo, return_length=True, workers=-1)
    count_hi = tree.query_ball_point(points, hi, return_length=True, workers=-1)
    sure_core = count_lo >= minpts          # core whatever the ties do
    maybe_core = count_hi >= minpts         # core if every tie counts
    stats["cores"] = int(sure_core.sum())
    stats["tie_points"] = int((maybe_core & ~sure_core).sum())
    if (labels[sure_core] < 0).any():
        return reject("a core point is labelled noise")

    # Core partition: components of the eps-graph over core points, once
    # with only the certain edges (must share a label) and once with
    # every possible edge (may share a label).
    cores = np.flatnonzero(maybe_core)
    core_tree = cKDTree(points[cores])
    comp_lo = comp_hi = np.arange(len(cores))
    tied = False    # until a tie shows up the two graphs are one graph
    for i, j, dist in _pairs_to(core_tree, points[cores], hi, count_hi[cores]):
        certain = (dist <= lo) & sure_core[cores[i]] & sure_core[cores[j]]
        tied = tied or not certain.all()
        if tied:
            comp_lo = _union(comp_lo, i[certain], j[certain])
        comp_hi = _union(comp_hi, i, j)
        if not tied:
            comp_lo = comp_hi
    sure = sure_core[cores]
    core_labels = labels[cores[sure]]
    num_components = len(np.unique(comp_lo[sure]))
    if _count_pairs(comp_lo[sure], core_labels) != num_components:
        return reject("density-connected core points carry different labels")
    if _count_pairs(core_labels, comp_hi[sure]) != len(np.unique(core_labels)):
        return reject("one label spans core points that are not connected")
    stats["core_components"] = num_components

    # Everything that is not certainly core: border or noise.
    rest = np.flatnonzero(~sure_core)
    near_core = np.zeros(n, dtype=bool)     # certainly within eps of a core
    has_owner = np.zeros(n, dtype=bool)     # shares a label with a near core
    for i, j, dist in _pairs_to(core_tree, points[rest], hi, count_hi[rest]):
        p, c = rest[i], cores[j]
        near_core[p[(dist <= lo) & sure_core[c]]] = True
        has_owner[p[(labels[p] >= 0) & (labels[p] == labels[c])]] = True
    noise = labels[rest] == -1
    if near_core[rest[noise]].any():
        return reject("a point within eps of a core point is labelled noise")
    if not has_owner[rest[~noise]].all():
        return reject("a border point's cluster owns no core point within eps")

    stats["ok"] = True
    return stats


def main(argv: list[str]) -> int:
    if len(argv) < 4 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    points = np.load(argv[0])
    minpts = int(argv[1])
    ok = True
    for eps, labels_path in zip(argv[2::2], argv[3::2]):
        verdict = check(points, np.load(labels_path), float(eps), minpts)
        print(json.dumps(verdict))
        ok = ok and verdict["ok"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
