"""An independent DBSCAN reference for Tier-1: judges a labelling with
scipy alone (``cKDTree`` pairs + ``csgraph.connected_components``), so a
convention shared by every plan through `repro.dbscan` cannot hide here.

DBSCAN's output is defined up to border-point ties, and a pair whose
distance is within ``tie`` (relative) of eps may fall on either side of
it.  `dbscan_violation` therefore checks exactly the tie-invariant parts,
each with the radius that gives the benefit of the doubt (``lo`` for
what must hold, ``hi`` for what may hold):

- **core set** — a point with at least ``minpts`` points (itself
  included) within eps is labelled;
- **core partition** — two core points share a label iff they are
  connected in the eps-graph over core points;
- **borders** — a labelled non-core point carries the label of a core
  point within eps;
- **noise** — a point is noise iff it is neither core nor within eps of
  a core point.

This is the comparison `benchmarks/perf/oracle.py` makes on the five
benchmark inputs, re-implemented for small inputs (one dense pair list;
no chunking); nothing is shared with it or with `repro`.  With
``tie=0`` the check is exact, which integer-lattice inputs (every
squared distance an exact integer) can afford.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

#: Relative half-width of the band around eps that counts as a tie.
TIE = 1e-9


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    graph = coo_matrix((np.ones(len(i), dtype=bool), (i, j)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> int:
    return len(set(zip(a.tolist(), b.tolist())))


def dbscan_violation(points: np.ndarray, labels: np.ndarray, eps: float,
                     minpts: int, tie: float = TIE) -> str | None:
    """Why ``labels`` is not a DBSCAN labelling of ``points`` — or None."""
    n = len(points)
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return f"labels have shape {labels.shape}, expected ({n},)"
    if n == 0:
        return None
    if labels.min() < -1:
        return "a label below -1 (unclassified sentinel) leaked"

    lo, hi = eps * (1 - tie), eps * (1 + tie)
    tree = cKDTree(points)
    # Every ordered pair within hi, both directions, self-pairs included.
    found = tree.sparse_distance_matrix(tree, hi, output_type="ndarray")
    i, j, dist = found["i"], found["j"], found["v"]
    sure_core = np.bincount(i[dist <= lo], minlength=n) >= minpts
    maybe_core = np.bincount(i, minlength=n) >= minpts
    if (labels[sure_core] < 0).any():
        return "a core point is labelled noise"

    certain = (dist <= lo) & sure_core[i] & sure_core[j]
    possible = maybe_core[i] & maybe_core[j]
    comp_lo = _components(n, i[certain], j[certain])[sure_core]
    comp_hi = _components(n, i[possible], j[possible])[sure_core]
    core_labels = labels[sure_core]
    if _distinct_pairs(comp_lo, core_labels) != len(np.unique(comp_lo)):
        return "density-connected core points carry different labels"
    if _distinct_pairs(core_labels, comp_hi) != len(np.unique(core_labels)):
        return "one label spans core points that are not connected"

    near_core = np.zeros(n, dtype=bool)   # certainly within eps of a core
    near_core[i[(dist <= lo) & sure_core[j]]] = True
    has_owner = np.zeros(n, dtype=bool)   # shares a label with a near core
    has_owner[i[maybe_core[j] & (labels[i] >= 0) & (labels[i] == labels[j])]] = True
    rest = ~sure_core
    if (near_core & rest & (labels == -1)).any():
        return "a point within eps of a core point is labelled noise"
    if (rest & (labels >= 0) & ~has_owner).any():
        return "a border point's cluster owns no core point within eps"
    return None
