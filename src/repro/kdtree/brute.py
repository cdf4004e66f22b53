"""Brute-force neighbor search: the O(n²) reference implementation.

The paper cites DBSCAN's complexity dropping from O(n²) with naive
linear search to O(n log n) with a spatial index (Section II-A).  This
module is that naive linear search — used as the correctness oracle for
the kd-tree and as the baseline in Ablation E.
"""

from __future__ import annotations

import numpy as np


class BruteForceIndex:
    """Exact eps-range queries by scanning every point."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D (n, d), got shape {points.shape}")
        self.points = points
        self.n, self.d = points.shape

    def query_radius(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Indices of all points within distance ``eps`` of ``q`` (inclusive)."""
        q = np.asarray(q, dtype=np.float64)
        d2 = np.einsum("ij,ij->i", self.points - q, self.points - q)
        return np.flatnonzero(d2 <= eps * eps)
