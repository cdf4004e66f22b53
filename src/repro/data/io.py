"""Point-file I/O in the HDFS input format the paper's driver reads.

One point per line, coordinates space-separated — the line-oriented
format `SparkContext.text_file` splits on.  Round-trips preserve values
to 12 significant digits, which is far below eps-scale differences.
"""

from __future__ import annotations

import numpy as np


def save_points(path: str, points: np.ndarray) -> None:
    """Write an (n, d) array as one space-separated line per point."""
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    np.savetxt(path, points, fmt="%.12g", delimiter=" ")


def load_points(path: str) -> np.ndarray:
    """Read points written by `save_points`."""
    pts = np.loadtxt(path, ndmin=2)
    return np.ascontiguousarray(pts, dtype=np.float64)


def parse_point_line(line: str) -> np.ndarray:
    """Parse one text line into a coordinate vector (Algorithm 2, line 2:
    "transform the existing RDDs into appropriate RDDs with Point type")."""
    return np.fromstring(line, dtype=np.float64, sep=" ")
