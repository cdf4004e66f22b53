"""Synthetic datasets reproducing the paper's Table I testbed."""

from .datasets import (
    DEFAULT_CAPS,
    DIMENSIONS,
    EPS,
    MINPTS,
    PAPER_SIZES,
    DatasetSpec,
    dataset_spec,
    effective_size,
    make_dataset,
)
from .io import load_points, parse_point_line, save_points
from .quest import (
    DOMAIN,
    ClusterSpec,
    GeneratedData,
    generate_clustered,
    generate_scattered,
)
from .skew import generate_skewed

__all__ = [
    "EPS",
    "MINPTS",
    "DIMENSIONS",
    "PAPER_SIZES",
    "DEFAULT_CAPS",
    "DOMAIN",
    "DatasetSpec",
    "ClusterSpec",
    "GeneratedData",
    "make_dataset",
    "dataset_spec",
    "effective_size",
    "generate_clustered",
    "generate_scattered",
    "generate_skewed",
    "save_points",
    "load_points",
    "parse_point_line",
]
