"""Mini Hadoop-MapReduce runtime (the paper's Figure 7 baseline)."""

from .job import JobStats, MapReduceJob

__all__ = [
    "MapReduceJob",
    "JobStats",
]
