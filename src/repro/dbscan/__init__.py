"""DBSCAN implementations: sequential, SEED-based Spark-parallel, the
shuffle-based naive parallel baseline, and the MapReduce baseline."""

from .core import NOISE, UNCLASSIFIED, ClusteringResult, Timings
from .merge import (
    MERGE_MODES,
    MERGE_STRATEGIES,
    EdgeMergePlan,
    MergeOutcome,
    UnionFind,
    apply_gid_map,
    merge_edges,
    merge_paper,
    merge_partials,
    merge_union_find,
    union_find_merge,
)
from .cells import (
    CellAssignment,
    CellGrid,
    CellPayload,
    build_cell_assignment,
    cell_local_dbscan,
)
from .partial import (
    NEIGHBOR_MODES,
    SEED_POLICIES,
    LocalExpansion,
    PartialCluster,
    PartialSummary,
    PartitionDigest,
    digest_from_partials,
    digest_payload_nbytes,
    local_dbscan,
    partials_payload_nbytes,
    partition_digest,
)
from .mapreduce_job import MapReduceDBSCAN, MRDBSCANResult
from .naive_spark import NaiveSparkDBSCAN, NaiveSparkResult
from .sequential import core_point_mask, dbscan_sequential
from .spark_job import SparkDBSCAN, SparkDBSCANResult
from .spatial import SpatialSparkDBSCAN
from .validation import (
    adjusted_rand_index,
    clusterings_equivalent,
    rand_index,
    relabel_canonical,
)

__all__ = [
    "NOISE",
    "UNCLASSIFIED",
    "CellAssignment",
    "CellGrid",
    "CellPayload",
    "build_cell_assignment",
    "cell_local_dbscan",
    "MapReduceDBSCAN",
    "MRDBSCANResult",
    "NaiveSparkDBSCAN",
    "NaiveSparkResult",
    "SpatialSparkDBSCAN",
    "ClusteringResult",
    "Timings",
    "dbscan_sequential",
    "core_point_mask",
    "SparkDBSCAN",
    "SparkDBSCANResult",
    "PartialCluster",
    "local_dbscan",
    "SEED_POLICIES",
    "NEIGHBOR_MODES",
    "MERGE_MODES",
    "MERGE_STRATEGIES",
    "MergeOutcome",
    "EdgeMergePlan",
    "UnionFind",
    "merge_partials",
    "merge_union_find",
    "union_find_merge",
    "merge_paper",
    "merge_edges",
    "apply_gid_map",
    "LocalExpansion",
    "PartialSummary",
    "PartitionDigest",
    "partition_digest",
    "digest_from_partials",
    "partials_payload_nbytes",
    "digest_payload_nbytes",
    "clusterings_equivalent",
    "rand_index",
    "adjusted_rand_index",
    "relabel_canonical",
]
