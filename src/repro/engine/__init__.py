"""Mini-Spark execution engine.

A faithful, small-scale reimplementation of the Spark runtime pieces
the paper's DBSCAN relies on: lazy RDDs with lineage, DAG→stage→task
scheduling with retry-based fault tolerance, executor pools (serial,
threads, processes, and a measured-makespan simulator), broadcast
variables, accumulators, and a disk-backed shuffle.

Public entry point::

    from repro.engine import SparkContext

    with SparkContext("processes[4]") as sc:
        sc.parallelize(range(10)).map(lambda x: x + 1).collect()
"""

from .accumulator import (
    FLOAT_SUM,
    INT_SUM,
    LIST_CONCAT,
    Accumulator,
    AccumulatorParam,
)
from .broadcast import Broadcast
from .context import SparkContext
from .errors import (
    ContextStoppedError,
    EngineError,
    InjectedFault,
    JobAbortedError,
    ShuffleFetchError,
    TaskError,
)
from .fault import FaultPlan, random_straggler_plan
from .metrics import JobMetrics, StageMetrics, Stopwatch, TaskMetrics, makespan
from .partitioner import HashPartitioner, IndexRangePartitioner, Partitioner
from .rdd import RDD
from .sanitize import (
    AccumulatorReadError,
    BroadcastMutationError,
    Sanitizer,
    SanitizerError,
    TrackedLock,
    deep_hash,
)
from .storage import BlockManager

__all__ = [
    "SparkContext",
    "RDD",
    "Broadcast",
    "Accumulator",
    "AccumulatorParam",
    "INT_SUM",
    "FLOAT_SUM",
    "LIST_CONCAT",
    "Partitioner",
    "HashPartitioner",
    "IndexRangePartitioner",
    "FaultPlan",
    "random_straggler_plan",
    "JobMetrics",
    "StageMetrics",
    "TaskMetrics",
    "Stopwatch",
    "makespan",
    "BlockManager",
    "EngineError",
    "TaskError",
    "JobAbortedError",
    "ShuffleFetchError",
    "InjectedFault",
    "ContextStoppedError",
    "SanitizerError",
    "BroadcastMutationError",
    "AccumulatorReadError",
    "Sanitizer",
    "TrackedLock",
    "deep_hash",
]
