"""`SparkContext`: the driver-side entry point tying the engine together.

    with SparkContext("processes[4]") as sc:
        rdd = sc.parallelize(range(1000), 4)
        squares = rdd.map(lambda x: x * x).collect()

Responsibilities (paper Section II-B): owning the backend (executor
pool), the block manager, shuffle manager, broadcast variables and
accumulators, and submitting jobs through the DAG scheduler.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .accumulator import (
    INT_SUM,
    Accumulator,
    AccumulatorParam,
    AccumulatorRegistry,
)
from .backends import make_backend, parse_master
from .broadcast import Broadcast, BroadcastManager
from .dag_scheduler import DAGScheduler
from . import task_context
from .errors import NESTED_ACTION, ContextStoppedError, EngineError
from ..obs.spans import NULL_TRACER, Tracer, routed
from .fault import FaultPlan
from .metrics import JobMetrics
from .rdd import RDD, ParallelCollectionRDD, SourceRDD
from .shuffle import ShuffleManager
from .sources import LocalTextFileSource
from .storage import BlockManager
from .task_scheduler import TaskScheduler

T = TypeVar("T")


class SparkContext:
    """Driver-side entry point owning backend, storage, and scheduler."""
    def __init__(
        self,
        master: str = "local",
        app_name: str = "repro",
        spill_dir: str | None = None,
        max_task_failures: int = 4,
        speculation: bool = False,
        speculation_multiplier: float = 2.0,
        tracer: Tracer = NULL_TRACER,
        sanitize: bool = False,
    ):
        self.master = master
        self.app_name = app_name
        self.tracer = tracer
        self.sanitize = sanitize
        self.mode, self.default_parallelism = parse_master(master)
        self._own_spill_dir = spill_dir is None
        self.spill_dir = spill_dir or tempfile.mkdtemp(prefix="minispark-")
        self.block_manager = BlockManager()
        self.shuffle_manager = ShuffleManager(self.spill_dir)
        self.backend = make_backend(master, self.block_manager)
        self.broadcast_manager = BroadcastManager(
            self.spill_dir if self.mode == "processes" else None,
            compute_hashes=sanitize,
            drop=self.backend.drop_broadcast,
        )
        self.accumulators = AccumulatorRegistry()
        # Driver-side values a library keeps for this context's life, by
        # name (the pipeline's kd-tree memo, `repro.pipeline.memo`).
        self.memos: dict[str, Any] = {}
        self.task_scheduler = TaskScheduler(
            self.backend,
            max_task_failures,
            speculation=speculation,
            speculation_multiplier=speculation_multiplier,
            tracer=tracer,
        )
        self.dag_scheduler = DAGScheduler(
            self.task_scheduler,
            self.shuffle_manager,
            self.accumulators,
            tracer=tracer,
            sanitize=sanitize,
        )
        self.fault_plan = FaultPlan()  # injected faults/stragglers for tests
        tracer.instant("engine.context", cat="engine", app_name=app_name, master=master)
        self._stopped = False

    # -- RDD creation ---------------------------------------------------------
    def parallelize(self, data: Iterable[T], num_partitions: int | None = None) -> RDD[T]:
        """Slice an in-memory collection into an RDD."""
        self._check_running()
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_partitions)

    def text_file(self, path: str, num_partitions: int | None = None) -> RDD[str]:
        """RDD of lines from a local text file, split HDFS-style."""
        self._check_running()
        source = LocalTextFileSource(path, num_partitions or self.default_parallelism)
        return SourceRDD(self, source)

    # -- shared variables -------------------------------------------------------
    def broadcast(self, value: T) -> Broadcast[T]:
        """Create a read-only shared variable cached per executor."""
        self._check_running()
        with routed(self.tracer).span("driver.broadcast", cat="driver") as sp:
            b = self.broadcast_manager.new_broadcast(value)
            sp.annotate(bid=b.bid, nbytes=b.nbytes)
        return b

    def accumulator(self, param: AccumulatorParam[T] = INT_SUM) -> Accumulator[T]:
        """Create an add-only shared variable merged at the driver."""
        self._check_running()
        return self.accumulators.new_accumulator(param)

    # -- job execution ------------------------------------------------------------
    def run_job(self, rdd: RDD[T], func: Callable[[int, Iterator[T]], Any]) -> list[Any]:
        """Execute an action over the RDD; returns per-partition results."""
        self._check_running()
        if task_context.get() is not None:
            raise EngineError(NESTED_ACTION)
        return self.dag_scheduler.run_job(rdd, func, fault_plan=self.fault_plan)

    @property
    def last_job_metrics(self) -> JobMetrics:
        """Metrics of the most recent job."""
        if not self.dag_scheduler.job_metrics:
            raise ValueError("no job has run yet")
        return self.dag_scheduler.job_metrics[-1]

    # -- lifecycle ------------------------------------------------------------------
    def stop(self) -> None:
        """Shut the component down and release resources."""
        if self._stopped:
            return
        self._stopped = True
        self.backend.shutdown()
        self.broadcast_manager.stop()
        self.memos.clear()
        self.block_manager.clear()
        self.shuffle_manager.clear()
        if self._own_spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def _check_running(self) -> None:
        if self._stopped:
            raise ContextStoppedError("SparkContext is stopped")

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
