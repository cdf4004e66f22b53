"""Mutable state threaded through a pipeline run.

Stages communicate exclusively through this object: each `Stage` declares
the keys it ``requires`` and ``provides``, the `PipelineRunner` checks the
contract, and checkpoint restore works by repopulating the same keys from
disk instead of running the stage.  Keys are ordinary attributes; the
``present`` set records which have been established so far (some keys
— ``engine``, ``expanded`` — name no attribute, so presence cannot be
inferred from a value).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..dbscan.core import Timings

if TYPE_CHECKING:  # pragma: no cover - hints only
    import numpy as np

    from ..engine import SparkContext
    from ..kdtree import KDTree
    from ..obs.spans import Tracer
    from .config import RunConfig


@dataclass
class PipelineState:
    """Everything a plan's stages read and write.

    ``extras`` is the annex for plan-specific outputs (naive shuffle
    accounting, MapReduce job stats, …) so the core attribute set stays
    the paper pipeline's vocabulary.
    """

    config: "RunConfig"
    tracer: "Tracer"

    # data
    points: "np.ndarray | None" = None
    n: int = 0
    perm: "np.ndarray | None" = None        # spatial reordering, if any

    # model / plan
    tree: "KDTree | None" = None
    partitioner: Any = None

    # engine
    sc: "SparkContext | None" = None
    own_sc: bool = False
    tree_b: Any = None                       # broadcast handle
    indices: Any = None                      # RDD of point indices
    acc: Any = None                          # per-task ClusterTable accumulator
    tmp_dir: str | None = None               # MapReduce cache and spills
    own_tmp_dir: bool = False

    # outputs
    partials: Any = None                     # collected ClusterTable
    outcome: Any = None                      # MergeOutcome
    labels: "np.ndarray | None" = None
    timings: Timings = field(default_factory=Timings)
    extras: dict[str, Any] = field(default_factory=dict)

    # bookkeeping
    present: set[str] = field(default_factory=set)
    stage_status: dict[str, str] = field(default_factory=dict)

    def mark(self, *keys: str) -> None:
        """Record that the given state keys are now established."""
        self.present.update(keys)

    def has(self, key: str) -> bool:
        """True iff a stage has established the given key."""
        return key in self.present

    def ensure_context(self) -> "SparkContext":
        """Create (and own) an engine context unless the caller lent one.

        Plans that restore all engine-dependent stages from checkpoints
        never call this, so a resumed run can finish without ever
        spinning up the engine.
        """
        if self.sc is None:
            from ..engine import SparkContext

            self.sc = SparkContext(
                self.config.resolved_master,
                app_name=f"{self.config.plan}-dbscan",
                tracer=self.tracer,
                sanitize=self.config.sanitize,
            )
            self.own_sc = True
        return self.sc

    def ensure_tmp_dir(self) -> str:
        """The configured ``tmp_dir``, else a fresh directory this run
        owns: like an owned context, the runner removes it when the run
        ends, crash included."""
        if self.tmp_dir is None:
            if self.config.tmp_dir is None:
                self.tmp_dir = tempfile.mkdtemp(prefix="mrdbscan-")
                self.own_tmp_dir = True
            else:
                self.tmp_dir = self.config.tmp_dir
                os.makedirs(self.tmp_dir, exist_ok=True)
        return self.tmp_dir
