"""The one frozen configuration object every DBSCAN frontend shares.

Before the pipeline refactor each frontend re-declared (and re-validated,
inconsistently) the same ~14 keyword arguments.  `RunConfig` is the single
source of truth: every parameter of every algorithm lives here, every
invariant is checked once in ``__post_init__``, and the frontend classes
are thin shims that assemble a `RunConfig` and hand it to a
`PipelineRunner`.

`RunConfig` is also the checkpoint key.  ``content_hash()`` digests the
*semantic* fields — the ones that change the computation's output or the
artifacts a stage would write — together with a hash of the input points.
Two runs with the same content hash may share checkpoints; any semantic
change (a different ``eps``, partition count, seed policy, …) produces a
different hash and therefore a cold checkpoint directory.  Runtime-only
knobs (``master``, ``sanitize``, ``keep_partials``, ``tmp_dir``) are
deliberately excluded: they change *how* the answer is computed or what
is retained in memory, never the answer itself.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, fields

import numpy as np

#: Fields covered by ``content_hash`` (see module docstring for the rule).
HASHED_FIELDS = (
    "plan",
    "eps",
    "minpts",
    "num_partitions",
    "seed_policy",
    "merge_strategy",
    "max_neighbors",
    "min_cluster_size",
    "leaf_size",
    "neighbor_mode",
    "impl",
    "max_rounds",
    "startup_overhead",
)

#: Count fields: any integral number but a bool, stored as ``int``.
_COUNTS = ("minpts", "num_partitions", "max_neighbors", "min_cluster_size",
           "leaf_size", "max_rounds")
#: Real-valued fields, stored as ``float``.
_REALS = ("eps", "startup_overhead")


@dataclass(frozen=True)
class RunConfig:
    """Frozen parameters of one DBSCAN run, shared by all five frontends.

    ``plan`` names the `STAGE_MANIFEST` row to run (DESIGN.md §9).
    Plan-specific fields are simply unused by rows that do not need
    them (``impl`` only matters to ``sequential``, ``max_rounds`` to
    ``naive``, ``startup_overhead``/``tmp_dir`` to ``mapreduce``); their
    defaults keep the hash stable for the other rows.
    """

    eps: float
    minpts: int
    plan: str = "spark"
    num_partitions: int = 4
    master: str | None = None
    seed_policy: str = "all"
    merge_strategy: str = "union_find"
    max_neighbors: int | None = None
    min_cluster_size: int = 0
    leaf_size: int = 64
    keep_partials: bool = False
    neighbor_mode: str = "per_point"
    sanitize: bool = False
    # sequential only
    impl: str = "array"
    # naive only
    max_rounds: int = 100
    # mapreduce only
    startup_overhead: float = 1.0
    tmp_dir: str | None = None

    def __post_init__(self) -> None:
        # Imported lazily: repro.dbscan and repro.pipeline import each
        # other at module level, and this module must stay importable
        # from either direction.
        from ..dbscan.merge import MERGE_STRATEGIES
        from ..dbscan.partial import NEIGHBOR_MODES, SEED_POLICIES
        from .plans import STAGE_MANIFEST

        for name in _COUNTS + _REALS:
            value = getattr(self, name)
            if value is None and name == "max_neighbors":
                continue
            count = name in _COUNTS
            kind = numbers.Integral if count else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if count else "a real number"
                raise ValueError(f"{name} must be {what}, got {value!r}")
            object.__setattr__(self, name, int(value) if count else float(value))
        if self.plan not in STAGE_MANIFEST:
            raise ValueError(
                f"plan must be one of {tuple(STAGE_MANIFEST)}, got {self.plan!r}"
            )
        if not self.eps > 0:  # NaN too: every comparison lets it through
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.minpts < 1:
            raise ValueError(f"minpts must be >= 1, got {self.minpts}")
        if self.num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {self.num_partitions}"
            )
        if self.seed_policy not in SEED_POLICIES:
            raise ValueError(f"unknown seed_policy {self.seed_policy!r}")
        if self.merge_strategy not in MERGE_STRATEGIES:
            raise ValueError(f"unknown merge_strategy {self.merge_strategy!r}")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise ValueError(f"unknown neighbor_mode {self.neighbor_mode!r}")
        if self.merge_mode == "edges":
            if self.merge_strategy != "union_find":
                raise ValueError(
                    f"plan {self.plan!r} implements the union-find closure; "
                    f"merge_strategy={self.merge_strategy!r} is partials-only"
                )
            if self.keep_partials:
                raise ValueError(
                    f"plan {self.plan!r} never ships point lists to the "
                    "driver, so keep_partials=True cannot be honoured"
                )
            if self.max_neighbors is not None:
                raise ValueError(
                    f"plan {self.plan!r} derives merge edges from the "
                    "symmetric eps-graph; max_neighbors truncation breaks "
                    "that symmetry (use a partials plan)"
                )
        if self.max_neighbors is not None and self.max_neighbors < 1:
            raise ValueError(
                f"max_neighbors must be >= 1 or None, got {self.max_neighbors}"
            )
        if self.min_cluster_size < 0:
            raise ValueError(
                f"min_cluster_size must be >= 0, got {self.min_cluster_size}"
            )
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {self.leaf_size}")
        if self.impl not in ("array", "hashtable"):
            raise ValueError(
                f"impl must be 'array' or 'hashtable', got {self.impl!r}"
            )
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.startup_overhead < 0:
            raise ValueError(
                f"startup_overhead must be >= 0, got {self.startup_overhead}"
            )

    @property
    def partitioning(self) -> str:
        """``"cells"`` on the cell rows (DESIGN.md §10), else ``"range"``."""
        return "cells" if self.plan.startswith("cell") else "range"

    @property
    def merge_mode(self) -> str:
        """``"edges"`` on the ``*_edges`` rows, whose executors ship
        digests instead of partial clusters (DESIGN.md §11), else
        ``"partials"``."""
        return "edges" if self.plan.endswith("_edges") else "partials"

    @property
    def witness_once(self) -> bool:
        """Whether the SEED tasks ship only up-pointing seeds plus orphan
        rows (DESIGN.md §11, "Witness each pair once").  Exact only when
        every cross-partition pair is on both rows (all seeds, untruncated
        rows), every cluster is kept (a filtered cluster's members would
        need rows of their own), and the merge is the union-find closure
        (Algorithm 4 is a single pass over full seeds)."""
        return (self.seed_policy == "all" and self.max_neighbors is None
                and self.min_cluster_size == 0
                and self.merge_strategy == "union_find")

    @property
    def resolved_master(self) -> str:
        """Engine master URL, defaulting to the serial simulated backend."""
        return self.master or f"simulated[{self.num_partitions}]"

    def semantic_dict(self) -> dict:
        """The hashed (output-determining) fields as a plain dict."""
        return {f: getattr(self, f) for f in HASHED_FIELDS}

    def content_hash(self, points: np.ndarray | None = None) -> str:
        """Hex digest keying checkpoint compatibility.

        Covers the semantic fields plus (when given) the exact bytes of
        the input points, so a checkpoint can never be resumed against
        different data or different parameters.
        """
        payload = json.dumps(self.semantic_dict(), sort_keys=True,
                             separators=(",", ":"))
        h = hashlib.sha256(payload.encode())
        if points is not None:
            arr = np.ascontiguousarray(points, dtype=np.float64)
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """All configuration field names (shim layers forward these)."""
        return tuple(f.name for f in fields(cls))
