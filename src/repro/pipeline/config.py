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
from dataclasses import dataclass, fields

import numpy as np

#: The five frontends, as pipeline plan names.
ALGORITHMS = ("spark", "spatial", "naive", "mapreduce", "sequential")

#: How points are assigned to executors.  ``"range"`` is the paper's
#: contiguous index slicing (+ a whole-tree broadcast); ``"cells"``
#: re-bases the spark plan on eps-grid cell partitions with
#: partition-local indexes and an eps-halo (DESIGN.md §10).
PARTITIONINGS = ("range", "cells")

#: Fields covered by ``content_hash`` (see module docstring for the rule).
HASHED_FIELDS = (
    "algorithm",
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
    "partitioning",
    "merge_mode",
)


@dataclass(frozen=True)
class RunConfig:
    """Frozen parameters of one DBSCAN run, shared by all five frontends.

    Algorithm-specific fields are simply unused by plans that do not need
    them (``impl`` only matters to ``sequential``, ``max_rounds`` to
    ``naive``, ``startup_overhead``/``tmp_dir`` to ``mapreduce``); their
    defaults keep the hash stable for the other algorithms.
    """

    eps: float
    minpts: int
    algorithm: str = "spark"
    num_partitions: int = 4
    master: str | None = None
    seed_policy: str = "all"
    merge_strategy: str = "union_find"
    max_neighbors: int | None = None
    min_cluster_size: int = 0
    leaf_size: int = 64
    keep_partials: bool = False
    neighbor_mode: str = "per_point"
    partitioning: str = "range"
    #: How partial clusters reach the driver: ``"partials"`` ships whole
    #: point lists (the paper's path); ``"edges"`` ships digests and
    #: labels via a second distributed pass (DESIGN.md §11).  Labels are
    #: byte-identical; hashed because the stage list (and therefore the
    #: checkpoint artifacts) differ.
    merge_mode: str = "partials"
    sanitize: bool = False
    # Runtime-only observability knobs (like master/sanitize, excluded
    # from the content hash: they never change the answer).
    profile: bool = False
    profile_alloc: bool = False
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
        from ..dbscan.merge import MERGE_MODES, MERGE_STRATEGIES
        from ..dbscan.partial import NEIGHBOR_MODES, SEED_POLICIES

        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
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
        if self.partitioning not in PARTITIONINGS:
            raise ValueError(f"unknown partitioning {self.partitioning!r}")
        if self.partitioning == "cells" and self.algorithm != "spark":
            raise ValueError(
                "partitioning='cells' re-bases the spark plan; it cannot "
                f"combine with algorithm={self.algorithm!r}"
            )
        if self.merge_mode not in MERGE_MODES:
            raise ValueError(f"unknown merge_mode {self.merge_mode!r}")
        if self.merge_mode == "edges":
            if self.algorithm not in ("spark", "spatial"):
                raise ValueError(
                    "merge_mode='edges' applies to the SEED pipelines "
                    f"(spark, spatial); algorithm={self.algorithm!r} has no "
                    "driver merge to replace"
                )
            if self.merge_strategy != "union_find":
                raise ValueError(
                    "merge_mode='edges' implements the union-find closure; "
                    f"merge_strategy={self.merge_strategy!r} is partials-only"
                )
            if self.keep_partials:
                raise ValueError(
                    "merge_mode='edges' never ships point lists to the "
                    "driver, so keep_partials=True cannot be honoured"
                )
            if self.max_neighbors is not None:
                raise ValueError(
                    "merge_mode='edges' derives merge edges from the "
                    "symmetric eps-graph; max_neighbors truncation breaks "
                    "that symmetry (use merge_mode='partials')"
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
