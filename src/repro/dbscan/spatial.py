"""Spatial partitioning — the paper's stated future work, implemented.

Section VI: "We did not partition data points based on the
neighbourhood relationship in our work and that might cause workload to
be unbalanced. So, in the future, we will consider partitioning the
input data points before they are assigned to executors."

The SEED mechanism works on index ranges, so spatial partitioning
reduces to *reordering indices spatially* and reusing the whole
pipeline unchanged.  We reorder by kd-tree leaf order: the tree's
median splits recursively bisect space, so consecutive permuted indices
are spatial neighbours and contiguous index ranges become compact
spatial cells.  Consequences measured in the ablation benches: far
fewer cross-partition SEEDs and partial clusters, cheaper driver-side
merging.

The tree that defines the order is the fit's index (`KDTree.rebase`).
As a plan composition this is the Spark plan with `SpatialReorder` in
`BuildIndex`'s place and a permutation-undoing `RelabelFilter` tail (the
``spatial`` row of `repro.pipeline.STAGE_MANIFEST`).
"""

from __future__ import annotations

import warnings

from .spark_job import SparkDBSCAN, SparkDBSCANResult


class SpatialSparkDBSCAN(SparkDBSCAN):
    """`SparkDBSCAN` with neighbourhood-aware partitioning.

    Points are spatially reordered before index-range partitioning;
    labels are mapped back to the caller's original point order, so the
    API is a drop-in replacement.  With ``keep_partials=True`` the
    partial clusters' ``members``/``seeds``/``borders`` are likewise
    remapped to caller order (so they align with ``labels``); the
    ``lo``/``hi`` partition ranges necessarily stay in the *reordered*
    index space (a spatial cell is not an index range in caller order) —
    ``result.perm`` carries the reordering for anyone who needs them.
    """

    ROWS = {("range", "partials"): "spatial",
            ("range", "edges"): "spatial_edges"}

    def fit(self, points, sc=None, *, tree=None) -> SparkDBSCANResult:
        """Run the clustering over the given points.

        A caller-provided ``tree`` is deprecated here and ignored: the
        fit re-bases its tree in place, which a lent tree (in caller
        order, possibly shared) must not be.
        """
        if tree is not None:
            warnings.warn(
                "SpatialSparkDBSCAN.fit() ignores a prebuilt tree: it "
                "re-bases the index it builds onto leaf order; drop the "
                "argument",
                DeprecationWarning,
                stacklevel=2,
            )
        return super().fit(points, sc=sc, tree=None)
