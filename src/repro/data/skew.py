"""Skewed data generation — the regime MR-DBSCAN [He et al. 2014] targets.

The paper's related work cites MR-DBSCAN as "a scalable MapReduce-based
DBSCAN algorithm for heavily skewed data".  This generator produces
that regime: cluster sizes follow a Zipf-like power law (one giant
cluster, a long tail of small ones) and, optionally, the points arrive
sorted by cluster so contiguous index ranges carry wildly different
workloads.  Used by the spatial-partitioner ablation to show where plain
index partitioning struggles.
"""

from __future__ import annotations

import numpy as np

from .quest import DOMAIN, ClusterSpec, GeneratedData, _place_centers


def generate_skewed(
    n: int,
    d: int = 10,
    num_clusters: int = 20,
    zipf_exponent: float = 1.2,
    cluster_std: float = 5.0,
    noise_fraction: float = 0.05,
    seed: int = 0,
    shuffle: bool = True,
) -> GeneratedData:
    """Power-law cluster sizes: size_k ∝ 1 / k^zipf_exponent.

    With ``shuffle=False`` points are emitted cluster-by-cluster (giant
    first), which makes contiguous index partitions maximally skewed.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if num_clusters <= 0:
        raise ValueError(f"num_clusters must be positive, got {num_clusters}")
    if not 0 <= noise_fraction < 1:
        raise ValueError(f"noise_fraction must be in [0, 1), got {noise_fraction}")
    if zipf_exponent <= 0:
        raise ValueError(f"zipf_exponent must be positive, got {zipf_exponent}")
    rng = np.random.default_rng(seed)
    n_noise = int(round(n * noise_fraction))
    n_clustered = n - n_noise
    if n_clustered < num_clusters:
        raise ValueError("n too small for the requested cluster count")

    weights = 1.0 / np.arange(1, num_clusters + 1) ** zipf_exponent
    weights /= weights.sum()
    sizes = np.maximum(1, np.round(weights * n_clustered).astype(int))
    drift = n_clustered - sizes.sum()
    if drift > 0:
        # Fix positive rounding drift on the largest cluster.
        sizes[0] += drift
    elif drift < 0:
        # The per-cluster floor of 1 can push the sum past n_clustered
        # (many tail clusters each rounded up to 1).  Rebalance across
        # the tail: shave the excess off the smallest clusters first,
        # never below 1 each — feasible whenever n_clustered >=
        # num_clusters, which was checked above.
        for k in range(num_clusters - 1, -1, -1):
            take = min(int(sizes[k]) - 1, -drift)
            sizes[k] -= take
            drift += take
            if drift == 0:
                break

    min_sep = max(12.0 * cluster_std, 200.0)
    centers = _place_centers(rng, num_clusters, d, min_sep)

    blocks, labels, specs = [], [], []
    for k, (center, size) in enumerate(zip(centers, sizes)):
        blocks.append(rng.normal(center, cluster_std, (int(size), d)))
        labels.append(np.full(int(size), k, dtype=np.int64))
        specs.append(ClusterSpec(center=center, std=cluster_std, size=int(size)))
    if n_noise:
        blocks.append(rng.uniform(DOMAIN[0], DOMAIN[1], (n_noise, d)))
        labels.append(np.full(n_noise, -1, dtype=np.int64))

    points = np.vstack(blocks)
    true = np.concatenate(labels)
    if shuffle:
        perm = rng.permutation(n)
        points, true = points[perm], true[perm]
    return GeneratedData(points=points, true_labels=true, clusters=specs)
