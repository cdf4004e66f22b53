"""Ablation B — merge strategy: Algorithm 4's single pass vs union-find.

On real workloads partial clusters almost always seed back at each
other, so the single pass converges; adversarial merge *chains*
(cluster pieces linked A→B→C with one-directional seeds) expose the
difference.  This bench measures both on a real dataset and on
synthetic chains, plus the merge-time cost of each strategy.

B3 sweeps the *wire format* instead (DESIGN.md §11): shipping whole
partial clusters vs shipping edge digests, over 100k–1M-point datasets,
comparing the bytes the driver collects and the driver merge time.  The
union-find merge is the same function either way (`union_find_merge`);
what differs is the owner table it joins seeds against — every member,
or only the boundary exports.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import EPS, MINPTS, make_dataset
from repro.dbscan import (
    PartialCluster,
    SparkDBSCAN,
    SpatialSparkDBSCAN,
    apply_gid_map,
    digest_from_partials,
    digest_payload_nbytes,
    merge_edges,
    merge_paper,
    merge_union_find,
    partials_payload_nbytes,
)
from repro.kdtree import KDTree

from _harness import print_table, save_results, scaled_cores


def _synthetic_chain(length: int) -> tuple[list[PartialCluster], int]:
    """length partial clusters, each seeding only the next one."""
    per = 10
    n = length * per
    partials = []
    for i in range(length):
        lo, hi = i * per, (i + 1) * per
        seeds = [hi] if i < length - 1 else []
        partials.append(PartialCluster(
            partition=i, local_id=0, lo=lo, hi=hi,
            members=list(range(lo, hi)), seeds=seeds,
        ))
    return partials, n


def test_ablation_merge_chains(benchmark):
    rows, payload = [], []
    for length in (2, 3, 5, 10, 50):
        partials, n = _synthetic_chain(length)
        uf = merge_union_find([_copy(c) for c in partials], n)
        pp = merge_paper([_copy(c) for c in partials], n)
        rows.append([length, uf.num_global_clusters, pp.num_global_clusters])
        payload.append({
            "chain_length": length,
            "union_find_clusters": uf.num_global_clusters,
            "paper_clusters": pp.num_global_clusters,
        })
        assert uf.num_global_clusters == 1  # always closes the chain
        if length > 2:
            # The single pass cannot follow absorbed masters' seeds.
            assert pp.num_global_clusters > 1
    print_table(
        "Ablation B1: merge chains (1 true cluster split across k partitions)",
        ["chain length", "union-find clusters", "Algorithm-4 clusters"],
        rows,
    )
    save_results("ablation_merge_chains", payload)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_merge_on_real_data(benchmark):
    """On dense clusters both strategies agree — and we time them."""
    g = make_dataset("r10k")
    tree = KDTree(g.points)
    res = SparkDBSCAN(EPS, MINPTS, num_partitions=8, keep_partials=True).fit(
        g.points, tree=tree
    )
    partials = res.partials
    assert partials is not None

    t0 = time.perf_counter()
    uf = merge_union_find([_copy(c) for c in partials], g.n)
    t_uf = time.perf_counter() - t0
    t0 = time.perf_counter()
    pp = merge_paper([_copy(c) for c in partials], g.n)
    t_pp = time.perf_counter() - t0

    print_table(
        "Ablation B2: merge strategies on r10k (8 partitions)",
        ["strategy", "global clusters", "merge time (s)"],
        [["union_find", uf.num_global_clusters, round(t_uf, 4)],
         ["paper", pp.num_global_clusters, round(t_pp, 4)]],
    )
    save_results("ablation_merge_real", {
        "union_find": {"clusters": uf.num_global_clusters, "seconds": t_uf},
        "paper": {"clusters": pp.num_global_clusters, "seconds": t_pp},
    })
    assert uf.num_global_clusters == pp.num_global_clusters

    benchmark.pedantic(
        lambda: merge_union_find([_copy(c) for c in partials], g.n),
        rounds=3, iterations=1,
    )


def test_ablation_merge_payload_sweep(benchmark):
    """Ablation B3 — partials vs edge digests at 100k–1M points.

    One spatially-partitioned clustering per dataset produces the
    partial clusters; both wire formats then feed the one union-find
    core from the same partials: `merge_union_find` builds its owner
    table from whole member lists (O(points)) and applies the labels,
    `merge_edges` builds it from the digests' exports (O(boundary)) and
    `apply_gid_map` follows — so the time difference is the table's
    size, not a second algorithm.  Bytes are the canonical collect
    payloads the `repro_driver_collect_bytes` gauge reports.
    """
    rows, payload = [], []
    last_digests = None
    for dataset, paper_cores in (("c100k", 32), ("r1m", 64)):
        g = make_dataset(dataset)
        (_, cores), = scaled_cores(dataset, [paper_cores])
        res = SpatialSparkDBSCAN(
            EPS, MINPTS, num_partitions=cores, keep_partials=True,
            neighbor_mode="batched",
        ).fit(g.points)
        partials = sorted(res.partials, key=lambda c: c.members[0])

        t0 = time.perf_counter()
        ref = merge_union_find(partials, g.n)
        t_partials = time.perf_counter() - t0
        bytes_partials = partials_payload_nbytes(partials)

        digests = digest_from_partials(partials)
        last_digests = digests
        t0 = time.perf_counter()
        plan = merge_edges(digests)
        labels = apply_gid_map(partials, plan, g.n)
        t_edges = time.perf_counter() - t0
        bytes_edges = digest_payload_nbytes(digests)

        # The wire format must never change the answer.
        assert np.array_equal(labels, ref.labels)
        assert plan.num_global_clusters == ref.num_global_clusters
        # The point of the digest: the driver collects the boundary,
        # not the dataset.
        assert bytes_edges < bytes_partials

        rows.append([
            dataset, g.n, cores, len(partials), plan.num_edges,
            bytes_partials, bytes_edges,
            round(bytes_partials / bytes_edges, 2),
            round(t_partials * 1e3, 2), round(t_edges * 1e3, 2),
        ])
        payload.append({
            "dataset": dataset, "n": g.n, "cores": cores,
            "partials": len(partials), "edges": plan.num_edges,
            "partials_bytes": bytes_partials, "edge_bytes": bytes_edges,
            "partials_merge_s": t_partials, "edge_merge_s": t_edges,
        })
    print_table(
        "Ablation B3: collect payload + driver merge, partials vs edges",
        ["dataset", "n", "cores", "partials", "edges",
         "partials bytes", "edge bytes", "ratio",
         "partials merge (ms)", "edge merge+apply (ms)"],
        rows,
    )
    save_results("ablation_merge_payload", payload)
    benchmark.pedantic(lambda: merge_edges(last_digests), rounds=3,
                       iterations=1)


def _copy(c: PartialCluster) -> PartialCluster:
    return PartialCluster(c.partition, c.local_id, c.lo, c.hi,
                          members=list(c.members), seeds=list(c.seeds))
