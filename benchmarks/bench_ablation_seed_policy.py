"""Ablation A — SEED policy: Algorithm 3's one-seed-per-partition cap vs
recording every foreign neighbour.

DESIGN.md §4: the literal cap can orphan cross-partition *border*
points; the exact policy ("all") matches sequential DBSCAN bit-for-bit
on cluster structure.  This bench quantifies the trade: seed volume
(accumulator payload) against points misclassified as noise.  Under
"all" a task ships only its up-pointing seeds plus orphan rows
(DESIGN.md §11), so ``seeds(all)`` is about half of what the policy
reaches; the cap ships its seeds in every direction.
"""

from __future__ import annotations

import numpy as np

from repro.data import EPS, MINPTS, make_dataset
from repro.dbscan import NOISE, SparkDBSCAN, dbscan_sequential
from repro.kdtree import KDTree

from _harness import print_table, save_results

CORES = [2, 4, 8, 16]


def test_ablation_seed_policy(benchmark):
    g = make_dataset("c10k")
    tree = KDTree(g.points)
    seq = dbscan_sequential(g.points, EPS, MINPTS, tree=tree)

    rows, payload = [], []
    for cores in CORES:
        per_policy = {}
        for policy in ("all", "one_per_partition"):
            res = SparkDBSCAN(EPS, MINPTS, num_partitions=cores,
                              seed_policy=policy).fit(g.points, tree=tree)
            lost = int(np.count_nonzero(
                (res.labels == NOISE) & (seq.labels != NOISE)
            ))
            per_policy[policy] = (res, lost)
        all_res, all_lost = per_policy["all"]
        cap_res, cap_lost = per_policy["one_per_partition"]
        rows.append([
            cores, all_res.num_seeds, cap_res.num_seeds,
            all_lost, cap_lost, cap_res.num_clusters == seq.num_clusters,
        ])
        payload.append({
            "cores": cores,
            "seeds_all": all_res.num_seeds,
            "seeds_capped": cap_res.num_seeds,
            "lost_points_all": all_lost,
            "lost_points_capped": cap_lost,
        })
        # The exact policy loses nothing; the cap may lose border points
        # but must never change the cluster count on core-dense data.
        assert all_lost == 0
        assert cap_res.num_clusters == seq.num_clusters
        assert cap_res.num_seeds <= all_res.num_seeds

    print_table(
        "Ablation A: seed policy (exact 'all' vs Algorithm 3 literal cap)",
        ["cores", "seeds(all)", "seeds(capped)", "lost-points(all)",
         "lost-points(capped)", "capped-clusters-ok"],
        rows,
    )
    save_results("ablation_seed_policy", payload)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
