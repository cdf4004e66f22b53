"""repro — reproduction of "A Novel Scalable DBSCAN Algorithm with Spark"
(Han, Agrawal, Liao, Choudhary — IEEE IPDPSW 2016).

Layered public API:

- `repro.engine`    — mini-Spark runtime (RDDs, scheduler, shared variables)
- `repro.mapreduce` — mini Hadoop-MapReduce runtime (Figure 7 baseline)
- `repro.kdtree`    — from-scratch kd-tree with eps-range queries
- `repro.data`      — Table I synthetic dataset generators
- `repro.dbscan`    — sequential DBSCAN, the paper's SEED-based Spark
  DBSCAN, the shuffle-based naive parallel baseline, and the MapReduce
  baseline
- `repro.analysis`  — Section IV-C analytical cost model

Quickstart::

    from repro.data import make_dataset
    from repro.dbscan import SparkDBSCAN

    points = make_dataset("c10k").points
    result = SparkDBSCAN(eps=25.0, minpts=5, num_partitions=8).fit(points)
    print(result.num_clusters, result.num_noise)
"""

__version__ = "1.0.0"
