#!/usr/bin/env python
"""Tour of the mini-Spark engine underneath the DBSCAN reproduction.

The paper's algorithm uses a narrow slice of Spark (parallelize, a
per-partition map, broadcast, accumulator, collect); its two baselines
add ``flat_map``/``reduce_by_key``.  That is all the engine implements.
This example shows the three pieces of Section II-B machinery the paper
discusses: a shuffle boundary, lazy lineage with caching, and the reuse
of map output across jobs.

    python examples/engine_tour.py
"""

from repro.engine import SparkContext


def main() -> None:
    with SparkContext("threads[4]") as sc:
        print("== word count (the canonical shuffle job) ==")
        text = [
            "spark avoids shuffles when it can",
            "dbscan with spark avoids shuffles entirely",
            "seeds let the driver merge partial clusters",
        ]
        counts = (
            sc.parallelize(text, 3)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
        )
        top = sorted(counts.collect(), key=lambda kv: (-kv[1], kv[0]))[:5]
        print("   top words:", top)
        print("   stages in that job:", len(sc.last_job_metrics.stages),
              "(map-side + reduce-side — a shuffle boundary)")

        print("\n== lazy lineage + caching ==")
        expensive_calls = sc.accumulator()
        cached = sc.parallelize(range(10_000), 4).map(
            lambda x: (expensive_calls.add(1), x * x)[1]
        ).cache()
        print("   nothing computed yet:", expensive_calls.value == 0)
        s1 = sum(cached.collect())
        s2 = sum(cached.collect())
        print(f"   two actions, sums equal: {s1 == s2}; "
              f"map ran {expensive_calls.value} times; block manager: "
              f"{sc.block_manager.misses} misses, {sc.block_manager.hits} hits")
        cached.unpersist()
        cached.count()
        print(f"   after unpersist the lineage recomputes: map ran "
              f"{expensive_calls.value} times")

        print("\n== shuffle reuse across jobs ==")
        r = sc.parallelize([(i % 5, 1) for i in range(100)], 4).reduce_by_key(
            lambda a, b: a + b
        )
        r.collect()
        first = len(sc.last_job_metrics.stages)
        r.count()
        second = len(sc.last_job_metrics.stages)
        print(f"   first action ran {first} stages; second ran {second} "
              "(map output reused, like Spark's map-output tracker)")


if __name__ == "__main__":
    main()
