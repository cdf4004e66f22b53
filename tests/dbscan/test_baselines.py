"""Baselines: naive shuffle-based Spark DBSCAN and MapReduce DBSCAN."""

import pytest

from repro.dbscan import (
    MapReduceDBSCAN,
    NaiveSparkDBSCAN,
    SparkDBSCAN,
    clusterings_equivalent,
    dbscan_sequential,
)


@pytest.fixture(scope="module")
def data():
    from repro.data import generate_clustered
    from repro.kdtree import KDTree

    g = generate_clustered(n=1500, num_clusters=4, cluster_std=8.0, seed=11)
    tree = KDTree(g.points)
    seq = dbscan_sequential(g.points, 25.0, 5, tree=tree)
    return g, tree, seq


class TestNaiveSparkDBSCAN:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_equivalent_to_sequential(self, data, p):
        g, tree, seq = data
        res = NaiveSparkDBSCAN(25.0, 5, num_partitions=p).fit(g.points)
        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why

    def test_shuffles_happen(self, data):
        """The whole point: the traditional design shuffles, repeatedly."""
        g, _tree, _seq = data
        res = NaiveSparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points)
        assert res.shuffle_rounds >= 2
        assert res.shuffle_bytes > 0

    def test_seed_version_never_shuffles(self, data):
        """Counterpart: the paper's SEED design must have zero shuffles."""
        from repro.engine import SparkContext

        g, tree, _seq = data
        with SparkContext("simulated[4]") as sc:
            SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, sc=sc, tree=tree)
            nbytes = sum(
                tm.shuffle_bytes_written
                for jm in sc.dag_scheduler.job_metrics
                for st in jm.stages
                for tm in st.task_metrics
            )
            assert nbytes == 0
            # Every job in the SEED pipeline is single-stage (no wide deps).
            assert all(len(jm.stages) == 1 for jm in sc.dag_scheduler.job_metrics)

    def test_lent_context_counts_only_this_fits_jobs(self, data):
        # A lent context keeps every earlier job's metrics: a second fit
        # must report its own shuffle bytes and task times, not the sum.
        from repro.engine import SparkContext

        g, _tree, _seq = data
        with SparkContext("simulated[2]") as sc:
            first, second = (
                NaiveSparkDBSCAN(25.0, 5, num_partitions=2).fit(g.points, sc=sc)
                for _ in range(2)
            )
        assert second.shuffle_bytes == first.shuffle_bytes > 0
        assert (len(second.timings.executor_task_durations)
                == len(first.timings.executor_task_durations) > 0)

    def test_convergence_within_round_budget(self, data):
        g, _tree, _seq = data
        res = NaiveSparkDBSCAN(25.0, 5, num_partitions=2, max_rounds=100).fit(g.points)
        assert res.shuffle_rounds < 100  # converged, not exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            NaiveSparkDBSCAN(0.0, 5)
        with pytest.raises(ValueError):
            NaiveSparkDBSCAN(1.0, 0)


class TestMapReduceDBSCAN:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_equivalent_to_sequential(self, data, m, tmp_path):
        g, tree, seq = data
        res = MapReduceDBSCAN(25.0, 5, num_maps=m, startup_overhead=0.0,
                              tmp_dir=str(tmp_path)).fit(g.points)
        ok, why = clusterings_equivalent(seq.labels, res.labels, g.points,
                                         25.0, 5, tree=tree)
        assert ok, why

    def test_two_jobs_run(self, data, tmp_path):
        g, _tree, _seq = data
        res = MapReduceDBSCAN(25.0, 5, num_maps=2, startup_overhead=0.0,
                              tmp_dir=str(tmp_path)).fit(g.points)
        assert len(res.job_stats) == 2
        for stats in res.job_stats:
            assert stats.spill_bytes > 0  # intermediates hit disk

    def test_startup_overhead_charged_per_job(self, data, tmp_path):
        g, _tree, _seq = data
        res = MapReduceDBSCAN(25.0, 5, num_maps=2, startup_overhead=0.5,
                              tmp_dir=str(tmp_path)).fit(g.points)
        assert res.wall_on(4) >= 1.0  # two jobs x 0.5s

    def test_slower_than_spark_at_same_cores(self, data, tmp_path):
        """Figure 7's qualitative claim: Spark beats MapReduce.  A modest
        per-job startup overhead models Hadoop job submission; the
        zero-overhead structural claim is asserted (in aggregate, on a
        bigger workload) by benchmarks/bench_fig7_mapreduce_vs_spark.py."""
        g, tree, _seq = data
        mr = MapReduceDBSCAN(25.0, 5, num_maps=4, startup_overhead=0.25,
                             tmp_dir=str(tmp_path)).fit(g.points)
        spark = SparkDBSCAN(25.0, 5, num_partitions=4).fit(g.points, tree=tree)
        spark_wall = spark.timings.parallel_wall()
        assert mr.wall_on(4) > spark_wall

    def test_wall_monotone_in_cores(self, data, tmp_path):
        g, _tree, _seq = data
        res = MapReduceDBSCAN(25.0, 5, num_maps=4, startup_overhead=0.0,
                              tmp_dir=str(tmp_path)).fit(g.points)
        assert res.wall_on(1) >= res.wall_on(2) >= res.wall_on(8)

    def test_validation(self):
        with pytest.raises(ValueError):
            MapReduceDBSCAN(0.0, 5)
        with pytest.raises(ValueError):
            MapReduceDBSCAN(1.0, 5, num_maps=0)
