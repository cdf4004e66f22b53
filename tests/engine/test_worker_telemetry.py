"""Cross-process task telemetry: spans captured in workers, merged at
the driver with pids preserved and timestamps rebased — on every
backend, with labels byte-identical to untraced runs."""

import os

import numpy as np
import pytest

from repro.engine import SparkContext
from repro.obs import MetricsRegistry, Tracer

MASTERS = ["threads[2]", "processes[2]", "simulated[4]"]


def _run_job(sc):
    """A tiny job whose task body brackets a sub-phase with task_span."""

    def work(pid, it):
        from repro.obs.collect import task_span

        with task_span("task.unit_work", partition=pid) as sp:
            vals = [x * x for x in it]
            sp.annotate(n=len(vals))
        return vals

    return sc.parallelize(range(16), 4).map_partitions_with_index(work).collect()


@pytest.mark.parametrize("master", MASTERS)
class TestWorkerSpansPerBackend:
    def test_worker_spans_reach_the_driver_tracer(self, master):
        tracer = Tracer()
        with SparkContext(master, tracer=tracer) as sc:
            got = _run_job(sc)
        assert got == [x * x for x in range(16)]
        worker = [s for s in tracer.spans if s.cat == "worker"]
        names = {s.name for s in worker}
        # Every backend captures the explicit sub-phase and the
        # run_task bracket; one per partition task.
        assert "task.unit_work" in names
        assert "task.run" in names
        assert len([s for s in worker if s.name == "task.unit_work"]) == 4
        run_spans = [s for s in worker if s.name == "task.run"]
        assert {s.labels["partition"] for s in run_spans} == {0, 1, 2, 3}

    def test_rebased_starts_lie_inside_the_trace(self, master):
        tracer = Tracer()
        with SparkContext(master, tracer=tracer) as sc:
            _run_job(sc)
        from repro.obs import TraceReport

        report = TraceReport.from_tracer(tracer)
        for s in tracer.spans:
            if s.cat != "worker":
                continue
            # Rebase sanity: worker spans land within the trace extent,
            # not at raw perf_counter magnitudes (hours).
            assert -0.5 <= s.start <= report.wall_s + 0.5

    def test_untraced_run_produces_identical_results(self, master):
        with SparkContext(master) as sc:
            untraced = _run_job(sc)
        tracer = Tracer()
        with SparkContext(master, tracer=tracer) as sc:
            traced = _run_job(sc)
        assert untraced == traced


class TestProcessBackendSpecifics:
    def test_distinct_worker_pids_preserved(self):
        tracer = Tracer()
        with SparkContext("processes[2]", tracer=tracer) as sc:
            _run_job(sc)
        pids = {s.pid for s in tracer.spans if s.cat == "worker"}
        assert pids, "no worker spans captured"
        assert os.getpid() not in pids
        # 4 tasks over 2 process slots: both workers show up.
        assert len(pids) == 2

    def test_serialization_spans_only_cross_process(self):
        tracer = Tracer()
        with SparkContext("processes[2]", tracer=tracer) as sc:
            _run_job(sc)
        names = {s.name for s in tracer.spans if s.cat == "worker"}
        assert {"task.deserialize", "task.serialize"} <= names

        tracer_threads = Tracer()
        with SparkContext("threads[2]", tracer=tracer_threads) as sc:
            _run_job(sc)
        thread_names = {
            s.name for s in tracer_threads.spans if s.cat == "worker"
        }
        # In-process backends never pickle tasks: no envelope spans.
        assert "task.deserialize" not in thread_names
        assert "task.serialize" not in thread_names

    def test_in_process_backends_report_driver_pid(self):
        tracer = Tracer()
        with SparkContext("threads[2]", tracer=tracer) as sc:
            _run_job(sc)
        pids = {s.pid for s in tracer.spans if s.cat == "worker"}
        assert pids == {os.getpid()}


class TestTelemetryCollectionPolicy:
    def test_no_tracer_no_registry_means_no_collection(self):
        with SparkContext("threads[2]") as sc:
            def probe(pid, it):
                from repro.obs.collect import current_telemetry

                return [current_telemetry() is None for _ in it]

            got = sc.parallelize(range(4), 2).map_partitions_with_index(
                probe
            ).collect()
        assert all(got)

    def test_registry_alone_enables_collection(self):
        # Metric deltas need the buffer even when spans go nowhere.
        reg = MetricsRegistry()
        with SparkContext("threads[2]", metrics_registry=reg) as sc:
            def count(pid, it):
                from repro.obs.collect import current_telemetry

                t = current_telemetry()
                assert t is not None
                n = len(list(it))
                t.inc("repro_probe_total", n, help="Probe.")
                return [n]

            sc.parallelize(range(10), 2).map_partitions_with_index(
                count
            ).collect()
        assert reg.get("repro_probe_total").value() == pytest.approx(10.0)


class TestProfilingThroughTheEngine:
    def test_profiles_land_in_registry(self):
        reg = MetricsRegistry()
        with SparkContext("threads[2]", metrics_registry=reg,
                          profile=True) as sc:
            sc.parallelize(range(8), 2).map(lambda x: x + 1).collect()
        assert reg.get("repro_task_cpu_seconds") is not None
        rss = reg.get("repro_task_peak_rss_bytes")
        assert rss is not None
        assert max(rss._values.values()) > 1024 * 1024

    def test_alloc_profile_across_processes(self):
        reg = MetricsRegistry()
        with SparkContext("processes[2]", metrics_registry=reg,
                          profile=True, profile_alloc=True) as sc:
            got = sc.parallelize(range(4), 2).map(
                lambda x: len(bytes(200_000))
            ).collect()
        assert got == [200_000] * 4
        alloc = reg.get("repro_task_alloc_peak_bytes")
        assert alloc is not None
        assert max(alloc._values.values()) > 100_000


class TestDbscanLabelsUnaffected:
    @pytest.mark.parametrize("master", MASTERS)
    def test_traced_profiled_labels_byte_identical(self, master):
        from repro.data import generate_clustered
        from repro.dbscan import SparkDBSCAN

        pts = generate_clustered(n=400, num_clusters=3, cluster_std=8.0,
                                 seed=5).points
        plain = SparkDBSCAN(25.0, 5, num_partitions=4, master=master,
                            neighbor_mode="batched").fit(pts)
        tracer = Tracer()
        reg = MetricsRegistry()
        full = SparkDBSCAN(25.0, 5, num_partitions=4, master=master,
                           neighbor_mode="batched", tracer=tracer,
                           metrics_registry=reg, profile=True).fit(pts)
        assert np.array_equal(plain.labels, full.labels)
        worker_names = {s.name for s in tracer.spans if s.cat == "worker"}
        assert "task.expand" in worker_names
        queries = [s for s in tracer.spans if s.name == "task.kdtree_query"]
        assert len(queries) == 4
        for s in queries:
            # The tile count the kernel ran, the rows they covered and
            # the band pairs the exact arithmetic decided (none here).
            assert s.labels["tiles"] >= 1
            assert s.labels["rows"] >= s.labels["n"] > 0
            assert s.labels["rechecks"] == 0
