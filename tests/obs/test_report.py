"""TraceReport arithmetic: the Fig 5 / Fig 6 splits from synthetic spans."""

import pytest

from repro.obs import (
    TraceReport,
    Tracer,
    format_report,
    format_skew_report,
    render_timeline,
)
from repro.obs.report import _contains


def _synthetic_tracer() -> Tracer:
    """A hand-built trace with known arithmetic:

    driver lane: kdtree_build 1s, setup 2s (containing broadcast 0.5s),
    merge 1s; executor lanes: expansions of 3s/1s; engine lane: one
    2.5s task attempt with shuffle bytes.
    """
    tr = Tracer()
    tr.add_span("driver.kdtree_build", 1.0, cat="driver", start=0.0)
    tr.add_span("driver.setup", 2.0, cat="driver", start=1.0)
    tr.add_span("driver.broadcast", 0.5, cat="driver", start=1.5, nbytes=2048)
    tr.add_span("executor.partition_expand", 3.0, cat="executor",
                tid="executor-0", start=3.0, partition=0, partials=4)
    tr.add_span("executor.partition_expand", 1.0, cat="executor",
                tid="executor-1", start=3.0, partition=1, partials=6)
    tr.add_span("task[s0,p0]", 2.5, cat="engine", tid="task-p0", start=3.0,
                shuffle_bytes_written=100, shuffle_bytes_read=60)
    tr.add_span("driver.merge", 1.0, cat="driver", start=6.0,
                num_partials=10, num_merges=3)
    return tr


class TestContains:
    def test_strict_containment_same_lane_only(self):
        outer = {"tid": "driver", "ts": 0.0, "dur": 10.0}
        inner = {"tid": "driver", "ts": 2.0, "dur": 3.0}
        other_lane = {"tid": "exec", "ts": 2.0, "dur": 3.0}
        assert _contains(outer, inner)
        assert not _contains(inner, outer)
        assert not _contains(outer, other_lane)
        assert not _contains(outer, outer)  # identity is not containment


class TestTraceReport:
    def test_headline_splits(self):
        r = TraceReport.from_tracer(_synthetic_tracer())
        assert r.kdtree_build_s == pytest.approx(1.0)
        # broadcast nests inside setup: counted once, not twice.
        assert r.driver_s == pytest.approx(1.0 + 2.0 + 1.0)
        assert r.driver_phases["driver.broadcast"] == pytest.approx(0.5)
        assert r.executor_total_s == pytest.approx(4.0)
        assert r.executor_max_s == pytest.approx(3.0)
        assert r.num_executor_spans == 2
        assert r.engine_task_s == pytest.approx(2.5)
        assert r.wall_s == pytest.approx(7.0)

    def test_fig5_fraction(self):
        r = TraceReport.from_tracer(_synthetic_tracer())
        # whole = build (1) + executor total (4) + merge (1)
        assert r.whole_s == pytest.approx(6.0)
        assert r.kdtree_fraction == pytest.approx(1.0 / 6.0)
        assert r.kdtree_permille == pytest.approx(1000.0 / 6.0)

    def test_fig6_partials_and_merge(self):
        r = TraceReport.from_tracer(_synthetic_tracer())
        assert r.partials_by_partition == {0: 4, 1: 6}
        assert r.total_partials == 10
        assert r.merge_stats["num_partials"] == 10
        assert r.merge_stats["num_merges"] == 3
        # bookkeeping labels never leak into merge stats
        assert "cpu_ms" not in r.merge_stats
        assert "depth" not in r.merge_stats

    def test_byte_accounting(self):
        r = TraceReport.from_tracer(_synthetic_tracer())
        assert r.broadcast_bytes == 2048
        assert r.shuffle_bytes_written == 100
        assert r.shuffle_bytes_read == 60

    def test_fig5_fraction_of_a_spatial_fit_counts_its_whole_build(
        self, blobs_small
    ):
        """The spatial plan's reorder is its tree build; a trace that
        booked it elsewhere would report half of Fig 5's numerator."""
        from repro.dbscan import SpatialSparkDBSCAN

        tracer = Tracer()
        timings = SpatialSparkDBSCAN(
            25.0, 5, num_partitions=4, tracer=tracer,
        ).fit(blobs_small.points).timings
        r = TraceReport.from_tracer(tracer)
        assert r.kdtree_build_s >= timings.kdtree_build > 0
        assert 0 < r.kdtree_fraction < 1
        # No second driver phase holds tree-building time.
        assert "driver.spatial_reorder" not in r.driver_phases

    def test_empty_trace(self):
        r = TraceReport.from_events([])
        assert r.wall_s == 0.0
        assert r.whole_s == 0.0
        assert r.kdtree_fraction == 0.0
        assert r.total_partials == 0

    def test_roundtrip_through_file_is_identical(self, tmp_path):
        from repro.obs import load_trace

        tr = _synthetic_tracer()
        path = str(tmp_path / "t.jsonl")
        tr.write_jsonl(path)
        live = TraceReport.from_tracer(tr)
        loaded = TraceReport.from_events(load_trace(path))
        assert loaded == live


class TestRendering:
    def test_format_report_mentions_figures(self):
        text = format_report(TraceReport.from_tracer(_synthetic_tracer()))
        assert "Fig 5" in text and "Fig 6" in text
        assert "driver.kdtree_build" in text
        assert "partition 0" in text
        assert "num_merges=3" in text

    def test_render_timeline_lanes_and_bars(self):
        events = _synthetic_tracer().to_events()
        text = render_timeline(events, width=40)
        assert "-- lane driver --" in text
        assert "-- lane executor-0 --" in text
        assert "#" in text
        # driver lane renders first
        assert text.index("lane driver") < text.index("lane executor-0")

    def test_render_timeline_empty(self):
        assert render_timeline([]) == "(no spans)"


def _skew_tracer() -> Tracer:
    """Engine task attempts + worker sub-phases for the skew report.

    Partition 0 has two successful attempts (a speculation race): the
    winner (1.0s) defines its cost.  Partition 1 is the 4.0s straggler.
    """
    tr = Tracer()
    tr.add_span("task[s0,p0]", 1.5, cat="engine", tid="task-p0", start=0.0,
                partition=0, succeeded=True, worker_pid=111)
    tr.add_span("task[s0,p0]", 1.0, cat="engine", tid="task-p0s", start=0.2,
                partition=0, succeeded=True, worker_pid=222)
    tr.add_span("task[s0,p1]", 4.0, cat="engine", tid="task-p1", start=0.0,
                partition=1, succeeded=True, worker_pid=111)
    tr.add_span("task[s0,p2]", 9.0, cat="engine", tid="task-p2", start=0.0,
                partition=2, succeeded=False, worker_pid=111)
    tr.add_span("task.expand", 0.9, cat="worker", tid="worker", start=0.05,
                pid=111)
    tr.add_span("task.kdtree_build", 0.1, cat="worker", tid="worker",
                start=0.0, pid=222)
    tr.add_span("driver.setup", 0.2, cat="driver", start=0.0,
                halo_nbytes=250, payload_nbytes=1000, halo_points=25)
    return tr


class TestWallSpanOffset:
    def test_wall_is_extent_not_distance_from_zero(self):
        # Regression: a trace whose first span starts late (merged
        # worker traces, trimmed traces) must report the extent
        # max(end) - min(start), not max(end) - 0.
        tr = Tracer()
        tr.add_span("driver.kdtree_build", 1.0, cat="driver", start=5.0)
        tr.add_span("driver.merge", 1.0, cat="driver", start=7.0)
        r = TraceReport.from_tracer(tr)
        assert r.wall_s == pytest.approx(3.0)  # 8.0 - 5.0, not 8.0


class TestEmptyAndEventsOnlyTraces:
    def test_empty_report_renders_no_spans_line(self):
        r = TraceReport.from_events([])
        assert r.is_empty
        assert "(no spans)" in format_report(r)
        assert "(no per-partition task spans" in format_skew_report(r)

    def test_events_only_trace_is_the_empty_report(self):
        # Metadata + instant events but no complete ("X") span: the
        # report must come back explicitly empty, not raise.
        events = [
            {"name": "process_name", "ph": "M", "pid": 0,
             "args": {"name": "driver"}},
            {"name": "marker", "ph": "i", "ts": 10.0},
            {"name": "broken", "ph": "X", "ts": "not-a-number", "dur": 5},
        ]
        r = TraceReport.from_events(events)
        assert r.is_empty
        assert "(no spans)" in format_report(r)
        assert render_timeline(events) == "(no spans)"

    def test_render_timeline_tolerates_missing_tid(self):
        events = [{"name": "a", "ph": "X", "ts": 0.0, "dur": 5.0}]
        text = render_timeline(events)
        assert "-- lane driver --" in text


class TestSkewReport:
    def test_partition_costs_take_winning_attempt(self):
        r = TraceReport.from_tracer(_skew_tracer())
        # p0: min(1.5, 1.0); p2's failed attempt is excluded entirely.
        assert r.partition_costs == {0: pytest.approx(1.0),
                                     1: pytest.approx(4.0)}
        assert r.makespan_s == pytest.approx(4.0)
        assert r.straggler_partition == 1
        assert r.imbalance_ratio == pytest.approx(4.0 / 2.5)

    def test_worker_phases_and_pids(self):
        r = TraceReport.from_tracer(_skew_tracer())
        assert r.worker_phase_s == {
            "task.expand": pytest.approx(0.9),
            "task.kdtree_build": pytest.approx(0.1),
        }
        assert r.worker_pids == [111, 222]

    def test_halo_attribution(self):
        r = TraceReport.from_tracer(_skew_tracer())
        assert r.halo_stats["halo_nbytes"] == 250
        assert r.halo_overhead_fraction == pytest.approx(0.25)

    def test_format_skew_report_table(self):
        text = format_skew_report(TraceReport.from_tracer(_skew_tracer()))
        assert "imbalance ratio" in text
        assert "1.60x" in text
        assert "<- straggler" in text
        assert "critical path: partition 1" in text
        assert "halo overhead: 250 of 1000" in text and "25.0%" in text
        # pid column shows where each partition's winner ran
        assert "222" in text

    def test_report_without_task_spans_degrades_gracefully(self):
        tr = Tracer()
        tr.add_span("driver.merge", 1.0, cat="driver", start=0.0)
        text = format_skew_report(TraceReport.from_tracer(tr))
        assert "(no per-partition task spans in trace)" in text
