"""Worker telemetry: span buffers, the clock rebase, and the driver merge."""

import os
import pickle

import pytest

from repro.obs import Tracer, WorkerTelemetry, merge_telemetry
from repro.obs.collect import current_telemetry, task_span
from repro.obs.spans import _NULL_HANDLE


class TestWorkerTelemetry:
    def test_create_anchors_to_this_process(self):
        t = WorkerTelemetry.create(tid="task-s0p1")
        assert t.pid == os.getpid()
        assert t.tid == "task-s0p1"
        assert t.spans == []

    def test_span_context_manager_records_phase(self):
        t = WorkerTelemetry.create()
        with t.span("task.kdtree_build", n=100) as sp:
            sp.annotate(leaves=4)
        assert len(t.spans) == 1
        (s,) = t.spans
        assert s.name == "task.kdtree_build"
        assert s.dur >= 0.0 and s.start >= 0.0
        assert s.cpu_s >= 0.0
        assert s.labels == {"n": 100, "leaves": 4}

    def test_add_span_accepts_negative_start(self):
        # Deserialization happens before the buffer exists; its span is
        # recorded retroactively with a negative anchor offset.
        t = WorkerTelemetry.create()
        s = t.add_span("task.deserialize", start=-0.25, dur=0.25, nbytes=10)
        assert s.start == -0.25
        assert t.spans == [s]

    def test_pickle_roundtrip_preserves_everything(self):
        t = WorkerTelemetry.create(tid="task-s1p2")
        t.add_span("task.run", start=0.0, dur=1.5, cpu_s=1.2, partition=2)
        back = pickle.loads(pickle.dumps(t))
        assert back == t


class TestMergeRebase:
    def test_cross_process_rebases_on_wall_clock(self):
        tracer = Tracer()
        # A buffer "from another process": pid differs, so the merge
        # must use the wall-clock anchor pair, landing the span exactly
        # 5 s after the tracer origin plus its in-task offset.
        t = WorkerTelemetry(
            pid=os.getpid() + 99999,
            wall_anchor=tracer._origin_wall + 5.0,
            perf_anchor=12345.0,
            tid="worker",
        )
        t.add_span("task.run", start=1.0, dur=2.0, partition=3)
        merge_telemetry(tracer, t)
        (span,) = tracer.spans
        assert span.name == "task.run"
        assert span.start == pytest.approx(6.0)
        assert span.duration == pytest.approx(2.0)
        assert span.pid == t.pid
        assert span.cat == "worker"

    def test_same_process_rebases_on_perf_counter(self):
        tracer = Tracer()
        t = WorkerTelemetry(
            pid=os.getpid(),
            wall_anchor=0.0,  # would produce nonsense if (wrongly) used
            perf_anchor=tracer._origin + 3.0,
        )
        t.add_span("task.run", start=1.0, dur=0.5)
        merge_telemetry(tracer, t)
        (span,) = tracer.spans
        assert span.start == pytest.approx(4.0)


class TestTaskSpanOutsideTask:
    def test_no_active_task_is_a_null_handle(self):
        assert current_telemetry() is None
        handle = task_span("task.kdtree_build", n=5)
        assert handle is _NULL_HANDLE
        # The null handle is a working no-op context manager.
        with handle as sp:
            sp.annotate(anything=1)
