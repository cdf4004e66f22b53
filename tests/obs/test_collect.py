"""Worker spans: a task's own `Tracer`, its pickle, the clock rebase and
the driver merge."""

import os
import pickle
import time

import cloudpickle
import pytest

from repro.engine import task_context
from repro.engine.metrics import TaskMetrics
from repro.obs import NULL_TRACER, Tracer, merge_telemetry
from repro.obs.collect import current_telemetry, task_span
from repro.obs.spans import _NULL_HANDLE


def _worker_tracer() -> Tracer:
    """A tracer as a traced task leaves it: one grafted span and a
    nested pair."""
    t = Tracer()
    t.add_span("task.deserialize", 0.25, cat="worker", start=-0.25, nbytes=10)
    with t.span("task.expand", cat="worker", partition=2):
        with t.span("task.kdtree_query", cat="worker", n=5) as sp:
            sp.annotate(tiles=1)
    return t


class TestWorkerTelemetry:
    def test_create_anchors_to_this_process(self):
        perf0, wall0 = time.perf_counter(), time.time()
        t = Tracer()
        assert perf0 <= t._origin <= time.perf_counter()
        assert wall0 - 1.0 <= t._origin_wall <= time.time() + 1.0
        assert t.spans == []

    def test_span_context_manager_records_phase(self):
        t = Tracer()
        ctx = task_context.TaskContext(0, 1, 0, TaskMetrics(0, 1, 0),
                                       telemetry=t)
        with task_context.activate(ctx):
            assert current_telemetry() is t
            with task_span("task.kdtree_build", n=100) as sp:
                sp.annotate(leaves=4)
        (s,) = t.spans
        assert s.name == "task.kdtree_build"
        assert s.cat == "worker"
        assert s.duration >= 0.0 and s.start >= 0.0
        assert s.cpu_time >= 0.0
        assert s.labels == {"n": 100, "leaves": 4}

    def test_add_span_accepts_negative_start(self):
        # Deserialization happens before the tracer exists; its span is
        # recorded retroactively with a negative start.
        t = Tracer()
        s = t.add_span("task.deserialize", 0.25, cat="worker", start=-0.25,
                       nbytes=10)
        assert s.start == -0.25
        assert t.spans == [s]

    def test_pickle_roundtrip_preserves_everything(self):
        t = _worker_tracer()
        for dumps in (pickle.dumps, cloudpickle.dumps):
            back = pickle.loads(dumps(t))
            assert back.spans == t.spans
            assert [s.labels for s in back.spans] == [s.labels for s in t.spans]
            assert [s.depth for s in back.spans] == [0, 1, 0]
            assert (back._origin, back._origin_wall) == (t._origin, t._origin_wall)
            # The lock and the span stack are rebuilt: the copy records on.
            with back.span("task.serialize", cat="worker") as sp:
                assert back.current() is sp
            assert back.spans[-1] is sp and sp.depth == 0
        assert len(t.spans) == 3


class TestMergeRebase:
    def test_cross_process_rebases_on_wall_clock(self):
        tracer = Tracer()
        # A tracer "from another process": pid differs, so the merge
        # must use the wall-clock anchor pair, landing the span exactly
        # 5 s after the tracer origin plus its in-task offset.
        worker = Tracer()
        worker._origin_wall = tracer._origin_wall + 5.0
        worker._origin = 12345.0
        worker.add_span("task.run", 2.0, cat="worker", start=1.0, partition=3)
        pid = os.getpid() + 99999
        merge_telemetry(tracer, worker, pid, "task-s1p3")
        (span,) = tracer.spans
        assert span.name == "task.run"
        assert span.start == pytest.approx(6.0)
        assert span.duration == pytest.approx(2.0)
        assert span.pid == pid
        assert span.tid == "task-s1p3"
        assert span.cat == "worker"
        assert span.labels == {"partition": 3}

    def test_same_process_rebases_on_perf_counter(self):
        tracer = Tracer()
        worker = Tracer()
        worker._origin_wall = 0.0  # would produce nonsense if (wrongly) used
        worker._origin = tracer._origin + 3.0
        worker.add_span("task.run", 0.5, cat="worker", start=1.0)
        merge_telemetry(tracer, worker, os.getpid(), "task-s0p0")
        (span,) = tracer.spans
        assert span.start == pytest.approx(4.0)

    def test_merge_keeps_nesting_and_cpu_time(self):
        worker = _worker_tracer()
        before = [(s.start, s.tid, s.pid) for s in worker.spans]
        tracer = Tracer()
        merge_telemetry(tracer, worker, os.getpid(), "task-s0p2")
        merged = {s.name: s for s in tracer.spans}
        assert merged["task.kdtree_query"].depth == merged["task.expand"].depth + 1
        for s in worker.spans:
            assert merged[s.name].cpu_time == s.cpu_time
            assert merged[s.name].duration == pytest.approx(s.duration)
        # The worker's own record is left as it was.
        assert [(s.start, s.tid, s.pid) for s in worker.spans] == before

    def test_disabled_tracer_takes_nothing(self):
        merge_telemetry(NULL_TRACER, _worker_tracer(), os.getpid(), "task-s0p0")
        assert NULL_TRACER.spans == []


class TestTaskSpanOutsideTask:
    def test_no_active_task_is_a_null_handle(self):
        assert current_telemetry() is None
        handle = task_span("task.kdtree_build", n=5)
        assert handle is _NULL_HANDLE
        # The null handle is a working no-op context manager.
        with handle as sp:
            sp.annotate(anything=1)
