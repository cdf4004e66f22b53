"""Tracer/span semantics: nesting, grafting, export, null behaviour."""

import json
import threading

import pytest

from repro.obs import NULL_TRACER, Tracer, load_trace
from repro.obs.spans import NullTracer, fit_scope, iter_complete_events, routed


class TestTracer:
    def test_span_records_duration_and_labels(self):
        tr = Tracer()
        with tr.span("phase", cat="driver", n=10) as sp:
            sp.annotate(extra="yes")
        (span,) = tr.spans
        assert span.name == "phase"
        assert span.cat == "driver"
        assert span.duration >= 0.0
        assert span.labels == {"n": 10, "extra": "yes"}

    def test_nesting_sets_depth_and_inherits_tid(self):
        tr = Tracer()
        with tr.span("outer", tid="lane-7"):
            with tr.span("inner") as inner:
                assert tr.current() is inner
        by_name = {s.name: s for s in tr.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner"].tid == "lane-7"
        assert tr.current() is None

    def test_inner_span_closes_before_outer(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        names = [s.name for s in tr.spans]  # completion order
        assert names == ["inner", "outer"]

    def test_exception_still_closes_span(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in tr.spans] == ["doomed"]
        assert tr.current() is None

    def test_add_span_backdates_to_end_now(self):
        tr = Tracer()
        span = tr.add_span("task", 0.25, cat="executor", tid="executor-3",
                           partition=3)
        assert span.duration == pytest.approx(0.25)
        assert span.tid == "executor-3"
        assert span.labels == {"partition": 3}
        assert span.end >= span.start

    def test_add_span_explicit_start(self):
        tr = Tracer()
        span = tr.add_span("task", 2.0, start=1.0)
        assert span.start == pytest.approx(1.0)
        assert span.end == pytest.approx(3.0)

    def test_instant_is_zero_duration(self):
        tr = Tracer()
        assert tr.instant("marker").duration == 0.0

    def test_find_and_total(self):
        tr = Tracer()
        tr.add_span("x", 1.0)
        tr.add_span("x", 2.0)
        tr.add_span("y", 4.0)
        assert len(tr.find("x")) == 2
        assert tr.total("x") == pytest.approx(3.0)
        assert tr.total("missing") == 0.0

    def test_threads_nest_independently(self):
        tr = Tracer()
        seen = {}

        def worker():
            with tr.span("worker-span", tid="t2") as sp:
                seen["depth"] = sp.depth

        with tr.span("main-span"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker thread has its own stack: its span is top-level.
        assert seen["depth"] == 0
        assert len(tr.spans) == 2


class TestExport:
    def test_to_event_shape(self):
        tr = Tracer()
        with tr.span("phase", cat="driver", n=5):
            pass
        (event,) = tr.to_events()
        assert event["ph"] == "X"
        assert event["cat"] == "driver"
        assert event["tid"] == "driver"
        assert event["args"]["n"] == 5
        assert "depth" in event["args"] and "cpu_ms" in event["args"]
        assert isinstance(event["ts"], float) and isinstance(event["dur"], float)

    def test_to_events_sorted_by_start(self):
        tr = Tracer()
        tr.add_span("late", 0.1, start=5.0)
        tr.add_span("early", 0.1, start=1.0)
        assert [e["name"] for e in tr.to_events()] == ["early", "late"]

    def test_write_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        with tr.span("outer", cat="driver"):
            with tr.span("inner"):
                pass
        path = str(tmp_path / "trace.jsonl")
        tr.write_jsonl(path)
        events = load_trace(path)
        spans = [e for e in events if e.get("ph") == "X"]
        assert {e["name"] for e in spans} == {"outer", "inner"}
        # one process_name metadata record per distinct pid (Perfetto lanes)
        meta = [e for e in events if e.get("ph") == "M"]
        assert len(meta) == 1 and meta[0]["name"] == "process_name"
        with open(path) as f:
            for line in f:
                json.loads(line)  # one event per line

    def test_load_trace_accepts_array_form(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([{"name": "a", "ph": "X", "ts": 0, "dur": 1}]))
        events = load_trace(str(path))
        assert events[0]["name"] == "a"

    def test_load_trace_rejects_garbage_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": true}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            load_trace(str(path))

    def test_load_trace_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("42\n")
        with pytest.raises(ValueError, match="not an object"):
            load_trace(str(path))

    def test_iter_complete_events_filters(self):
        events = [
            {"ph": "X", "ts": 0, "dur": 1},
            {"ph": "B", "ts": 0},                 # wrong phase
            {"ph": "X", "ts": "zero", "dur": 1},  # non-numeric ts
            {"ph": "X", "ts": 0},                 # missing dur
        ]
        assert len(list(iter_complete_events(events))) == 1


class TestNullTracer:
    def test_is_disabled_singleton(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert Tracer.enabled is True

    def test_all_operations_are_inert(self):
        with NULL_TRACER.span("anything", cat="driver", n=1) as sp:
            sp.annotate(more=2)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.to_events() == []
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.add_span("x", 1.0).duration == 0.0
        assert NULL_TRACER.instant("x").duration == 0.0

    def test_handles_are_shared_objects(self):
        # No allocation on the disabled path: same handle every call.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_write_jsonl_refuses(self, tmp_path):
        with pytest.raises(RuntimeError):
            NULL_TRACER.write_jsonl(str(tmp_path / "t.jsonl"))


def test_fit_scope_routes_this_thread_only():
    own, fit = Tracer(), Tracer()
    seen = []
    with fit_scope(fit):
        assert routed(own) is fit
        other = threading.Thread(target=lambda: seen.append(routed(own)))
        other.start()
        other.join()
    assert seen == [own]
    assert routed(own) is own
