"""The jobs table of a span trace: what `repro history` used to print
from the event log, now folded from the trace by `TraceReport`."""

import pytest

from repro.engine import FaultPlan, SparkContext
from repro.obs import TraceReport, Tracer, format_report, load_trace


def _traced(path, body, master="simulated[2]"):
    """Run ``body(sc)`` under a traced context; write and reload the trace."""
    tracer = Tracer()
    with SparkContext(master, app_name="history-test", tracer=tracer) as sc:
        body(sc)
    tracer.write_jsonl(path)
    return TraceReport.from_events(load_trace(path))


class TestSummarize:
    def _run_app(self, path):
        def body(sc):
            sc.parallelize(range(8), 2).count()
            sc.parallelize([(i % 2, i) for i in range(8)], 2).reduce_by_key(
                lambda a, b: a + b
            ).collect()

        return _traced(path, body)

    def test_jobs_and_stages_counted(self, tmp_path):
        report = self._run_app(str(tmp_path / "t.jsonl"))
        assert (report.app_name, report.master) == ("history-test", "simulated[2]")
        assert len(report.jobs) == 2
        assert len(report.jobs[0].stages) == 1
        assert len(report.jobs[1].stages) == 2
        assert all(j.wall_s > 0 for j in report.jobs.values())
        assert sum(
            s.num_tasks for j in report.jobs.values() for s in j.stages.values()
        ) == 2 + 4

    def test_failures_counted(self, tmp_path):
        def body(sc):
            sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 2})
            sc.parallelize(range(4), 2).collect()

        report = _traced(str(tmp_path / "t.jsonl"), body)
        assert report.jobs[0].failed_attempts == 2
        assert report.jobs[0].stages[0].num_tasks == 2  # distinct partitions

    def test_shuffle_bytes_surface(self, tmp_path):
        report = self._run_app(str(tmp_path / "t.jsonl"))
        stages = [s for j in report.jobs.values() for s in j.stages.values()]
        total_written = sum(s.shuffle_bytes_written for s in stages)
        total_read = sum(s.shuffle_bytes_read for s in stages)
        assert total_written > 0
        # the reduce side of the shuffle charges its read volume too,
        # and reads exactly what the map side wrote
        assert total_read == total_written
        assert (report.shuffle_bytes_written, report.shuffle_bytes_read) == (
            total_written, total_read
        )

    def test_format_renders(self, tmp_path):
        text = format_report(self._run_app(str(tmp_path / "t.jsonl")))
        assert "application: history-test (master=simulated[2])" in text
        assert "jobs: 2   tasks: 6" in text
        assert "stage 0:" in text
        assert "shuffle bytes written" in text
        assert "shuffle bytes read" in text

    def test_empty_events(self):
        report = TraceReport.from_events([])
        assert report.jobs == {}
        assert "application:" not in format_report(report)


class TestEventLog:
    """The engine's record of what ran: `JobMetrics` always, the trace
    when a tracer is live (the event log's two successors)."""

    def test_failed_attempts_logged(self, sc):
        sc.fault_plan = FaultPlan(fail_attempts={(-1, 0): 1})
        sc.parallelize(range(4), 2).collect()
        tasks = sc.last_job_metrics.stages[0].task_metrics
        assert any(not t.succeeded for t in tasks)

    def test_file_backed_log_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        with SparkContext("simulated[2]", tracer=tracer) as sc:
            sc.parallelize(range(4), 2).count()
        tracer.write_jsonl(path)
        events = [e for e in load_trace(path) if e["ph"] == "X"]
        assert events[0]["name"] == "engine.context"
        assert events[0]["args"]["master"] == "simulated[2]"
        names = [e["name"] for e in events]
        assert "engine.job" in names and "engine.stage" in names
        assert {"task[s0,p0]", "task[s0,p1]"} <= set(names)


class TestHistoryErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_trace(str(tmp_path / "nope.jsonl"))

    def test_empty_log(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_trace(str(path)) == []
        assert main(["trace", str(path)]) == 1
        assert "contains no events" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValueError, match="malformed trace line"):
            load_trace(str(path))

    def test_wrong_schema(self, tmp_path):
        # Not a trace event: nothing to fold, and nothing raises.
        path = tmp_path / "wrong.jsonl"
        path.write_text('{"something": "else"}\n')
        report = TraceReport.from_events(load_trace(str(path)))
        assert report.is_empty and report.jobs == {}

    def test_non_dict_event(self, tmp_path):
        path = tmp_path / "scalar.jsonl"
        path.write_text("42\n")
        with pytest.raises(ValueError, match="not an object"):
            load_trace(str(path))


class TestCliHistory:
    def test_history_subcommand(self, tmp_path, capsys):
        # The subcommand is gone; `repro trace` prints what it printed.
        from repro.cli import main

        path = str(tmp_path / "t.jsonl")
        _traced(path, lambda sc: sc.parallelize(range(4), 2).count())
        assert main(["trace", path, "--no-timeline"]) == 0
        out = capsys.readouterr().out
        assert "jobs: 1   tasks: 2" in out
        with pytest.raises(SystemExit):
            main(["history", path])
