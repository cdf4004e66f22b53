"""CLI smoke and behaviour tests."""

import warnings

import numpy as np
import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_table1(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("c10k", "c100k", "r10k", "r100k", "r1m"):
            assert name in out


class TestGenerate:
    def test_writes_points_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        path = tmp_path / "pts.txt"
        assert main(["generate", "r10k", "-o", str(path)]) == 0
        pts = np.loadtxt(path)
        assert pts.shape[1] == 10
        assert "wrote" in capsys.readouterr().out


class TestCluster:
    @pytest.fixture
    def points_file(self, tmp_path):
        from repro.data import generate_clustered, save_points

        g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5)
        path = tmp_path / "p.txt"
        save_points(str(path), g.points)
        return str(path)

    @pytest.mark.parametrize("algo", ["spark", "sequential", "spatial"])
    def test_cluster_algorithms(self, points_file, capsys, algo):
        assert main(["run", points_file, "--plan", algo,
                     "--partitions", "2"]) == 0
        out = capsys.readouterr().out
        assert f"plan={algo}" in out
        assert "3 clusters" in out

    def test_cluster_mapreduce(self, points_file, capsys):
        assert main(["run", points_file, "--plan", "mapreduce",
                     "--partitions", "2"]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_cluster_naive(self, points_file, capsys):
        assert main(["run", points_file, "--plan", "naive",
                     "--partitions", "2"]) == 0
        assert "clusters" in capsys.readouterr().out

    @pytest.mark.parametrize("plan", ["sequential", "naive", "mapreduce"])
    def test_executor_time_is_charged(self, points_file, capsys, plan):
        # These plans' stages, not their frontends, charge the executor
        # side, so `run` reports it like the Spark plans.
        assert main(["run", points_file, "--plan", plan]) == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("timing:")]
        total = float(line.split("executors ")[1].split("s total")[0])
        assert total > 0.0

    def test_labels_out(self, points_file, tmp_path, capsys):
        labels_path = tmp_path / "labels.txt"
        assert main(["run", points_file, "--labels-out", str(labels_path)]) == 0
        labels = np.loadtxt(labels_path, dtype=int)
        assert labels.shape == (400,)
        assert (labels >= -1).all()

    def test_dataset_name_as_source(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "c10k", "--partitions", "2"]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_bad_algorithm_rejected(self, points_file, capsys):
        for plan in ("quantum", "spark_edges"):  # no edges row on ranges
            with pytest.raises(SystemExit):
                main(["run", points_file, "--plan", plan])
        # One --plan replaces the three selectors.
        for flag, value in (("--algorithm", "spark"), ("--partitioning", "cells"),
                            ("--merge-mode", "edges")):
            with pytest.raises(SystemExit):
                main(["run", points_file, flag, value])
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = capsys.readouterr().out
        assert "--plan" in help_text
        for flag in ("--algorithm", "--partitioning", "--merge-mode"):
            assert flag not in help_text


class TestTelemetryFlags:
    @pytest.fixture
    def points_file(self, tmp_path):
        from repro.data import generate_clustered, save_points

        g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5)
        path = tmp_path / "p.txt"
        save_points(str(path), g.points)
        return str(path)

    def test_trace_out_writes_loadable_trace(self, points_file, tmp_path, capsys):
        from repro.obs import TraceReport, load_trace

        trace_path = tmp_path / "t.jsonl"
        assert main(["run", points_file, "--partitions", "2",
                     "--trace-out", str(trace_path)]) == 0
        assert "trace written" in capsys.readouterr().out
        events = load_trace(str(trace_path))
        names = {e["name"] for e in events}
        assert {"dbscan.fit", "driver.kdtree_build", "driver.merge",
                "executor.partition_expand"} <= names
        report = TraceReport.from_events(events)
        assert report.num_executor_spans == 2
        assert report.kdtree_build_s > 0

    def test_metrics_out_writes_wellformed_exposition(
        self, points_file, tmp_path, capsys
    ):
        from repro.obs import parse_exposition

        prom_path = tmp_path / "m.prom"
        assert main(["run", points_file, "--partitions", "2",
                     "--metrics-out", str(prom_path)]) == 0
        assert "metrics written" in capsys.readouterr().out
        samples = parse_exposition(prom_path.read_text())
        assert "repro_run_wall_seconds" in samples
        assert "repro_clusters" in samples
        assert "repro_dbscan_ops_total" in samples
        assert "repro_task_attempts_total" in samples

    def test_trace_subcommand_reports(self, points_file, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["run", points_file, "--partitions", "2",
              "--trace-out", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "Fig 5" in out
        assert "timeline" in out
        assert main(["trace", str(trace_path), "--no-timeline"]) == 0
        assert "timeline" not in capsys.readouterr().out

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_trace_subcommand_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["trace", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_trace_subcommand_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err


#: The families every fit writes, the engine plans' task families, the
#: SEED plans' collect and merge families, and what each row adds.
RESULT = {"clusters", "noise_points", "pipeline_stage_seconds",
          "run_wall_seconds"}
TASKS = {"task_attempts_total", "task_cpu_seconds", "task_peak_rss_bytes",
         "task_run_seconds"}
SEED = RESULT | TASKS | {
    "dbscan_ops_total", "driver_collect_bytes", "merge_global_clusters",
    "merge_merges", "merge_overlapping_points", "partial_clusters"}
HALO = {"cell_halo_bytes", "cell_halo_points", "cell_payload_bytes"}
FAMILIES = {
    "spark": SEED,
    "spatial": SEED,
    "cell": SEED | HALO,
    "spatial_edges": SEED | {"merge_edges_total"},
    "cell_edges": SEED | HALO | {"merge_edges_total"},
    "sequential": RESULT,
    "naive": RESULT | TASKS | {"shuffle_bytes_read_total",
                               "shuffle_bytes_written_total"},
    "mapreduce": RESULT,
}


@pytest.mark.parametrize("flags,want", [
    *((["--plan", plan], want) for plan, want in FAMILIES.items()),
    # A registry with no tracer of the caller's, on a process backend.
    (["--master", "processes[2]"], SEED | {"broadcast_bytes_total"}),
], ids=[*FAMILIES, "processes"])
def test_metrics_out_writes_each_plans_families(flags, want, tmp_path,
                                                capsys, monkeypatch):
    from repro.obs import parse_exposition

    monkeypatch.setenv("REPRO_SCALE", "0.02")
    prom = tmp_path / "m.prom"
    assert main(["run", "c10k", "--partitions", "4", *flags,
                 "--metrics-out", str(prom)]) == 0
    text = prom.read_text()
    parse_exposition(text)
    families = {line.split()[2] for line in text.splitlines()
                if line.startswith("# TYPE ")}
    assert families == {f"repro_{name}" for name in want}


class TestRun:
    @pytest.fixture
    def points_file(self, tmp_path):
        from repro.data import generate_clustered, save_points

        g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5)
        path = tmp_path / "p.txt"
        save_points(str(path), g.points)
        return str(path)

    def test_run_prints_plan_and_summary(self, points_file, capsys):
        assert main(["run", points_file, "--partitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan=spark" in out
        assert "LoadPoints -> " in out
        assert "3 clusters" in out
        assert "timing: kdtree" in out and "driver merge" in out

    def test_crash_then_resume(self, points_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert main(["run", points_file, "--partitions", "2",
                     "--checkpoint-dir", ckpt,
                     "--fail-after", "CollectPartials"]) == 3
        captured = capsys.readouterr()
        assert "pipeline crashed" in captured.err
        assert "--resume" in captured.err

        assert main(["run", points_file, "--partitions", "2",
                     "--checkpoint-dir", ckpt, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "restored" in out
        assert "skipped" in out
        assert "3 clusters" in out

    def test_crashed_run_leaves_its_log(self, tmp_path, capsys, monkeypatch):
        from repro.obs import TraceReport, load_trace, parse_exposition

        monkeypatch.setenv("REPRO_SCALE", "0.05")
        ckpt, crash, resumed = (str(tmp_path / n) for n in ("d", "t.jsonl", "r.jsonl"))
        prom = tmp_path / "m.prom"
        assert main(["run", "c10k", "--checkpoint-dir", ckpt,
                     "--fail-after", "CollectPartials",
                     "--trace-out", crash, "--metrics-out", str(prom)]) == 3
        assert main(["run", "c10k", "--checkpoint-dir", ckpt, "--resume",
                     "--trace-out", resumed]) == 0
        capsys.readouterr()

        def stage_status(path):
            return {e["args"]["stage"]: e["args"]["status"]
                    for e in load_trace(path) if e["name"] == "pipeline.stage"}

        ran = stage_status(crash)
        assert ran["LocalExpand"] == ran["CollectPartials"] == "run"
        assert "MergePartials" not in ran  # crashed before it
        assert stage_status(resumed)["CollectPartials"] == "restored"
        assert len(TraceReport.from_events(load_trace(crash)).jobs) == 1
        samples = parse_exposition(prom.read_text())
        assert "repro_task_attempts_total" in samples
        assert "repro_clusters" not in samples  # no result to report
        for path in (crash, resumed):
            assert main(["trace", path, "--no-timeline"]) == 0
        assert "jobs: 1" in capsys.readouterr().out

    def test_rejected_input_still_writes_trace(self, tmp_path, capsys):
        path, trace = tmp_path / "bad.txt", tmp_path / "t.jsonl"
        path.write_text("0.0 1.0\n2.0 nan\n")
        assert main(["run", str(path), "--eps", "1.0",
                     "--trace-out", str(trace)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert trace.exists()

    def test_run_sets_the_gauges_cluster_sets(self, points_file, tmp_path, capsys):
        from repro.obs import parse_exposition

        # Two runs of the same input set the same result gauges.
        gauges = {}
        for attempt in ("first", "second"):
            prom = tmp_path / f"{attempt}.prom"
            assert main(["run", points_file, "--partitions", "2",
                         "--metrics-out", str(prom)]) == 0
            samples = parse_exposition(prom.read_text())
            gauges[attempt] = {
                name: samples[name] for name in
                ("repro_clusters", "repro_noise_points", "repro_partial_clusters")
            }
        assert gauges["first"] == gauges["second"]

    def test_run_labels_match_cluster(self, points_file, tmp_path, capsys):
        run_out = tmp_path / "run.txt"
        cluster_out = tmp_path / "cluster.txt"
        assert main(["run", points_file, "--partitions", "2",
                     "--labels-out", str(run_out)]) == 0
        assert main(["run", points_file, "--partitions", "2",
                     "--labels-out", str(cluster_out)]) == 0
        capsys.readouterr()
        assert run_out.read_bytes() == cluster_out.read_bytes()

    def test_invalid_config_one_line_error(self, points_file, capsys):
        assert main(["run", points_file, "--eps", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_nan_eps_one_line_error(self, points_file, capsys):
        # nan used to pass `eps <= 0` and label every point noise, exit 0.
        assert main(["run", points_file, "--eps", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "eps" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("plan", [pytest.param("spark", id="range"),
                                      pytest.param("cell", id="cells")])
    def test_non_finite_points_one_line_error(self, tmp_path, capsys, plan):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0\n2.0 nan\n3.0 inf\n")
        assert main(["run", str(path), "--eps", "1.0", "--plan", plan]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("name,text", [("nosuch.txt", None),
                                           ("empty.txt", "")])
    def test_unreadable_points_file_one_line_error(self, tmp_path, capsys,
                                                   name, text):
        # A missing file used to end in numpy's FileNotFoundError
        # traceback; an empty one warned, then clustered "0 points", exit 0.
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1 and "points," not in out

    def test_sanitize_rejected_for_sequential(self, points_file, capsys):
        assert main(["run", points_file, "--plan", "sequential",
                     "--sanitize"]) == 1
        assert "sanitize" in capsys.readouterr().err

    def test_cluster_alias_invalid_config_one_line_error(self, points_file,
                                                         capsys):
        assert main(["run", points_file, "--eps", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps must be positive")
        assert len(err.strip().splitlines()) == 1

    def test_profile_rejected_for_naive(self, points_file, capsys):
        # There is no --profile: CPU and RSS are always on TaskMetrics.
        with pytest.raises(SystemExit) as exc_info:
            main(["run", points_file, "--plan", "naive", "--profile"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err


class TestReportAndPerf:
    @pytest.fixture
    def points_file(self, tmp_path):
        from repro.data import generate_clustered, save_points

        g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5)
        path = tmp_path / "p.txt"
        save_points(str(path), g.points)
        return str(path)

    @pytest.fixture
    def trace_file(self, points_file, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", points_file, "--partitions", "2",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        return str(trace_path)

    def test_report_prints_skew_table(self, trace_file, capsys):
        # `repro trace` prints the summary, then the skew report, then
        # the timeline.
        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "skew report" in out
        assert "imbalance ratio" in out
        assert "partitions, makespan" in out
        assert (out.index("=== trace report ===") < out.index("=== skew report ===")
                < out.index("-- lane "))

    def test_no_timeline_drops_only_the_timeline(self, trace_file, capsys):
        assert main(["trace", trace_file]) == 0
        full = capsys.readouterr().out
        assert main(["trace", trace_file, "--no-timeline"]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "skew report" in out
        assert "-- lane " not in out
        assert full.startswith(out)

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_report_events_only_trace(self, tmp_path, capsys):
        # Metadata-only traces render the explicit empty report.
        p = tmp_path / "meta.jsonl"
        p.write_text('{"name": "process_name", "ph": "M", "pid": 0}\n')
        assert main(["trace", str(p)]) == 0
        out = capsys.readouterr().out
        assert "(no spans)" in out
        assert "(no per-partition task spans in trace)" in out


class TestProfileFlags:
    @pytest.fixture
    def points_file(self, tmp_path):
        from repro.data import generate_clustered, save_points

        g = generate_clustered(n=400, num_clusters=3, cluster_std=8.0, seed=5)
        path = tmp_path / "p.txt"
        save_points(str(path), g.points)
        return str(path)

    def test_cluster_profile_writes_task_metrics(
        self, points_file, tmp_path, capsys
    ):
        # Per-attempt CPU and peak RSS live on TaskMetrics: a plain run
        # with --metrics-out exposes them, no flag needed.
        from repro.obs import parse_exposition

        prom = tmp_path / "m.prom"
        assert main(["run", points_file, "--partitions", "2",
                     "--metrics-out", str(prom)]) == 0
        samples = parse_exposition(prom.read_text())
        assert "repro_task_cpu_seconds_count" in samples
        rss = samples["repro_task_peak_rss_bytes"]
        assert {labels["partition"] for labels, _ in rss} == {"0", "1"}
        assert min(value for _, value in rss) > 0

    def test_profile_rejected_for_sequential(self, points_file, capsys):
        # The profile flags are gone: argparse refuses them outright.
        with pytest.raises(SystemExit) as exc_info:
            main(["run", points_file, "--plan", "sequential",
                  "--profile-alloc"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cluster_master_processes(self, points_file, tmp_path, capsys):
        import os

        from repro.obs import load_trace

        trace = tmp_path / "t.jsonl"
        assert main(["run", points_file, "--partitions", "2",
                     "--master", "processes[2]",
                     "--trace-out", str(trace)]) == 0
        events = load_trace(str(trace))
        worker_pids = {e["pid"] for e in events
                       if e.get("cat") == "worker" and e.get("pid")}
        assert worker_pids and os.getpid() not in worker_pids


class TestHistoryErrors:
    def test_missing_file_one_line_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("definitely not json\n")
        assert main(["trace", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestScaling:
    def test_prints_sweep(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["scaling", "r10k", "--cores", "2", "4"]) == 0
        out = capsys.readouterr().out
        assert "exec-speedup" in out
        assert "baseline" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["report", "cluster"])
    def test_folded_commands_are_refused(self, command, tmp_path, capsys):
        # `repro trace` prints what `report` did; `run` has no alias.
        with pytest.raises(SystemExit) as exc_info:
            main([command, str(tmp_path / "t.jsonl")])
        assert exc_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_scaling_has_no_neighbor_mode(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["scaling", "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "--cores" in out and "--neighbor-mode" not in out

    def test_module_entry_importable(self):
        import repro.cli

        parser = repro.cli.build_parser()
        args = parser.parse_args(["datasets"])
        assert args.command == "datasets"
