"""Command-line interface: generate data, cluster, run scaling studies,
read traces and lint task code — one subcommand per job.

    python -m repro datasets
    python -m repro generate c10k -o points.txt
    python -m repro run points.txt --eps 25 --minpts 5 --partitions 8
    python -m repro run r10k --plan mapreduce
    python -m repro run c10k --checkpoint-dir ckpt --resume
    python -m repro run c10k --trace-out t.jsonl
    python -m repro trace t.jsonl        # summary, skew report, timeline
    python -m repro scaling r10k --cores 2 4 8
    python -m repro lint src
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.dbscan.merge import MERGE_STRATEGIES
from repro.dbscan.partial import NEIGHBOR_MODES, SEED_POLICIES
from repro.pipeline.plans import STAGE_MANIFEST


def _load_points(source: str) -> np.ndarray:
    """A dataset name from Table I, or a path to a points file (a file
    that cannot be read raises ``OSError``, one with no points
    ``ValueError``)."""
    from repro.data import PAPER_SIZES, load_points, make_dataset

    if source in PAPER_SIZES:
        return make_dataset(source).points
    return load_points(source)


def cmd_datasets(_args: argparse.Namespace) -> int:
    """List the Table I datasets and their effective sizes."""
    from repro.data import PAPER_SIZES, dataset_spec

    print(f"{'name':>6}  {'paper-points':>12}  {'effective':>9}  d  eps  minpts")
    for name in PAPER_SIZES:
        s = dataset_spec(name)
        print(f"{s.name:>6}  {s.paper_n:>12}  {s.n:>9}  {s.d}  {s.eps}  {s.minpts}")
    print("\n(set REPRO_SCALE=1.0 for full paper sizes)")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a Table I dataset into a points file."""
    from repro.data import make_dataset, save_points

    data = make_dataset(args.dataset)
    save_points(args.output, data.points)
    print(f"wrote {data.n} points (d={data.d}) to {args.output}")
    return 0


def _write_outputs(args: argparse.Namespace, tracer, registry,
                   labels=None) -> None:
    """The output tail of `run`: where the record goes.

    ``labels`` are a finished fit's.  The trace and the metrics (which
    the runner filled) are written either way — `run` calls this in a
    ``finally``, so a crashed run still leaves its log behind.
    """
    if labels is not None and args.labels_out:
        np.savetxt(args.labels_out, labels, fmt="%d")
        print(f"labels written to {args.labels_out}")
    if args.trace_out:
        tracer.write_jsonl(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"({len(tracer.spans)} spans; render with `repro trace`)")
    if args.metrics_out:
        registry.write(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


def cmd_run(args: argparse.Namespace) -> int:
    """Cluster a dataset/points file: run the named pipeline plan, with
    optional per-stage checkpoint/resume.

    The flag x plan rules the pipeline would otherwise ignore are
    rejected here; every other invalid combination (eps, an edges plan
    with --max-neighbors, ...) is `RunConfig`'s one-line ``ValueError``.
    """
    from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
    from repro.pipeline import PipelineCrash, PipelineRunner, RunConfig, build_plan

    if args.sanitize and args.plan in ("sequential", "mapreduce"):
        print(f"error: --sanitize requires a Spark-engine plan "
              f"(not sequential or mapreduce), got {args.plan!r}",
              file=sys.stderr)
        return 1

    try:
        points = _load_points(args.source)
        config = RunConfig(
            eps=args.eps,
            minpts=args.minpts,
            plan=args.plan,
            num_partitions=args.partitions,
            master=args.master,
            seed_policy=args.seed_policy,
            merge_strategy=args.merge_strategy,
            max_neighbors=args.max_neighbors,
            min_cluster_size=args.min_cluster_size,
            leaf_size=args.leaf_size,
            neighbor_mode=args.neighbor_mode,
            impl=args.impl,
            max_rounds=args.max_rounds,
            sanitize=args.sanitize,
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tracer = Tracer() if args.trace_out else NULL_TRACER
    registry = MetricsRegistry() if args.metrics_out else None
    plan = build_plan(config)
    runner = PipelineRunner(
        plan, config, tracer=tracer, metrics_registry=registry,
        checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        fail_after=args.fail_after,
    )
    print(f"{points.shape[0]} points, d={points.shape[1]}; "
          f"plan={plan.name} ({' -> '.join(plan.stage_names())})")
    if args.checkpoint_dir:
        mode = "resume" if args.resume else "cold"
        print(f"checkpoints: {args.checkpoint_dir} ({mode}, "
              f"run key {config.content_hash(points)[:16]}…)")
    labels = None
    try:
        state = runner.run(points)
    except PipelineCrash as exc:
        print(f"pipeline crashed: {exc}", file=sys.stderr)
        print("re-run with --resume to continue from the last checkpoint",
              file=sys.stderr)
        return 3
    except ValueError as exc:  # input rejected by LoadPoints / the planner
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        for name in plan.stage_names():
            print(f"  {name:<16} {state.stage_status.get(name, '?')}")
        labels = state.labels
        num_clusters = int(np.unique(labels[labels >= 0]).size)
        num_noise = int(np.count_nonzero(labels == -1))
        t = state.timings
        print(f"{num_clusters} clusters, {num_noise} noise points out of "
              f"{labels.shape[0]} (wall {t.wall:.3f}s)")
        print(f"timing: kdtree {t.kdtree_build:.3f}s | executors "
              f"{t.executor_total:.3f}s total / {t.executor_max:.3f}s max | "
              f"driver merge {t.driver_merge:.3f}s")
        return 0
    finally:
        _write_outputs(args, tracer, registry, labels)


def cmd_scaling(args: argparse.Namespace) -> int:
    """Run a Figure 8-style core sweep and print speedups."""
    from repro.dbscan import SparkDBSCAN
    from repro.kdtree import KDTree

    try:
        points = _load_points(args.source)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tree = KDTree(points)

    def run(p: int):
        """Fit on ``p`` partitions over the shared tree; returns the
        executor makespan, the driver time and the partial count."""
        res = SparkDBSCAN(args.eps, args.minpts, num_partitions=p).fit(
            points, tree=tree
        )
        return res.timings.executor_max, res.timings.driver_time, \
            res.num_partial_clusters

    base_exec, base_driver, _ = run(1)
    print(f"baseline: executor {base_exec:.3f}s, driver {base_driver:.3f}s")
    print(f"{'cores':>5}  {'exec-speedup':>12}  {'total-speedup':>13}  {'partials':>8}")
    for p in args.cores:
        ex, dr, partials = run(p)
        print(f"{p:>5}  {base_exec / ex:>12.2f}  "
              f"{(base_exec + base_driver) / (ex + dr):>13.2f}  {partials:>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEED-based shuffle-free parallel DBSCAN (IPDPSW 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table I datasets").set_defaults(
        func=cmd_datasets
    )

    g = sub.add_parser("generate", help="generate a Table I dataset to a file")
    g.add_argument("dataset")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser(
        "run",
        help="cluster a dataset name or points file: run a pipeline plan, "
             "with optional per-stage checkpoint/resume",
        description="Run one DBSCAN pipeline plan (see DESIGN.md §9). "
                    "With --checkpoint-dir, checkpointable stages persist "
                    "their outputs keyed by the config+data content hash; "
                    "--resume restores completed stages instead of "
                    "re-running them.",
    )
    r.add_argument("source")
    r.add_argument("--eps", type=float, default=25.0)
    r.add_argument("--minpts", type=int, default=5)
    r.add_argument("--partitions", type=int, default=4)
    r.add_argument("--plan", choices=tuple(STAGE_MANIFEST), default="spark",
                   help="the pipeline plan: a row of STAGE_MANIFEST "
                        "(DESIGN.md §9)")
    r.add_argument("--master", default=None, metavar="URL",
                   help="engine master (simulated[k], threads[k], processes[k]); "
                        "default simulated[partitions]")
    r.add_argument("--seed-policy", choices=SEED_POLICIES, default="all")
    r.add_argument("--merge-strategy", choices=MERGE_STRATEGIES,
                   default="union_find")
    r.add_argument("--max-neighbors", type=int, default=None)
    r.add_argument("--min-cluster-size", type=int, default=0)
    r.add_argument("--leaf-size", type=int, default=64)
    r.add_argument("--neighbor-mode", choices=NEIGHBOR_MODES, default="per_point",
                   help="accepted for compatibility: the SEED plans run the one "
                        "batched kernel under both values; only sequential "
                        "still queries per point under per_point")
    r.add_argument("--impl", choices=("array", "hashtable"), default="array",
                   help="sequential-only point-state implementation")
    r.add_argument("--max-rounds", type=int, default=100,
                   help="naive-only propagation round budget")
    r.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="persist per-stage checkpoint artifacts under DIR")
    r.add_argument("--resume", action="store_true",
                   help="restore completed stages from --checkpoint-dir")
    r.add_argument("--fail-after", default=None, metavar="STAGE",
                   help="inject a crash after the named stage completes "
                        "(checkpoint/resume testing)")
    r.add_argument("--labels-out", default=None)
    r.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a span trace (Chrome trace-event JSON lines, "
                        "Perfetto-loadable; render with `repro trace FILE`)")
    r.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write a Prometheus text exposition of run metrics "
                        "(task attempts, run and CPU seconds, peak RSS, ...)")
    r.add_argument("--sanitize", action="store_true",
                   help="enable the broadcast write-barrier (a task that "
                        "mutates a broadcast value fails the job); "
                        "Spark-engine plans only")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("scaling", help="Figure 8-style speedup sweep")
    s.add_argument("source")
    s.add_argument("--eps", type=float, default=25.0)
    s.add_argument("--minpts", type=int, default=5)
    s.add_argument("--cores", type=int, nargs="+", default=[2, 4, 8])
    s.set_defaults(func=cmd_scaling)

    tr = sub.add_parser(
        "trace",
        help="report on a span trace written by --trace-out",
        description="The headline splits and jobs table, the skew report "
                    "(per-partition cost table, imbalance ratio, makespan "
                    "critical path) and an ASCII timeline of a trace "
                    "written with --trace-out.",
    )
    tr.add_argument("trace_path")
    tr.add_argument("--no-timeline", action="store_true",
                    help="skip the ASCII timeline rendering")
    tr.set_defaults(func=cmd_trace)

    li = sub.add_parser(
        "lint",
        help="static task-closure analysis (capture, determinism, "
             "shuffle-free, picklability, lifecycle/resource-flow, and "
             "driver size-class rules)",
    )
    li.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to scan (default: src)")
    li.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text", dest="fmt", help="report format")
    li.add_argument("--rules", action="store_true",
                    help="print the rule catalogue and exit")
    li.add_argument("--stats", action="store_true",
                    help="print per-rule finding counts, CFG size "
                         "(functions/blocks/edges), and per-size-class "
                         "value counts after the report")
    li.set_defaults(func=cmd_lint)

    return parser


def cmd_trace(args: argparse.Namespace) -> int:
    """Render a span trace: headline splits, the skew report, and an
    ASCII timeline."""
    from repro.obs import (
        TraceReport,
        format_report,
        format_skew_report,
        load_trace,
        render_timeline,
    )

    try:
        events = load_trace(args.trace_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"error: trace {args.trace_path!r} contains no events",
              file=sys.stderr)
        return 1
    report = TraceReport.from_events(events)
    print(format_report(report))
    print()
    print(format_skew_report(report))
    if not args.no_timeline:
        print()
        print(render_timeline(events))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the task-closure static analyzer: exit 1 on any finding, 2
    when the input could not be analysed at all."""
    from repro.lint import LintError, render_sarif, rule_catalogue, run_lint

    if args.rules:
        for rid, summary in rule_catalogue().items():
            print(f"{rid}  {summary}")
        return 0
    try:
        report = run_lint(args.paths, collect_stats=args.stats)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(report.render_json())
    elif args.fmt == "sarif":
        print(render_sarif(report))
    else:
        print(report.render_text())
    if args.stats and args.fmt != "json":
        print(report.render_stats(), file=sys.stderr)
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
