"""The repo benchmark: five workloads, end to end and layer by layer.

One run (what the driver calls; prints one JSON object as its last line)::

    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced then traced, as markdown tables plus a result
file under ``benchmarks/perf/results/``::

    python benchmarks/perf/run.py --seed 1
    python benchmarks/perf/run.py --smoke            # n/16, one repeat, < 60 s
    python benchmarks/perf/run.py --compare A.json B.json

A run generates the workload's points from ``--seed``, hands them as a
``.npy`` file to a fresh run process (`worker.py`), and gives the first
repeat's labels to the independent oracle (`oracle.py`) in a process of
its own.  Metric names, units and bounds live in ``BENCHMARK.json`` at
the repo root; which end-to-end metric each layer metric should move is
in ``moves.json`` next to this file.  README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
from workloads import BY_NAME, MINPTS, SCALE, SMOKE_SCALE, WORKLOADS  # noqa: E402

#: A run must end within 180 s; a child that has not by then is killed.
CHILD_TIMEOUT_S = 150
#: ROADMAP item 1's invariant: stage spans account for the traced wall.
MAX_RESIDUAL_FRAC = 0.10
#: Timed repeats never drop below this (one in --smoke).
MIN_REPEATS = 3
#: Set-up rounds per run; ``setup_s`` takes the median round.
SETUP_ROUNDS = 3
#: --smoke skips the oracle above this many points.
SMOKE_ORACLE_LIMIT = 20000

SAMPLED = ("wall_s", "cpu_s", "makespan_s", "driver_s")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    """What the numbers were measured on; warns when the box is busy."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc / 2:
        print(f"warning: 1-minute load {load:.2f} > nproc/2 = {nproc / 2}; "
              "timings will be noisy", file=sys.stderr)
    return {
        "nproc": nproc,
        "load_1m": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_child(cmd: list[str], work: Path,
              capture: bool = False) -> tuple[int, str]:
    """Run a child in its own process group; kill the group on timeout.

    The run process owns a worker pool, so killing it alone would orphan
    the pool.  The child's own output goes to stderr: stdout's last line
    belongs to the result.  ``TMPDIR`` points into ``work`` so the
    engine's spill directories stay inside the checkout.  Returns the
    exit code and, with ``capture``, the child's stdout.
    """
    proc = subprocess.Popen(
        cmd, start_new_session=True, text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        env={**os.environ, "TMPDIR": str(work)},
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out or ""


def summarize(values: list[float], raw: list[float]) -> dict:
    """Median and spread of one metric's samples at the reference host
    speed, next to the median of the same samples in raw seconds."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {
        "value": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "iqr": q[2] - q[0],
        "raw": statistics.median(raw),
    }


def generate_points(workload, seed: int, scale: float, rounds: int,
                    path: Path) -> tuple[int, list[float], float, float]:
    """Generate ``rounds`` times, save once.

    Returns ``(n, raw generate seconds per round, raw save seconds, the
    host speed they were measured at)``.
    """
    generate_s = []
    with hostspeed.bracket() as region:
        for _ in range(rounds):
            t0 = time.perf_counter()
            points = workload.generate(seed, scale)
            generate_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.save(path, points)
        save_s = time.perf_counter() - t0
    return len(points), generate_s, save_s, region.speed


def ask_oracle(points: Path, fits: list[dict],
               work: Path) -> tuple[list[dict], float, float]:
    """The oracle's verdict per fit, its raw seconds and their host speed.

    The oracle exits 1 on a rejection and on a crash alike, so what
    counts is one verdict per fit: fewer means it did not answer.
    """
    cmd = [sys.executable, str(HERE / "oracle.py"), str(points), str(MINPTS)]
    for fit in fits:
        cmd += [str(fit["eps"]), str(work / fit["labels"])]
    with hostspeed.bracket() as region:
        t0 = time.perf_counter()
        code, out = run_child(cmd, work, capture=True)
        oracle_s = time.perf_counter() - t0
    verdicts = [json.loads(line) for line in out.splitlines()]
    for fit in fits[len(verdicts):]:
        verdicts.append({
            "ok": False, "eps": fit["eps"],
            "reason": f"oracle did not answer (exit code {code})",
        })
    return verdicts, oracle_s, region.speed


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False) -> dict:
    """One run of one workload; see the module docstring."""
    workload = BY_NAME[name]
    scale = SMOKE_SCALE if smoke else SCALE
    rounds = 1 if (trace or smoke) else SETUP_ROUNDS
    work = RESULTS / f"run-{name}-{seed}-{trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        points = work / "points.npy"
        n, generate_s, save_s, generate_speed = generate_points(
            workload, seed, scale, rounds, points
        )
        spawn_speed = hostspeed.measure()
        spawned_unix = time.time()
        code, _ = run_child([
            sys.executable, str(HERE / "worker.py"), name, str(points),
            str(work), "--seconds", str(seconds / 3 if trace else seconds),
            "--trace", str(trace),
            "--min-repeats", str(1 if smoke else MIN_REPEATS),
            "--warmups", str(rounds), "--seed", str(seed),
        ], work)
        if code:
            raise RuntimeError(f"worker.py exited with {code}")
        with open(work / "worker.json") as fh:
            res = json.load(fh)

        # The oracle runs once per set-up round, like generation and the
        # warm-up fit, so that ``setup_s`` is a median and not one draw.
        problems = []
        verdicts, oracle_s = [], [(0.0, 1.0)] * rounds
        if not res["oracle_fits"]:
            problems.append("no fit completed")
        elif smoke and n > SMOKE_ORACLE_LIMIT:
            print(f"{name}: oracle skipped in --smoke (n={n})", file=sys.stderr)
        else:
            asked = [ask_oracle(points, res["oracle_fits"], work)
                     for _ in range(rounds)]
            verdicts = asked[0][0]
            oracle_s = [(raw, speed) for _, raw, speed in asked]
        rejected = [v for v in verdicts if not v["ok"]]
        problems += [f"oracle rejected eps={v['eps']}: {v['reason']}"
                     for v in rejected]
        if res["failed"]:
            problems.append(f"{res['failed']} run(s) raised or changed labels")

        # The worker counts runs; the driver wants fits.  An oracle
        # rejection fails the fits of the run it checked.
        fits = res["fits_per_run"]
        result = {
            "workload": name, "seed": seed, "n": n,
            "attempted": max(1, res["attempted"] * fits),
            "failed": (res["failed"] + bool(rejected)) * fits,
            "counts": res.get("counts", {}), "oracle": verdicts,
            "problems": problems,
        }
        samples = res["samples"]
        if samples:
            speeds = [s["host_speed"] for s in samples]
            e2e = {}
            for m in SAMPLED:
                raw = [s[m] for s in samples]
                e2e[m] = summarize([r / v for r, v in zip(raw, speeds)], raw)
            rate = [fits * n / s["wall_s"] for s in samples]
            e2e["points_per_s"] = summarize(
                [r * v for r, v in zip(rate, speeds)], rate
            )
            e2e["driver_peak_rss_mb"] = {"value": res["driver_peak_rss_mb"]}
            # One set-up round = one generation, one load and warm-up fit
            # and one oracle run, plus what happens once per run: the
            # save and the hand-off to the run process.
            rounds_s = [
                [(g + save_s, generate_speed), (w, res["warmup_speed"]), o,
                 (res["ready_unix"] - spawned_unix, spawn_speed)]
                for g, w, o in zip(generate_s, res["warmup_s"], oracle_s)
            ]
            e2e["setup_s"] = summarize(
                [sum(raw / speed for raw, speed in r) for r in rounds_s],
                [sum(raw for raw, _ in r) for r in rounds_s],
            )
            result["end_to_end"] = e2e
            result["host_speed"] = statistics.median(speeds)
        if "layer" in res:
            layer = res["layer"]
            layer["data.generate_s"] = (
                statistics.median(generate_s) / generate_speed
            )
            result["per_layer"] = layer
            if layer["pipeline.residual_frac"] > MAX_RESIDUAL_FRAC:
                problems.append(
                    "pipeline.residual_frac "
                    f"{layer['pipeline.residual_frac']:.3f} > {MAX_RESIDUAL_FRAC}"
                )
            shutil.move(work / f"trace_{name}.jsonl",
                        RESULTS / f"trace_{name}.jsonl")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def moves_of(metric: str, moves: list[dict]) -> str:
    """Label (M1, M2, ...) of the interaction row a layer metric is in."""
    for k, row in enumerate(moves, 1):
        if any(fnmatch.fnmatchcase(metric, pat) for pat in row["metrics"]):
            return f"M{k}"
    return ""


def print_moves(moves: list[dict]) -> None:
    """The interaction table the ``moves`` column of every layer row cites."""
    print("\n### How the metrics interact\n")
    print("| moves | should move | on | should not move |")
    print("|---|---|---|---|")
    for k, row in enumerate(moves, 1):
        print(f"| M{k} | {row['should_move']} | {row['on']} | "
              f"{row.get('should_not_move', '—')} |")


def contract_line(result: dict, spec: dict, trace: int) -> str:
    """The one JSON object the driver reads off the last line."""
    if trace:
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]],
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": result["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    return json.dumps({
        "correct": not result["problems"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def print_end_to_end(result: dict, spec: dict) -> None:
    print(f"\n### {result['workload']} — end to end (n={result['n']}, "
          f"seed={result['seed']}, host_speed={result['host_speed']:.3f})\n")
    print("| metric | value | unit | better | bound | raw | min | max | samples |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        v = result["end_to_end"][m["name"]]
        spread = (f"{v['raw']:.4g} | {v['min']:.4g} | {v['max']:.4g} | {v['n']}"
                  if "n" in v else " | | | ")
        print(f"| `{m['name']}` | {v['value']:.4g} | {m['unit']} | "
              f"{m['better']} | {m['bound']} | {spread} |")
    frac = result["failed"] / result["attempted"]
    print(f"| `failed_frac` | {frac:.4g} | ratio | lower | 0 | | | | "
          f"{result['attempted']} fits |")
    print(f"\ncounts: `{json.dumps(result['counts'])}`")
    for v in result["oracle"]:
        print(f"oracle eps={v['eps']}: {'accepted' if v['ok'] else 'REJECTED'} "
              f"({v.get('clusters', '?')} clusters, {v.get('noise', '?')} noise, "
              f"{v.get('cores', '?')} cores) {v['reason']}")


def print_per_layer(result: dict, spec: dict, moves: list[dict]) -> None:
    print(f"\n### {result['workload']} — per layer "
          f"(n={result['n']}, seed={result['seed']})\n")
    print("| metric | value | unit | better | moves |")
    print("|---|---|---|---|---|")
    for m in spec["per_layer"]:
        print(f"| `{m['name']}` | {result['per_layer'][m['name']]:.4g} | "
              f"{m['unit']} | {m['better']} | {moves_of(m['name'], moves)} |")
    print(f"\ncounts: `{json.dumps(result['counts'])}`")


def run_one(args, spec: dict) -> int:
    """Contract mode: one workload, one trace setting, JSON last."""
    env = environment()
    print("environment:", json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if "end_to_end" not in result or (args.trace and "per_layer" not in result):
        print("\n".join(result["problems"]), file=sys.stderr)
        return 1
    if args.trace:
        with open(HERE / "moves.json") as fh:
            moves = json.load(fh)
        print_per_layer(result, spec, moves)
        print_moves(moves)
    else:
        print_end_to_end(result, spec)
    for problem in result["problems"]:
        print("problem:", problem, file=sys.stderr)
    print(contract_line(result, spec, args.trace))
    return 1 if result["problems"] else 0


def run_all(args, spec: dict) -> int:
    """Every workload untraced then traced; tables + one result file."""
    scale = SMOKE_SCALE if args.smoke else SCALE
    seconds = 0.0 if args.smoke else args.seconds
    env = environment()
    with open(HERE / "moves.json") as fh:
        moves = json.load(fh)
    print(f"# Benchmark results — seed {args.seed}, scale {scale:g}\n")
    print("environment: `" + json.dumps(env) + "`")
    doc = {"environment": env, "seed": args.seed, "scale": scale,
           "seconds": seconds, "workloads": {}}
    problems = []
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    for name in names:
        untraced = run_workload(name, args.seed, seconds, 0, args.smoke)
        traced = run_workload(name, args.seed, seconds, 1, args.smoke)
        for result in (untraced, traced):
            problems += [f"{name}: {p}" for p in result["problems"]]
        entry = {
            "n": untraced["n"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "counts": {**untraced["counts"], **traced["counts"]},
            "oracle": untraced["oracle"],
            "end_to_end": untraced.get("end_to_end", {}),
            "per_layer": traced.get("per_layer", {}),
        }
        doc["workloads"][name] = entry
        if entry["end_to_end"]:
            print_end_to_end(untraced, spec)
        if entry["per_layer"]:
            print_per_layer(traced, spec, moves)
    print_moves(moves)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (
        "result_smoke.json" if args.smoke else f"result_seed{args.seed}.json"
    )
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"\nresult file: {out.relative_to(ROOT)}")
    for problem in problems:
        print("problem:", problem, file=sys.stderr)
    return 1 if problems else 0


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """A = parent, B = change: every workload x end-to-end metric.

    Exit code 1 on any beyond-bound or count change, 2 when the two files
    were not measured with the same seed, scale and run length.
    """
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    for key in ("seed", "scale", "seconds"):
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]} in A and {b[key]} in B",
                  file=sys.stderr)
            return 2
    bad = 0
    print("| workload | metric | A | B | worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"| {name} | — | | | | | missing in B |")
            bad += 1
            continue
        for m in spec["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (vb["value"] - va["value"]) / va["value"]
            # How far a median of n samples moves from run to run; a
            # difference inside that is no verdict either way.
            spread = max(v.get("iqr", 0.0) / v.get("n", 1) ** 0.5 / v["value"]
                         for v in (va, vb))
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "beyond-bound"
                bad += 1
            else:
                verdict = "ok"
            print(f"| {name} | `{m['name']}` | {va['value']:.4g} | "
                  f"{vb['value']:.4g} | {worse:+.1%} | {m['bound']} | {verdict} |")
        if wa["counts"] != wb["counts"]:
            print(f"| {name} | counts | `{json.dumps(wa['counts'])}` | "
                  f"`{json.dumps(wb['counts'])}` | | exact | count-change |")
            bad += 1
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long one run measures (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics; 1: per-layer metrics; "
                         "omit to run both and write a result file")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at n/16, one repeat")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.trace is not None and args.workload and not args.smoke:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
