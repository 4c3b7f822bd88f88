#!/usr/bin/env python3
"""Build the scheduler and run one benchmark workload.

    python3 perfbench/run.py --workload sim_defrag [--seed 2021] [--seconds 55] [--trace 0|1]

Builds `jigsaw-sched` and the `perfbench` driver in release mode, runs the
workload, and prints one line per metric, then one JSON object with
`correct`, `attempted`, `failed` and `metrics` as the last line. Metric
names and units come from BENCHMARK.json: `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. The exit code is
non-zero when a build fails, a correctness gate fails, or the driver
leaves out a declared metric or reports an undeclared one.

    python3 perfbench/run.py --workload sim_defrag --steadiness 10

runs the workload once per seed (seeds 1..10) and prints, per metric, the
median and the spread (interquartile range over median).

Run from the root of the repository. Build outputs go to
$CARGO_TARGET_DIR (default `.bench_build`).
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# BENCHMARK.json declares sim_defrag and serve_tcp; sim_easy and
# sim_conservative isolate the search and the replay path for studies of
# one layer (see README.md).
WORKLOADS = ("sim_easy", "sim_conservative", "sim_defrag", "serve_tcp")
DEFAULT_SEED = 2021
RUN_TIMEOUT_S = 170


def spread(values):
    """Interquartile range over median, with the quartiles Python's
    statistics.quantiles(values, n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for the arm."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def assemble(driver, declared):
    """The report for the driver's last line: each declared metric with its
    unit, 0 for a per-layer metric of a layer the workload never enters
    (its prefix is in `idle_layers`). Returns (report, problems): metrics
    the driver left out, did not declare, or gave no finite number for."""
    values = driver.get("values", {})
    idle = set(driver.get("idle_layers", []))
    problems, metrics = [], {}
    for name, unit in declared:
        value = values.get(name)
        if value is None and name.split(".")[0] in idle:
            value = 0.0
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} was not measured ({value!r})")
            continue
        metrics[name] = {"value": value, "unit": unit}
    for name in sorted(set(values) - {n for n, _ in declared}):
        problems.append(f"{name} is not declared in BENCHMARK.json")
    report = {
        "correct": bool(driver.get("correct")) and not problems,
        "attempted": max(1, int(driver.get("attempted", 0))),
        "failed": int(driver.get("failed", 0)),
        "metrics": metrics,
    }
    return report, problems


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "jigsaw-cli", "--bin", "jigsaw-sched"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(args)}")


def run_once(target_dir, workload, seed, seconds, trace, echo):
    """Run the driver once; returns (exit code, report or None)."""
    release = os.path.join(target_dir, "release")
    work = os.path.join(target_dir, "perfbench-work", f"{workload}-{os.getpid()}-{seed}")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--sched", os.path.join(release, "jigsaw-sched"),
        "--work", work,
    ]
    # A session of its own, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    try:
        driver = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    report, problems = assemble(driver, declared_metrics(trace))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if echo:
        for name, m in report["metrics"].items():
            print(f"{name:<32} {m['value']:>16.6f} {m['unit']}")
    return proc.returncode or (1 if problems else 0), report


def steadiness(target_dir, workload, runs, seconds, trace):
    values = {}
    for seed in range(1, runs + 1):
        code, report = run_once(target_dir, workload, seed, seconds, trace, echo=False)
        if code != 0 or report is None or not report["correct"]:
            sys.exit(f"perfbench: {workload} seed {seed} failed (exit {code})")
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in report["metrics"].items()))
    print(f"{'metric':<32} {'median':>14} {'iqr/median':>10}  ({runs} seeds, {workload})")
    for name, vals in values.items():
        print(f"{name:<32} {statistics.median(vals):>14.6g} {spread(vals):>10.4f}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="RUNS", help="run RUNS seeds and report spreads")
    args = p.parse_args()

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    if args.steadiness:
        steadiness(target_dir, args.workload, args.steadiness, args.seconds, args.trace)
        return 0
    code, report = run_once(target_dir, args.workload, args.seed, args.seconds, args.trace, echo=True)
    if report is None:
        print("perfbench: the driver printed no report", file=sys.stderr)
        return code or 1
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
