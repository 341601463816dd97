#!/usr/bin/env python3
"""Steadiness check: runs each workload N times and reports, per end-to-end
metric, the median, the quartiles and the spread (IQR / median) against the
metric's bound in BENCHMARK.json.

    python3 tsbs_bench/steady.py [--runs 10] [--first-seed 1]
        [--workloads remote_ingest,history_query,live_mixed]
        [--seconds <run_seconds>] [--json out.json] [--against earlier.json]

Run i of a workload uses seed first_seed + i. Every run must be correct
with no failed operation. Spread is checked against the bound (and against
a third of it, the margin this benchmark aims for); setup_s is only
reported, since its bound applies to the shift of its median. With
--against, the medians are also compared with those of an earlier set
(written by --json) in both directions: each set's median may be worse than
the other's by at most the bound, so the verdict does not depend on which
set ran first. The header records nproc, the build type and the git sha.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_type():
    cache = os.path.join(ROOT, ".bench_build", "tsbs_bench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def shift(better, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    worse = other - base if better == "lower" else base - other
    return worse / base


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    ap.add_argument("--against",
                    help="an earlier --json file to compare medians with")
    args = ap.parse_args()
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    print(f"nproc={os.cpu_count()} build_type={build_type()} "
          f"git_sha={git_sha()} runs={args.runs} seconds={args.seconds}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            results.append(r)
            print(f"  {workload} seed={args.first_seed + i} "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", flush=True)
        record[workload] = results
        ok_runs = all(r["correct"] and r["failed"] == 0 for r in results)
        steady &= ok_runs
        print(f"{workload}: all correct, no failed operation: {ok_runs}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name == "setup_s":
                verdict = "median shift only"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread < bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                steady = False
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:24s} median={med:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} {unit:10s} spread={spread:7.4f} "
                  f"bound={bound:<5} {verdict}")
            if earlier is None or workload not in earlier:
                continue
            old = statistics.median(
                r["metrics"][name]["value"] for r in earlier[workload])
            later_worse = shift(better[name], old, med)
            earlier_worse = shift(better[name], med, old)
            agree = max(later_worse, earlier_worse) <= bound
            steady &= agree
            print(f"  {'':24s} earlier median={old:<12.6g} "
                  f"this set worse by {later_worse:+.4f}, earlier worse by "
                  f"{earlier_worse:+.4f} "
                  f"{'agree' if agree else 'DISAGREE'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
