#!/usr/bin/env python3
"""Builds the TSBS DevOps benchmark from source and runs one workload.

    python3 tsbs_bench/run.py --workload <remote_ingest|history_query|live_mixed>
                              --seed <n> --seconds <s> --trace <0|1>

The library is compiled from ../src into .bench_build/tsbs_bench (Release);
DB workspaces and span files go to .bench_build/work. Build output goes to
stderr, so the last line of stdout is the benchmark's result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tsbs_bench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "tsbs_bench")
# A run measures --seconds (at most 60) plus set-up and checks.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:] + ["--workdir", WORK]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
