#!/usr/bin/env python3
"""Build the program from source and run one workload of the benchmark.

    python3 perfbench/run.py --workload reproduce|follow|query \
        [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json at the root.

Run from the root of a checkout. The build goes to .bench_build/perfbench
(Release, the program's sources compiled by perfbench/CMakeLists.txt);
later runs rebuild only what changed. The last line of standard output
is the JSON result of the run; the lines before it are the readable
report. A traced run also writes its spans to .bench_build/traces/.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench_main")
RUN_TIMEOUT_S = 170


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["reproduce", "follow", "query"])
    parser.add_argument("--seed", type=int, default=20130501)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(run_seconds())

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-{args.seed}-{int(time.time())}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with exit code {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
