#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage, from the repository root:
    python3 hpcbench/run.py --workload <insitu|ranks> --seed <n> \
        --seconds <s> --trace <0|1>

The build goes to .bench_build/ (CMake + Ninja, Release, the repository's
flags). The last line of standard output is the run's JSON result; a traced
run also writes its spans to .bench_build/traces/<workload>-<seed>.json.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "hpcbench")
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message):
    print("hpcbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to hpcbench/")
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        configure = ["cmake", "-S", BENCH, "-B", BUILD, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "hpcbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["insitu", "ranks"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    cmd = [os.path.join(BUILD, "hpcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    env = dict(os.environ)
    if args.workload == "ranks":
        # Hybrid MPI+OpenMP sizing, ranks x team <= cores: one OpenMP thread
        # per serving thread. Default teams forked from both shards' batch
        # threads oversubscribe a 4-vCPU host, and the step tail then
        # measures the scheduler. The set-up keeps the full team (see
        # run_ranks in workloads.cpp).
        env["OMP_NUM_THREADS"] = "1"
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
