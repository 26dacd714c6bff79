#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and reports, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json.

Usage, from the repository root:
    python3 hpcbench/steady.py [--workloads insitu ranks build]
        [--seeds 10] [--first-seed 1] [--seconds N] [--out FILE]

Each run's info line (host-speed stamps before and after, counts) is kept
beside its result in --out (JSON lines), so a spread can be traced to runs
that landed in a slow-host episode.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "hpcbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "steady.jsonl"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "a") as out:
        for workload in args.workloads:
            values = {name: [] for name in bounds}
            stamps = []
            for seed in range(args.first_seed, args.first_seed + args.seeds):
                info, result = run_once(workload, seed, args.seconds)
                out.write(json.dumps({"info": info, "result": result}) + "\n")
                out.flush()
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']} {info.get('first_failed_check', '')}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                stamps.append((info["host_stamp_ms_before"], info["host_stamp_ms_after"]))
            print(f"\n{workload}: {args.seeds} seeds, {args.seconds} s; host stamps (ms) "
                  + " ".join(f"{a:.0f}/{b:.0f}" for a, b in stamps))
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = "ok" if spread < bounds[name] / 3 else "WIDE"
                print(f"  {name:14s} median {med:<12.6g} spread {spread:7.2%}  "
                      f"bound {bounds[name]:.0%}  {flag}   "
                      + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
