#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dss_mix --seed 1 --seconds 30 --trace 0

The engine is compiled from ../src together with the benchmark program
(RelWithDebInfo) into .bench_build/perfbench; the first run builds, later
runs only re-check the build. Build output goes to stderr, so the last line
of stdout is the program's JSON result. Traced runs (--trace 1) also write
their spans to .bench_build/traces/<workload>.json (the latest run wins).

The metric names and units the program prints must be exactly those that
BENCHMARK.json lists for the run (end_to_end untraced, per_layer traced);
otherwise the run fails without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: engine sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "dbs3_perfbench",
         "-j", str(os.cpu_count() or 1)],
    ]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "dbs3_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit(f"perfbench: program exited with {run.returncode}")
    check_metrics(json.loads(lines[-1])["metrics"], args.trace)
    sys.stdout.write(run.stdout)


def check_metrics(printed, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in printed.items()}
    if got != want:
        diff = sorted(set(want.items()) ^ set(got.items()))
        sys.exit("perfbench: printed metrics differ from BENCHMARK.json: "
                 + ", ".join(f"{n} [{u}]" for n, u in diff))


if __name__ == "__main__":
    main()
