#!/usr/bin/env python3
"""Layer-cost benchmark for PeerTrack: build, self-test, run, check.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and the benchmark (Release) under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later runs only re-check the build. Every run
then runs the helper self-tests and the benchmark, checks that the result
names exactly the metrics BENCHMARK.json lists for the chosen --trace mode,
and prints that result as the last line of standard output.

Workloads, metrics and bounds are defined in BENCHMARK.json; the C++ benchmark
is perfbench/layer_bench.cpp. Build and benchmark output other than the
result goes to standard error or to '#' lines. Exits non-zero, printing no
result, when the sources are missing, the build fails, a self-test fails or
the result is malformed.
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
RUN_LIMIT_S = 175.0
BUILD_LIMIT_S = 850.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append([cmake, "--build", out, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last line is not JSON: {line[:200]!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result must have exactly correct, attempted, failed and metrics")
    if not isinstance(result["correct"], bool):
        fail("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} must be a whole number")
    if result["attempted"] < 1:
        fail("attempted must be at least 1")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in got.items():
        if metric.get("unit") != wanted[name]:
            fail(f"{name}: unit {metric.get('unit')!r}, BENCHMARK.json says {wanted[name]!r}")
        if not isinstance(metric.get("value"), (int, float)):
            fail(f"{name}: value is not a number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    start = time.monotonic()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    out = build_dir()
    build(out)

    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("helper self-tests failed")

    command = [os.path.join(out, "layer_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--git-rev", git_rev()]
    remaining = max(10.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    check_result(lines[-1], spec, args.trace == "1")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
