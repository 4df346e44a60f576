#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the library under src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only rebuild what changed.

The benchmark binary prints a table of everything it measured and a JSON
line with every metric. This script passes the table through and prints,
as its last line, one JSON object with exactly the metrics BENCHMARK.json
lists: the end_to_end ones with --trace 0, the per_layer ones with
--trace 1. A per-layer metric the workload does not exercise reads 0.
It exits non-zero when the build fails or any correctness check failed.

Seeds: 1 is the default seed; 7 is held out for checking later claims.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, bench_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    binary = build(root, bench_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = measured["metrics"].get(name)
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            fail(f"metric {name} measured in {got['unit']}, declared in {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}

    correct = bool(measured["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
