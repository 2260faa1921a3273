#!/usr/bin/env python3
"""Builds warpbench from source and runs one workload in its own process.

    python3 bench/warpbench/run.py --workload train-nyt-t4 --seed 1 \
        --seconds 10 --trace 0

Configures and builds bench/warpbench (CMake, Release) into
build-bench/warpbench under the checkout root, runs the workload, and
prints as the last line of stdout one JSON object with the keys correct,
attempted, failed and metrics. The metrics are the ones BENCHMARK.json
lists: end_to_end with --trace 0, per_layer with --trace 1. The full result
(host header, every metric, every check) stays in the --out directory.
Build output and the benchmark's own report go to stderr.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench", "warpbench")
BINARY = os.path.join(BUILD, "warpbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A run must end within 180 s; leave room to build the result line.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the warpbench target (a no-op when up to
    date). Needs the library sources, which live outside bench/warpbench."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources in %s; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "warpbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def result_line(result, spec, trace):
    """The result line for one result file, or raises ValueError when a
    metric BENCHMARK.json lists is missing, non-finite or in another unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["value"] is None:
            raise ValueError("metric %s missing" % metric["name"])
        if not math.isfinite(got["value"]):
            raise ValueError("metric %s is not finite" % metric["name"])
        if got["unit"] != metric["unit"]:
            raise ValueError("metric %s in %s, BENCHMARK.json says %s"
                             % (metric["name"], got["unit"], metric["unit"]))
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=os.path.join(BUILD, "results"),
                        help="directory for result files and traces")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", args.out, "--commit", source_commit()]
    try:
        code = subprocess.run(command, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload ran past %d s" % RUN_TIMEOUT_S)
    if code != 0:
        fail("warpbench exited with %d" % code)
    path = os.path.join(args.out, "%s-s%d-t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path) as f:
        result = json.load(f)
    try:
        line = result_line(result, spec, args.trace)
    except ValueError as e:
        fail(str(e))
    print(json.dumps(line))


if __name__ == "__main__":
    main()
