#!/usr/bin/env python3
"""warpbench self-test (the warpbench_quick ctest).

Runs every workload in --quick mode (tiny sizes, every check on), traced and
untraced, then pushes the result files through run.py's result line and
compare.py: the cross-run checks, an --agree of the runs against
themselves, and the spread and verdict math on fixed numbers.

    selftest.py --binary build-bench/warpbench/warpbench \
        --out build-bench/warpbench/quick
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

# Importing the sibling scripts must not leave bytecode in the source tree.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

QUICK_BUDGET_S = 20.0


def spread_cases():
    """Quartiles and spread as statistics.quantiles gives them."""
    errors = []
    if compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) != (1.5, 3.0, 4.5):
        errors.append("quartiles of 1..5")
    if compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) != 1.0:
        errors.append("spread of 1..5")
    if compare.spread([5.0, 5.0, 5.0]) != 0.0:
        errors.append("spread of a constant")
    if compare.worse_by(10.0, 11.0, "lower") != 0.1 or \
            compare.worse_by(10.0, 11.0, "higher") != -0.1:
        errors.append("worse_by direction")
    return errors


def verdict_cases():
    """The verdict rule on hand-made samples."""
    base = {s: 100.0 + s * 0.1 for s in range(10)}
    faster = {s: v * 0.8 for s, v in base.items()}
    slower = {s: v * 1.2 for s, v in base.items()}
    noisy = {s: 100.0 + (30.0 if s % 2 else -30.0) for s in range(10)}
    cases = [
        (base, faster, "lower", 0.05, "improved"),
        (base, slower, "lower", 0.05, "regressed"),
        (base, dict(base), "lower", 0.05, "no change"),
        (base, faster, "higher", 0.05, "regressed"),
        (noisy, dict(noisy), "lower", 0.05, "unresolved"),
    ]
    errors = []
    for parent, change, better, bound, want in cases:
        got, _ = compare.verdict(parent, change, better, bound)
        if got != want:
            errors.append("verdict %s, want %s" % (got, want))
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    shutil.rmtree(args.out, ignore_errors=True)
    spec = compare.load_spec()

    errors = []
    start = time.monotonic()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            command = [args.binary, "--quick", "--workload", workload,
                       "--seed", "1", "--trace", str(trace), "--out",
                       args.out]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                errors.append("%s trace %d exited %d: %s" % (
                    workload, trace, done.returncode, done.stderr[-500:]))
    elapsed = time.monotonic() - start
    if elapsed > QUICK_BUDGET_S:
        errors.append("quick runs took %.1f s (budget %.0f s)"
                      % (elapsed, QUICK_BUDGET_S))

    runs = compare.load_runs(args.out)
    if len(runs) != 2 * len(spec["workloads"]):
        errors.append("expected %d result files, found %d"
                      % (2 * len(spec["workloads"]), len(runs)))
    for result in runs:
        try:
            run.result_line(result, spec, int(result["trace"]))
        except ValueError as e:
            errors.append("%s trace %s: %s" % (result["workload"],
                                               result["trace"], e))
    errors += compare.check(runs)
    # Same runs on both sides must agree on every pair that carries a value.
    agree = subprocess.run(
        [sys.executable, compare.__file__, "--agree", args.out, args.out],
        capture_output=True, text=True)
    if "missing" in agree.stdout:
        errors.append("compare.py --agree found missing metrics:\n"
                      + agree.stdout)
    errors += spread_cases() + verdict_cases()

    for line in errors:
        print("FAIL " + line)
    print("%d quick runs in %.1f s, %d errors" % (len(runs), elapsed,
                                                  len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
