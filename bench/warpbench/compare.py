#!/usr/bin/env python3
"""Reads warpbench result directories (the per-run JSON files run.py and
warpbench write). Standard library only.

    compare.py PARENT_DIR CHANGE_DIR   per (end-to-end metric, workload):
                                       improved / no change / regressed /
                                       unresolved, plus a fail_share row
    compare.py --agree A_DIR B_DIR     two sets of runs of the same code:
                                       spreads within bound, medians within
                                       bound of each other
    compare.py --check DIR             cross-run checks: every run correct,
                                       t1 and t4 assignment hashes equal at
                                       the check sweep, traced hash equal to
                                       untraced hash
    compare.py --summary DIR           median, quartile spread and run count
                                       of every metric
    compare.py --baseline DIR          the same as JSON, with the host
                                       header (baseline.json)

The verdict rule: a change improved a metric on a workload when it wins at
least nine tenths of the run pairs (ties count for neither side) and the
medians differ by more than the parent's quartile distance; it regressed
when its median is worse than the parent's by more than the bound
BENCHMARK.json fixes; the result is unresolved when either side's spread
(quartile distance over median) is wider than the bound, unless every run
of the change is better than every run of the parent.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
SCHEMA = "warpbench-result/1"


def load_spec(path=SPEC):
    with open(path) as f:
        return json.load(f)


def load_runs(directory):
    """Every result file in `directory`, parsed."""
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-t[01].json"))):
        with open(path) as f:
            run = json.load(f)
        if run.get("schema") != SCHEMA:
            raise ValueError("%s is not a warpbench result" % path)
        runs.append(run)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else float("inf")


def series(runs, trace, metric):
    """{workload: {seed: value}} over runs with the given trace flag."""
    out = {}
    for run in runs:
        if int(run["trace"]) != trace:
            continue
        got = run["metrics"].get(metric)
        if got is None or got["value"] is None:
            continue
        out.setdefault(run["workload"], {})[int(run["seed"])] = got["value"]
    return out


def worse_by(parent, change, better):
    """Share of |parent| by which `change` is worse (negative = better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else float("inf")


def verdict(parent, change, better, bound):
    """parent, change: {seed: value}. Returns (verdict, details)."""
    p_values, c_values = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_values)
    _, c_med, _ = quartiles(c_values)
    seeds = sorted(set(parent) & set(change))
    if seeds:
        pairs = [(parent[s], change[s]) for s in seeds]
    else:
        pairs = list(zip(p_values, c_values))
    wins = sum(1 for p, c in pairs if worse_by(p, c, better) < 0)
    win_share = wins / len(pairs) if pairs else 0.0
    worse = worse_by(p_med, c_med, better)
    all_better = all(worse_by(p, c, better) < 0
                     for p in p_values for c in c_values)
    details = {"parent_median": p_med, "change_median": c_med,
               "worse_by": worse, "win_share": win_share,
               "parent_spread": spread(p_values),
               "change_spread": spread(c_values)}
    if worse > bound:
        return "regressed", details
    if worse < 0 and win_share >= 0.9 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", details
    if max(details["parent_spread"], details["change_spread"]) > bound \
            and not all_better:
        return "unresolved", details
    return "no change", details


def fail_shares(runs):
    """{workload: (failed, attempted, incorrect runs)} over untraced runs."""
    out = {}
    for run in runs:
        if int(run["trace"]) != 0:
            continue
        failed, attempted, wrong = out.get(run["workload"], (0, 0, 0))
        out[run["workload"]] = (failed + int(run["failed"]),
                                attempted + int(run["attempted"]),
                                wrong + (0 if run["correct"] else 1))
    return out


def compare(parent_runs, change_runs, spec):
    print("%-18s %-18s %-11s %12s %12s %8s %6s" % (
        "workload", "metric", "verdict", "parent", "change", "worse", "wins"))
    status = 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = series(parent_runs, 0, name)
        change = series(change_runs, 0, name)
        for workload in [w["name"] for w in spec["workloads"]]:
            if workload not in parent or workload not in change:
                continue
            result, d = verdict(parent[workload], change[workload],
                                metric["better"], metric["bound"])
            if result == "regressed":
                status = 1
            print("%-18s %-18s %-11s %12.5g %12.5g %+7.2f%% %5.0f%%" % (
                workload, name, result, d["parent_median"],
                d["change_median"], 100 * d["worse_by"],
                100 * d["win_share"]))
    parent_fail, change_fail = fail_shares(parent_runs), fail_shares(
        change_runs)
    for workload in [w["name"] for w in spec["workloads"]]:
        p = parent_fail.get(workload, (0, 0, 0))
        c = change_fail.get(workload, (0, 0, 0))
        if not p[1] or not c[1]:
            continue
        p_share, c_share = p[0] / p[1], c[0] / c[1]
        worse = c_share > p_share or c[2] > p[2]
        if worse:
            status = 1
        print("%-18s %-18s %-11s %12.5g %12.5g   incorrect runs %d -> %d" % (
            workload, "fail_share", "regressed" if worse else "no change",
            p_share, c_share, p[2], c[2]))
    return status


def agree(a_runs, b_runs, spec):
    """Two sets of runs of the same code agree when, for every (end-to-end
    metric, workload), each set's spread is within the bound and the medians
    are within the bound of each other."""
    print("%-18s %-18s %-8s %12s %12s %8s %8s %8s" % (
        "workload", "metric", "agree", "median A", "median B", "delta",
        "spreadA", "spreadB"))
    status = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a_series, b_series = series(a_runs, 0, name), series(b_runs, 0, name)
        for workload in [w["name"] for w in spec["workloads"]]:
            if workload not in a_series or workload not in b_series:
                print("%-18s %-18s missing" % (workload, name))
                status = 1
                continue
            a, b = list(a_series[workload].values()), list(
                b_series[workload].values())
            a_med, b_med = quartiles(a)[1], quartiles(b)[1]
            delta = worse_by(a_med, b_med, metric["better"])
            ok = max(spread(a), spread(b)) <= bound and abs(delta) <= bound
            if not ok:
                status = 1
            print("%-18s %-18s %-8s %12.5g %12.5g %+7.2f%% %7.2f%% %7.2f%%"
                  % (workload, name, "yes" if ok else "NO", a_med, b_med,
                     100 * delta, 100 * spread(a), 100 * spread(b)))
    return status


def check(runs):
    """Cross-run invariants; returns the list of failures."""
    failures = []
    for run in runs:
        if not run["correct"]:
            bad = [c["name"] for c in run["checks"] if not c["ok"]]
            failures.append("%s seed %s trace %s: failed %s" % (
                run["workload"], run["seed"], run["trace"], ", ".join(bad)))
    by_key = {}
    for run in runs:
        by_key.setdefault((run["workload"], int(run["seed"])), []).append(run)
    # Traced and untraced runs of one seed follow one trajectory.
    for (workload, seed), group in sorted(by_key.items()):
        hashes = {run.get("hash.final") for run in group}
        if len(hashes) > 1:
            failures.append("%s seed %d: traced and untraced final hashes "
                            "differ" % (workload, seed))
    # Grid execution on four threads reproduces Iterate() exactly: same
    # corpus, K and seed give the same assignments at the check sweep.
    for (workload, seed), group in sorted(by_key.items()):
        if workload != "train-nyt-t1":
            continue
        for other in by_key.get(("train-nyt-t4", seed), []):
            mine = group[0]
            if mine.get("hash.check_sweep") != other.get("hash.check_sweep"):
                continue
            if (mine.get("hash.at_check_sweep")
                    != other.get("hash.at_check_sweep")):
                failures.append("seed %d: t1 and t4 assignments differ after "
                                "sweep %d" % (seed, mine["hash.check_sweep"]))
    return failures


def summary_rows(runs, spec):
    names = [w["name"] for w in spec["workloads"]]
    rows = []
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for metric in metrics:
            s = series(runs, trace, metric["name"])
            for workload in names:
                if workload not in s:
                    continue
                values = list(s[workload].values())
                q1, median, q3 = quartiles(values)
                rows.append({"workload": workload, "metric": metric["name"],
                             "unit": metric["unit"], "trace": trace,
                             "runs": len(values), "median": median,
                             "q1": q1, "q3": q3,
                             "spread": spread(values)})
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--agree", action="store_true")
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--summary", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    parser.add_argument("dirs", nargs="+")
    parser.add_argument("--spec", default=SPEC, help="BENCHMARK.json")
    args = parser.parse_args()
    spec = load_spec(args.spec)
    single = args.check or args.summary or args.baseline
    if len(args.dirs) != (1 if single else 2):
        parser.error("expected %d result directories" % (1 if single else 2))
    runs = [load_runs(d) for d in args.dirs]
    if args.check:
        failures = check(runs[0])
        for line in failures:
            print("FAIL " + line)
        print("%d runs checked, %d failures" % (len(runs[0]), len(failures)))
        return 1 if failures or not runs[0] else 0
    if args.summary or args.baseline:
        rows = summary_rows(runs[0], spec)
        if args.baseline:
            first = runs[0][0] if runs[0] else {}
            header = {k: v for k, v in first.items()
                      if k.startswith("host.") or k in ("seconds", "commit")}
            print(json.dumps({"header": header, "rows": rows}, indent=1))
            return 0
        for r in rows:
            print("%s %s %.6g %s  (spread %.2f%%, %d runs%s)" % (
                r["workload"], r["metric"], r["median"], r["unit"],
                100 * r["spread"], r["runs"], ", traced" if r["trace"] else ""))
        return 0
    if args.agree:
        return agree(runs[0], runs[1], spec)
    return compare(runs[0], runs[1], spec)


if __name__ == "__main__":
    sys.exit(main())
