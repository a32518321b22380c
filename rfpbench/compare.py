#!/usr/bin/env python3
"""Compare two commits, or measure one commit's run-to-run spread, with rfpbench.

Pairs (a claimed change against its parent):

    python3 rfpbench/compare.py --parent <checkout> --change <checkout> [--pairs 10]

runs each workload --pairs times on both checkouts with seeds 1..pairs,
alternating which side runs first, and prints one row per workload and
end-to-end metric: each side's median and quartiles, how many pairs the
change won, and the verdict:

    invalid      the change failed more operations than the parent on this
                 workload, so none of its times count
    regression   the change's median is worse than the parent's by more than
                 the metric's bound in BENCHMARK.json
    gain         the change won at least 9/10 of the pairs and the medians
                 differ by more than the parent's interquartile range
    unresolved   the spread of either side is wider than the bound, and not
                 every change run beats every parent run
    same         none of the above

The exit status is 1 if any row is invalid or a regression.

Spread (one commit, the benchmark's own steadiness):

    python3 rfpbench/compare.py --spread <checkout> [--runs 10]

runs each workload --runs times with different seeds and prints, per metric,
(Q3 - Q1) / median next to the metric's bound; the exit status is 1 if any
spread is wider than its bound.

A checkout is a directory holding BENCHMARK.json and the project sources;
each run is `python3 rfpbench/run.py ...` inside it, so each side builds its
own rfpbench. Every run's metadata names the source directory its binary was
built from, and a run whose binary comes from another checkout is an error.
Only the Python standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_output(checkout, stdout):
    """The run's result and metadata from its standard output. Raises if
    the binary was not built from this checkout's sources."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    want = os.path.realpath(os.path.join(checkout, "rfpbench"))
    got = os.path.realpath(meta.get("source_dir", "unknown"))
    if got != want:
        raise RuntimeError("%s: the binary was built from %s, not %s" %
                           (checkout, got, want))
    return result, meta


def run_once(checkout, bench, workload, seed, trace=False):
    """One run; returns (result, meta) from its output."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("%s: %s seed %d exited %d" %
                           (checkout, workload, seed, proc.returncode))
    result, meta = parse_output(checkout, proc.stdout)
    if not result["correct"] or result["failed"]:
        print("warning: %s %s seed %d: %d of %d operations failed" %
              (checkout, workload, seed, result["failed"], result["attempted"]),
              file=sys.stderr)
    return result, meta


def failures(result):
    """Failed operations of one run; a run that is not correct counts at
    least one."""
    return max(result["failed"], 0 if result["correct"] else 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def better(metric, a, b):
    """True when a is better than b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def worse_by(metric, change, parent):
    """How much worse the change's median is, as a share of the parent's."""
    delta = (change - parent) / parent
    return delta if metric["better"] == "lower" else -delta


def verdict(metric, parent_vals, change_vals, parent_failed=0, change_failed=0):
    """The verdict on one metric of one workload, and the change's wins.
    parent_failed and change_failed are each side's failed operations over
    all its runs of the workload."""
    wins = sum(better(metric, c, p) for p, c in zip(parent_vals, change_vals))
    if change_failed > parent_failed:
        return "invalid", wins
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent_vals)
    _, cm, _ = quartiles(change_vals)
    if worse_by(metric, cm, pm) > bound:
        return "regression", wins
    if wins >= 0.9 * len(parent_vals) and abs(cm - pm) > p3 - p1:
        return "gain", wins
    all_better = all(better(metric, c, p)
                     for p in parent_vals for c in change_vals)
    if max(spread(parent_vals), spread(change_vals)) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def fmt(q):
    return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])


def compare(args):
    bench = load_benchmark(args.change)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    print("| workload | metric | parent median [Q1, Q3] | change median "
          "[Q1, Q3] | change wins | failed ops parent/change | verdict |")
    print("|---|---|---|---|---|---|---|")
    bad = 0
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = i + 1
            sides = [("parent", args.parent), ("change", args.change)]
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                runs[side].append(run_once(checkout, bench, w, seed))
        binaries = {side: {meta["binary"] for _, meta in rs}
                    for side, rs in runs.items()}
        if binaries["parent"] & binaries["change"]:
            raise RuntimeError("parent and change ran the same binary: %s" %
                               sorted(binaries["parent"] & binaries["change"]))
        failed = {side: sum(failures(r) for r, _ in rs)
                  for side, rs in runs.items()}
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r, _ in runs["parent"]]
            cv = [r["metrics"][m["name"]]["value"] for r, _ in runs["change"]]
            v, wins = verdict(m, pv, cv, failed["parent"], failed["change"])
            bad += v in ("invalid", "regression")
            print("| %s | %s (%s) | %s | %s | %d/%d | %d/%d | %s |" %
                  (w, m["name"], m["unit"], fmt(quartiles(pv)),
                   fmt(quartiles(cv)), wins, len(pv), failed["parent"],
                   failed["change"], v))
    return 1 if bad else 0


def measure_spread(args):
    bench = load_benchmark(args.spread)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    print("| workload | metric | median [Q1, Q3] | spread | bound |")
    print("|---|---|---|---|---|")
    over = 0
    for w in workloads:
        runs = [run_once(args.spread, bench, w, seed)[0]["metrics"]
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        for m in bench["end_to_end"]:
            vals = [r[m["name"]]["value"] for r in runs]
            s = spread(vals)
            over += s > m["bound"]
            print("| %s | %s (%s) | %s | %.4f | %.2f |" %
                  (w, m["name"], m["unit"], fmt(quartiles(vals)), s,
                   m["bound"]))
            if args.raw:
                print("  raw %s %s %s" % (w, m["name"], json.dumps(vals)))
    return 1 if over else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--spread", help="checkout whose spread to measure")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--raw", action="store_true",
                   help="also print every run's value")
    p.add_argument("--workload", dest="workloads", action="append",
                   help="restrict to this workload (repeatable)")
    args = p.parse_args()
    if args.spread:
        return measure_spread(args)
    if not (args.parent and args.change):
        p.error("give --parent and --change, or --spread")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
