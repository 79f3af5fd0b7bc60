#!/usr/bin/env python3
"""Repeat benchmark runs and summarise them.

    python3 perfbench/compare.py spread [--runs 10] [--workloads W,...] [--tree DIR]
    python3 perfbench/compare.py pair PARENT_DIR CHANGE_DIR [--pairs 10] [--workloads W,...]

spread: runs every workload --runs times on one tree, seeds 1..N, and
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median).

pair: takes two checked-out trees (the parent commit and the change,
each built by its own perfbench/run.py) and runs --pairs pairs per
workload, one seed per pair, alternating which tree runs first. For each
workload and metric it prints each side's median and quartiles, the share
of pairs the change won (ties count for neither side), the parent's own
spread, and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's own spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's spread exceeds the bound, and not every run of
              the change beats every run of the parent
  same        none of the above

Results also go to .perfbench/compare-<time>.json in the current tree.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import quartiles, spread  # noqa: E402


def run_one(tree, workload, seed, trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("run failed in %s (%s seed %d):\n%s" % (tree, workload, seed, p.stderr[-2000:]))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("wrong outputs in %s (%s seed %d):\n%s" % (tree, workload, seed, p.stdout[-3000:]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def workloads_arg(spec, arg):
    names = [w["name"] for w in spec["workloads"]]
    return arg.split(",") if arg else names


def save(report):
    d = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "compare-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("saved " + path)


def cmd_spread(args):
    tree = os.path.abspath(args.tree)
    spec = load_spec(tree)
    report = {}
    for w in workloads_arg(spec, args.workloads):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_one(tree, w, seed))
            print("  %s seed %d done" % (w, seed), file=sys.stderr)
        report[w] = runs
        print("%s (%d runs)" % (w, len(runs)))
        print("  %-18s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            xs = [r[m["name"]] for r in runs]
            q1, med, q3 = quartiles(xs)
            s = spread(xs)
            flag = "" if s <= m["bound"] / 3 else ("  > bound/3" if s <= m["bound"] else "  > BOUND")
            print("  %-18s %12.5g %12.5g %12.5g %8.3f %6.2f%s" % (m["name"], q1, med, q3, s, m["bound"], flag))
    save({"mode": "spread", "tree": tree, "runs": report})


def cmd_pair(args):
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    spec = load_spec(change)
    report = {}
    for w in workloads_arg(spec, args.workloads):
        side = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for name, tree in order:
                side[name].append(run_one(tree, w, i + 1))
            print("  %s pair %d done" % (w, i + 1), file=sys.stderr)
        report[w] = side
        print("%s (%d pairs)" % (w, args.pairs))
        print("  %-18s %28s %28s %6s %8s %6s  %s" % (
            "metric", "parent q1/med/q3", "change q1/med/q3", "won", "p.spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            n, lower = m["name"], m["better"] == "lower"
            p = [r[n] for r in side["parent"]]
            c = [r[n] for r in side["change"]]
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            won = sum(1 for a, b in zip(c, p) if better(a, b)) / len(p)
            pq, cq = quartiles(p), quartiles(c)
            pspread = spread(p)
            diff = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            worse_by = diff if lower else -diff
            if won >= 0.9 and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
                verdict = "gain"
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif pspread > m["bound"] and not all(better(a, b) for a in c for b in p):
                verdict = "unresolved"
            else:
                verdict = "same"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("  %-18s %28s %28s %6.2f %8.3f %6.2f  %s (%+.1f%%)" % (
                n, fmt(pq), fmt(cq), won, pspread, m["bound"], verdict, 100 * diff))
    save({"mode": "pair", "parent": parent, "change": change, "runs": report})


def main():
    ap = argparse.ArgumentParser(description="Repeat benchmark runs and summarise them.")
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--workloads")
    s.add_argument("--tree", default=os.path.dirname(HERE))
    p = sub.add_parser("pair")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads")
    args = ap.parse_args()
    if args.mode == "pair" and args.pairs < 10:
        ap.error("pair needs at least 10 pairs")
    (cmd_spread if args.mode == "spread" else cmd_pair)(args)


if __name__ == "__main__":
    main()
