#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The script builds the benchmark executable
(perfbench/riqbench.exe) and riq-sim with dune, runs the workload in a child
process, checks its outputs against the committed expected digests and
prints one line per metric, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. Each workload's work is fixed; its
measured length is about run_seconds of BENCHMARK.json on a 2-core host,
and --seconds, which the benchmark's command line carries, is recorded
but does not resize it. The exit code is 0 only when every
output was correct; 2 means the benchmark could not run at all (for
example, no repository sources next to it).
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")  # work dirs, results, history
CHILD_TIMEOUT_S = 170
HISTORY_RUNS = 10


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no repository sources at %s (missing %s)" % (ROOT, need))
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    targets = ["./perfbench/riqbench.exe", "./bin/riq_sim.exe"]
    p = subprocess.run(["dune", "build", "--root", ROOT] + targets, cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        die("build failed:\n" + p.stdout[-4000:])
    return (os.path.join("_build", "default", "perfbench", "riqbench.exe"),
            os.path.join("_build", "default", "bin", "riq_sim.exe"))


def run_child(cmd):
    """Run cmd in its own session; return (exit status, rusage) where the
    rusage covers the child and every descendant it waited for."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    deadline = time.time() + CHILD_TIMEOUT_S
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            break
        if time.time() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, ru = os.wait4(proc.pid, 0)
            die("workload exceeded %d s and was killed" % CHILD_TIMEOUT_S, 1)
        time.sleep(0.05)
    # Anything left in the session (a daemon the child failed to stop).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, ru


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Run-to-run spread: (q3 - q1) / median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def tree_key():
    """Digest of the sources the benchmark builds (documentation aside),
    so that the run history compares runs of the same code only."""
    paths = [os.path.join(ROOT, "dune-project")]
    for top in ("lib", "bin", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, name) for name in files if not name.endswith(".md")]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def record_history(workload, metrics):
    """Append this untraced run; return each metric's spread over the
    last HISTORY_RUNS untraced runs of the workload on this same source
    tree in this checkout."""
    key = tree_key()
    path = os.path.join(STATE, "history.jsonl")
    with open(path, "a") as f:
        f.write(json.dumps({"tree": key, "workload": workload,
                            "metrics": {k: v["value"] for k, v in metrics.items()}}) + "\n")
    runs = []
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r.get("tree") == key and r["workload"] == workload:
                runs.append(r["metrics"])
    runs = runs[-HISTORY_RUNS:]
    return key, len(runs), {k: spread([r[k] for r in runs]) if len(runs) > 1 else None
                            for k in metrics}


def self_test():
    exe, riq_sim = build()
    work = os.path.join(STATE, "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        code, _ = run_child([exe, "selftest", "--riq-sim", riq_sim, "--work", work])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="recorded; the work per run is fixed")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        die("BENCHMARK.json not found at " + ROOT)
    if args.self_test:
        self_test()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    host = {"nproc": os.cpu_count(), "loadavg_at_start": list(os.getloadavg())}

    exe, riq_sim = build()
    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(work, "result.json")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--riq-sim", riq_sim, "--work", work, "--out", out]
    if args.trace:
        cmd += ["--trace-out", os.path.join(STATE, "spans-%s.json" % tag)]
    try:
        code, ru = run_child(cmd)
        if code != 0 or not os.path.exists(out):
            die("workload %s exited with status %d" % (args.workload, code), 1)
        with open(out) as f:
            res = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(res["metrics"])
    # ru_maxrss is in KiB on Linux: the largest resident set among this
    # script, the workload process and every process it started.
    peak_kib = max(ru.ru_maxrss, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("workload did not report " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted}

    info = res["info"]
    digest_ok = info.get("digest", "") == info.get("expected_digest", "")
    correct = res["failed"] == 0 and res["attempted"] >= 1 and digest_ok
    host["ocaml_version"] = res["ocaml_version"]

    print("workload %s  seed %d  trace %d  (--seconds %s; run_seconds %d)" % (
        args.workload, args.seed, args.trace, args.seconds, spec["run_seconds"]))
    print("host     " + json.dumps(host))
    for name, m in metrics.items():
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print("  %-28s %16.6f %s" % ("failed_frac", res["failed"] / max(1, res["attempted"]), "ratio"))
    for k, v in info.items():
        print("  info %-23s %s" % (k, json.dumps(v)))
    if args.trace == 0:
        key, n, spreads = record_history(args.workload, metrics)
        host["run_to_run_spread"] = {"tree": key, "runs": n, "iqr_over_median": spreads}
        print("spread   over the last %d untraced runs of this tree (%s) here: %s" % (
            n, key, ", ".join("%s %s" % (k, "n/a" if s is None else "%.3f" % s) for k, s in spreads.items())))
    for e in res["errors"]:
        print("  WRONG " + e)
    if not digest_ok:
        print("  WRONG run digest %s, expected %s" % (info.get("digest"), info.get("expected_digest")))
    with open(os.path.join(STATE, "result-%s.json" % tag), "w") as f:
        json.dump({"host": host, "result": res, "metrics": metrics, "correct": correct}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
