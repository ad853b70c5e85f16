#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--seed 101]

For each workload of BENCHMARK.json it makes ten runs of set A and ten of
set B, each of BENCHMARK.json's run_seconds, through perfbench/run.py with
--trace 0.  Run i of both sets uses seed SEED+i, and the order alternates:
A then B, then B then A.  It then prints, per set, each end-to-end
metric's median and quartiles and its spread (interquartile distance over
median), and the shift of set B's median from set A's as a share of set
A's (positive when B is worse).  Exits 1 if a run failed, a spread or the
size of a shift exceeds the metric's bound, or the two sets have a
different share of failed operations.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" % (proc.returncode,
                                                        " ".join(cmd)))
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args()

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                sets[name].append(run_once(workload, args.seed + i,
                                           bench["run_seconds"]))
                print("%s set %s run %d done" % (workload, name, i + 1),
                      file=sys.stderr)
        shares = {name: sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs)
                  for name, runs in sets.items()}
        print("\n%s: %d runs per set, failed share A %.6g, B %.6g" %
              (workload, RUNS, shares["A"], shares["B"]))
        ok = ok and shares["A"] == shares["B"]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            summary = {s: summarize([r["metrics"][name]["value"]
                                     for r in runs])
                       for s, runs in sets.items()}
            a, b = summary["A"]["median"], summary["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = abs(worse) <= bound
            steady = all(x["spread"] <= bound for x in summary.values())
            ok = ok and agree and steady
            for s in ("A", "B"):
                x = summary[s]
                print("  %-16s set %s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.3f" % (name, s, x["median"], x["q1"],
                                       x["q3"], x["spread"]))
            print("  %-16s B vs A %+.3f (bound %.2f): %s, %s" %
                  (name, worse, bound, "agree" if agree else "DISAGREE",
                   "steady" if steady else "SPREAD ABOVE BOUND"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
