#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--record FILE]

Runs perfbench/run.py --trace 0 once per seed on each workload (seeds
100-109), then prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound in BENCHMARK.json. Every run must pass its
correctness checks. --record saves the simulated (exact) metrics per
workload and seed, as in perfbench/exact_metrics.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
SEEDS = range(100, 110)


def one(workload, seed):
    r = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    res = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    if r.returncode != 0 or not res["correct"]:
        sys.exit("%s seed %d failed its checks:\n%s" % (workload, seed, r.stdout))
    return {n: m["value"] for n, m in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--record")
    args = ap.parse_args()
    values = {}
    worst = 0.0
    for w in [w["name"] for w in SPEC["workloads"]]:
        runs = [one(w, seed) for seed in SEEDS]
        values[w] = runs
        print("%s (%d runs)" % (w, len(runs)))
        for m in SPEC["end_to_end"]:
            xs = [r[m["name"]] for r in runs]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = "" if m["name"] == "setup_s" or spread < limit else "  TOO WIDE"
            if m["name"] != "setup_s":
                worst = max(worst, spread / limit)
            print("  %-24s median %-14.6g spread %7.4f  bound/3 %.4f%s"
                  % (m["name"], med, spread, limit, flag))
    print("worst spread / (bound/3): %.3f" % worst)
    if args.record:
        exact = [m["name"] for m in SPEC["end_to_end"]
                 if m["unit"] in ("cycles", "%")]
        with open(args.record, "w") as f:
            json.dump({w: {str(seed): {n: r[n] for n in exact}
                           for seed, r in zip(SEEDS, runs)}
                       for w, runs in values.items()}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
