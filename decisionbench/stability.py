#!/usr/bin/env python3
"""Run-to-run spread of the decision benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 decisionbench/stability.py --seeds 1-10

Runs every workload of BENCHMARK.json once per seed for its run_seconds
(untraced, sequentially), then prints, as a Markdown table,
each end-to-end metric's median and quartiles (statistics.quantiles,
n=4) and its spread, the interquartile distance as a share of the median,
next to the metric's bound from BENCHMARK.json. A spread at or above a
third of the bound is flagged. Each run's metrics go to stderr as they
arrive.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if proc.returncode != 0:
        sys.exit("run failed (%s, seed %d): %s" % (workload, seed, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect run (%s, seed %d)" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    print("| workload | metric | median | q1 | q3 | spread | bound | "
          "spread < bound/3 |")
    print("|---|---|---|---|---|---|---|---|", flush=True)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, spec["run_seconds"]))
            print("%s seed %d: %s" % (workload, seed, json.dumps(runs[-1])),
                  file=sys.stderr, flush=True)
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f | %s |"
                  % (workload, m["name"], med, q1, q3, spread, m["bound"],
                     "yes" if spread < m["bound"] / 3 else "NO"), flush=True)


if __name__ == "__main__":
    main()
