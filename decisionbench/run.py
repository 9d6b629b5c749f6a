#!/usr/bin/env python3
"""Decision benchmark: what one AuTraScale control decision costs.

Usage (from the repository root):

    python3 decisionbench/run.py --workload cold_decide --seed 1 \
        --seconds 20 --trace 0

Builds the benchmark (CMake, Release) from the repository's sources into
.bench_build/decisionbench on first use, runs one workload, checks its
output and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(both lists live in BENCHMARK.json). The decision digest and, for traced
runs, the span trace are written under .bench_build/decisionbench/.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "decisionbench")
EXE = os.path.join(BUILD, "decision_bench")
WORKLOADS = ("cold_decide", "warm_window", "mape_live")
BUILD_TIMEOUT_S = 800
# A run takes --seconds plus set-up, mape_live's fixed decision prefix
# (about 30 s) and, when traced, the replays after the loop. The timeout is
# this base plus twice --seconds.
RUN_TIMEOUT_BASE_S = 110


def fail(msg):
    print("decisionbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "controller.hpp")):
        fail("no AuTraScale sources under " + os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step %s failed: %s" % (cmd[:2], exc))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step %s failed" % (cmd[:2],))


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digest", os.path.join(out_dir, stem + ".digest")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_dir, stem + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_BASE_S + 2 * args.seconds,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail("benchmark run failed: %s" % exc)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace == 1)
    metrics = result["metrics"]
    correct = bool(result["correct"])
    if set(metrics) != set(declared):
        print("metric names differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(set(declared) - set(metrics)),
                 sorted(set(metrics) - set(declared))), file=sys.stderr)
        correct = False
    for name, m in metrics.items():
        if name in declared and m["unit"] != declared[name]:
            print("unit of %s is %s, declared %s"
                  % (name, m["unit"], declared[name]), file=sys.stderr)
            correct = False
        if not math.isfinite(m["value"]):
            correct = False
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    if attempted < 1:
        fail("no decision was attempted")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
