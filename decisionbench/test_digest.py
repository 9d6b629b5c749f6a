#!/usr/bin/env python3
"""The decision benchmark's own test: on the default seed, every workload's
decision digest (applied configurations, evaluation counts and best scores
at %.17g over the fixed decision prefix) must equal the committed reference
in decisionbench/reference/, and no decision may fail.

Run from the repository root:

    python3 decisionbench/test_digest.py            # check
    python3 decisionbench/test_digest.py --update   # rewrite the references

An intentional change of the decision stream regenerates the references
with --update and explains the diff where the change is described.
"""

import difflib
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
WORKLOADS = ("cold_decide", "warm_window", "mape_live")
UPDATE = "--update" in sys.argv


def run_digest(workload):
    """Runs the shortest loop (the fixed prefix) and returns the digest."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=False)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_build", "decisionbench", "out",
                        "%s-seed%d-trace0.digest" % (workload, DEFAULT_SEED))
    with open(path, encoding="utf-8") as f:
        return result, f.read()


class DigestTest(unittest.TestCase):
    def check(self, workload):
        result, digest = run_digest(workload)
        self.assertTrue(result["correct"], workload)
        self.assertEqual(result["failed"], 0, workload)
        ref_path = os.path.join(HERE, "reference", workload + ".digest")
        if UPDATE:
            with open(ref_path, "w", encoding="utf-8") as f:
                f.write(digest)
        with open(ref_path, encoding="utf-8") as f:
            reference = f.read()
        if digest != reference:
            diff = "".join(difflib.unified_diff(
                reference.splitlines(True), digest.splitlines(True),
                "reference", "this run"))
            self.fail("%s digest differs from %s:\n%s"
                      % (workload, ref_path, diff))

    def test_cold_decide(self):
        self.check("cold_decide")

    def test_warm_window(self):
        self.check("warm_window")

    def test_mape_live(self):
        self.check("mape_live")


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--update"])
