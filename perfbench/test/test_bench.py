#!/usr/bin/env python3
"""Test of the repository benchmark, in its short mode.

    python3 perfbench/test/test_bench.py

For every workload in BENCHMARK.json it runs perfbench/run.py --short
twice untraced and twice traced, and checks that:

- the result line names every end-to-end (untraced) or per-layer
  (traced) metric of BENCHMARK.json with its unit, and nothing else;
- every correctness check passed;
- the exact (simulated) metrics repeat bit for bit across the two runs;
- the spans nest inside their parents and every self time is >= 0.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
EXACT_UNITS = {"cycles", "count", "words", "%"}
SEED = 7


def exact(name, unit):
    """Simulated metrics: deterministic for a given seed."""
    return unit in EXACT_UNITS and not name.startswith("gc.")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
           "--trace", str(trace), "--short"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    last = r.stdout.rstrip("\n").split("\n")[-1]
    return r.returncode, json.loads(last)


class ShortRuns(unittest.TestCase):

    def check_metrics(self, workload, trace, key):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        results = []
        # Each traced run rewrites the span file; read it before the next.
        spans = os.path.join(ROOT, "perfbench", "_out",
                             "spans-%s-%d.json" % (workload, SEED))
        for _ in range(2):
            if os.path.exists(spans):
                os.remove(spans)
            code, res = run(workload, trace)
            self.assertEqual(code, 0, res)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            self.assertEqual(got, declared)
            if trace:
                with open(spans) as f:
                    self.check_spans(json.load(f), workload)
            results.append(res["metrics"])
        for name, unit in declared.items():
            if exact(name, unit):
                self.assertEqual(results[0][name]["value"],
                                 results[1][name]["value"],
                                 "%s %s is not exact" % (workload, name))

    def check_spans(self, doc, workload):
        spans = {s["id"]: s for s in doc["spans"]}
        self.assertTrue(spans)
        names = {s["name"] for s in spans.values()}
        for required in ("setup.program", "setup.lint", "setup.create", "run",
                         "drain", "ref.base_interp", "ref.base_blocks",
                         "probe.ckpt_capture", "probe.ckpt_restore",
                         "obs.report_json", "obs.export"):
            self.assertIn(required, names)
        for s in spans.values():
            self.assertEqual(s["workload"], workload)
            self.assertLessEqual(s["start_s"], s["end_s"])
            self.assertGreaterEqual(s["self_s"], 0.0, s)
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertLessEqual(p["start_s"], s["start_s"], s)
                self.assertLessEqual(s["end_s"], p["end_s"], s)


def add_tests():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            def test(self, name=name, trace=trace, key=key):
                self.check_metrics(name, trace, key)
            setattr(ShortRuns, "test_%s_trace%d" % (name.replace("-", "_"), trace),
                    test)


add_tests()

if __name__ == "__main__":
    unittest.main()
