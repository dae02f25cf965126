#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size (--smoke).

    python3 repobench/test_bench.py

Fails when a run exits non-zero, when an output check fails, when the
metric names printed differ from those BENCHMARK.json declares, or when the
benchmark does not refuse to run without the dcnas sources. Run it from the
repository root; it builds the benchmark first, like run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "repobench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        bench = load_bench()
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"]
                    for m in bench["per_layer" if trace else "end_to_end"]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)

    def test_every_workload_untraced(self):
        for w in load_bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)

    def test_ledger(self):
        self.check_run("serve_wire", 1)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "repobench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run("nas_sweep", 0, root=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
