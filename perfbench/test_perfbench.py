#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then runs minimal-size versions of
every workload (a few days at a low attack rate, one iteration).
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["paper_window", "dense_window", "live_ingest"]
MINIMAL = ["--days", "6", "--attacks-per-day", "40", "--seconds", "0"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def perfbench(*args):
    """Runs the driver; returns (stdout lines, parsed result)."""
    out = subprocess.run([run.BINARY, *args], capture_output=True, text=True,
                         check=True)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines):
    for line in lines:
        found = re.search(r"digest=(0x[0-9a-f]+)", line)
        if found:
            return found.group(1)
    raise AssertionError("no digest in output")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_minimal_run_of_each_workload_passes_its_checks(self):
        for workload in WORKLOADS:
            for seed in ("7", "11"):
                with self.subTest(workload=workload, seed=seed):
                    lines, result = perfbench("--workload", workload,
                                              "--seed", seed, *MINIMAL)
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_offline_digest_is_identical_at_pool_1_and_pool_3(self):
        for workload in ("paper_window", "dense_window"):
            with self.subTest(workload=workload):
                one, _ = perfbench("--workload", workload, "--pool", "1", *MINIMAL)
                three, _ = perfbench("--workload", workload, "--pool", "3", *MINIMAL)
                self.assertEqual(digest(one), digest(three))

    def test_digest_depends_on_the_seed(self):
        a, _ = perfbench("--workload", "paper_window", "--seed", "7", *MINIMAL)
        b, _ = perfbench("--workload", "paper_window", "--seed", "11", *MINIMAL)
        self.assertNotEqual(digest(a), digest(b))

    def test_metric_names_and_units(self):
        bench = load_benchmark()
        for key in ("end_to_end", "per_layer"):
            for metric in bench[key]:
                self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
                self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])
        expected = {
            "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace, names in expected.items():
                with self.subTest(workload=workload, trace=trace):
                    _, result = perfbench("--workload", workload,
                                          "--trace", trace, *MINIMAL)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, names)

    def test_traced_run_attributes_run_s_and_writes_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "spans.jsonl")
                _, result = perfbench("--workload", workload, "--trace", "1",
                                      "--trace-out", path, *MINIMAL)
                m = {k: v["value"] for k, v in result["metrics"].items()}
                selves = (m["self.sim_s"] + m["self.core_s"] + m["self.svc_s"] +
                          m["self.unattributed_s"])
                self.assertAlmostEqual(selves, m["obs.traced_run_s"], places=9)
                self.assertGreater(m["obs.trace_overhead"], 0.0)
                with open(path) as f:
                    spans = [json.loads(line) for line in f]
                self.assertEqual(len(spans), m["obs.spans"])
                self.assertEqual(len({s["run"] for s in spans}), 1)
                self.assertIsNone(spans[0]["parent"])
                for span in spans[1:]:
                    self.assertLess(span["parent"], span["span"])
                    self.assertLessEqual(span["start_ns"], span["end_ns"])
                indexed = [s for s in spans if "index" in s]
                self.assertTrue(indexed)

    def test_unknown_workload_is_refused(self):
        out = subprocess.run([run.BINARY, "--workload", "nope"],
                             capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
