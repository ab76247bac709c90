#!/usr/bin/env python3
"""Tests of the repository benchmark at the tiny test scale.

    python3 rcbench/test_rcbench.py

Run from anywhere; builds the rcbench binary through run.py on first use.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
BINARY = os.path.join(ROOT, ".bench_build", "rcbench")
WORKLOADS = ["sql_sweep", "olxp_serve", "trace_rw_mix"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Metrics printed on metric lines only for the workload they apply to.
WORKLOAD_METRICS = {
    "sql_sweep": {"fig18_anchor_err"},
    "olxp_serve": {"sim_oltp_p99_ns", "sim_backfill_seg_per_us"},
    "trace_rw_mix": set(),
}
WORKLOAD_LAYER_METRICS = {
    "sql_sweep": {"workload.tables_s", "workload.compile_s",
                  "workload.compile_ns_per_op", "imdb.place_s"},
    "olxp_serve": {"workload.tables_s", "imdb.place_s",
                   "olxp.scheduler_build_s"},
    "trace_rw_mix": {"trace.write_s", "trace.scan_s"},
}


def run(workload, seed=1, trace=0, extra=(), env=None):
    """Run one tiny benchmark; return (digest, metric lines, result)."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny"]
        + list(extra),
        cwd=ROOT, capture_output=True, text=True, env=env, check=True)
    lines = out.stdout.strip().splitlines()
    digest = next(l.split()[2] for l in lines if l.startswith("digest "))
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return digest, metrics, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.results = {(w, t): run(w, trace=t)
                       for w in WORKLOADS for t in (0, 1)}

    def test_result_line_matches_benchmark_json(self):
        for (w, t), (_, _, res) in self.results.items():
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            expect = self.spec["per_layer" if t else "end_to_end"]
            self.assertEqual(
                [(m["name"], m["unit"]) for m in expect],
                [(k, v["unit"]) for k, v in res["metrics"].items()],
                (w, t))
            self.assertTrue(res["correct"], (w, t))
            self.assertGreaterEqual(res["attempted"], 1)
            self.assertEqual(res["failed"], 0, (w, t))

    def test_metric_names_and_presence(self):
        for (w, t), (_, lines, res) in self.results.items():
            for name in list(lines) + list(res["metrics"]):
                self.assertRegex(name, NAME)
            self.assertLessEqual(WORKLOAD_METRICS[w], set(lines), w)
            if t:
                self.assertLessEqual(WORKLOAD_LAYER_METRICS[w],
                                     set(lines), w)
                self.assertIn("tracing.overhead_s", lines)
                self.assertIn("tracing.overhead_frac", lines)
        for (w, t), (_, _, res) in self.results.items():
            for name, m in res["metrics"].items():
                if not t and name != "setup_s":
                    self.assertGreater(m["value"], 0, (w, name))

    def test_digest_repeats_and_traced_run_agrees(self):
        for w in WORKLOADS:
            again, _, _ = run(w)
            self.assertEqual(self.results[(w, 0)][0], again, w)
            self.assertEqual(self.results[(w, 1)][0], again, w)

    def test_other_seed_changes_digest(self):
        for w in WORKLOADS:
            other, _, res = run(w, seed=2)
            self.assertNotEqual(self.results[(w, 0)][0], other, w)
            self.assertTrue(res["correct"], w)

    def test_failed_check_counts_as_failed_operation(self):
        for w in WORKLOADS:
            _, _, res = run(w, extra=["--inject-failure"])
            self.assertFalse(res["correct"], w)
            self.assertGreaterEqual(res["failed"], 1, w)
            self.assertLess(res["failed"], res["attempted"], w)

    def test_library_environment_is_pinned(self):
        env = dict(os.environ, RCNVM_SEED="7", RCNVM_TUPLES="64",
                   RCNVM_THREADS="4")
        # run.py removes the variables: same result as without them.
        digest, _, _ = run("trace_rw_mix", env=env)
        self.assertEqual(self.results[("trace_rw_mix", 0)][0], digest)
        # The binary itself refuses to run with any of them set.
        out = subprocess.run(
            [BINARY, "--workload", "trace_rw_mix", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, env=env)
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")
        self.assertIn("RCNVM_SEED", out.stderr)


if __name__ == "__main__":
    unittest.main()
