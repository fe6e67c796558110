"""Tests of the serving benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py on smoke-sized fleets (same code paths,
small fleets and timed phases), so the first test also builds the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("cadence-50hz", "hop1-dram", "adaptive-faulty")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


class SpecTest(unittest.TestCase):
    def test_spec_lists_the_three_workloads(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, seed, trace, metric_key):
        proc, result = run_bench(workload, seed=seed, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertIsNotNone(result, proc.stdout[-3000:])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = load_spec()
        want = {m["name"]: m["unit"] for m in spec[metric_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertEqual(sorted(metric), ["unit", "value"], name)
        machine = [line for line in proc.stdout.splitlines()
                   if line.startswith("# machine ")]
        self.assertEqual(len(machine), 1, proc.stdout[-3000:])
        record = json.loads(machine[0][len("# machine "):])
        for key in ("nproc", "l3_bytes", "kernel_backend", "simd_compiled_in",
                    "obs_compiled_in", "build_type", "seed", "commit",
                    "oversubscribed"):
            self.assertIn(key, record)
        self.assertEqual(record["seed"], seed)
        self.assertEqual(record["worker_cpu_clock"], 1)
        for key in ("ref_compute_ms", "ref_memory_ns"):
            self.assertEqual(len(record[key]), 2)
            self.assertTrue(all(v > 0 for v in record[key]), record[key])
        return result

    def test_each_workload_passes_the_gate_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    self.check_run(workload, seed, 0, "end_to_end")

    def test_traced_run_prints_the_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 3, 1, "per_layer")

    def test_detection_accuracy_repeats_exactly(self):
        first = self.check_run("hop1-dram", 5, 0, "end_to_end")["metrics"]
        second = self.check_run("hop1-dram", 6, 0, "end_to_end")["metrics"]
        for name in ("detect_tp_pct", "detect_tn_pct"):
            self.assertEqual(first[name]["value"], second[name]["value"])


class GateTest(unittest.TestCase):
    def test_planted_reference_mismatch_fails_the_command(self):
        proc, result = run_bench("hop1-dram", extra=["--plant-mismatch"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertIn("differs from the lone-engine reference", proc.stderr)

    def test_tree_without_sources_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, result = run_bench("hop1-dram", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
