"""Tests of the benchmark itself: the verdict gate and its negative
controls, the determinism checksum, the result contract and the span
coverage check.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test starts the benchmark as a subprocess with a short run, so the
whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, dict | None, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None, proc.stdout
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1]), proc.stdout


class BatteryGate(unittest.TestCase):
    def rows(self):
        return [{"name": n, "verdict": "PASS", "checked": c}
                for n, c in workloads.BATTERY_COUNTS.items()]

    def test_expected_counts_pass(self):
        self.assertEqual(workloads.battery_verdicts(self.rows()), [])

    def test_zero_checks_reported_as_pass_is_a_failure(self):
        rows = self.rows()
        rows[4]["checked"] = 0
        self.assertEqual(workloads.battery_verdicts(rows), [rows[4]["name"]])

    def test_failed_missing_and_unexpected_suites(self):
        rows = self.rows()
        rows[0]["verdict"] = "FAIL"
        del rows[1]
        rows.append({"name": "extra suite", "verdict": "PASS", "checked": 1})
        self.assertEqual(workloads.battery_verdicts(rows),
                         ["pi-degree grid", "kernel lattice form", "extra suite"])


class Normalization(unittest.TestCase):
    def test_speed_factor(self):
        self.assertEqual(run.speed_factor(run.KERNEL_REF_S), 1.0)
        self.assertAlmostEqual(run.speed_factor(run.KERNEL_REF_S / 2), 2 ** run.KERNEL_EXPONENT)

    def test_each_operation_uses_the_kernel_samples_around_it(self):
        times = [0.05 * i for i in range(40)]
        samples = [1e-3] * 20 + [2e-3] * 20          # the machine halves its speed at 1 s
        report = {"kernel": [times, samples], "kernel_s": 1.5e-3,
                  "starts": [0.32, 1.6], "latencies": [0.01, 0.02],
                  "suites": {"a": ["PASS", 3, 0.4], "b": ["PASS", 4, 0.8]}}
        f = run.speed_factor
        self.assertEqual(run.op_times("glue", report, False), [0.01, 0.02])
        for got, want in zip(run.op_times("glue", report, True), [0.01 * f(1e-3), 0.02 * f(2e-3)]):
            self.assertAlmostEqual(got, want)
        # a battery's operations are its suites, run back to back from its
        # start, less the kernel samples taken during each: suite a spans
        # [0.32, 0.72) with 8 samples of 1 ms, suite b [0.72, 1.52) with 5 of
        # 1 ms and 11 of 2 ms
        own = [0.4 - 8e-3, 0.8 - 27e-3]
        for got, want in zip(run.op_times("battery", report, False), own):
            self.assertAlmostEqual(got, want)
        for got, want in zip(run.op_times("battery", report, True), [own[0] * f(1e-3), own[1] * f(2e-3)]):
            self.assertAlmostEqual(got, want)

    def test_wall_time_leaves_out_the_kernel(self):
        report = {"kernel": [[0.0, 0.1, 0.2], [1e-3] * 3], "kernel_s": 1e-3,
                  "starts": [0.5], "latencies": [0.2], "kernel_outside_s": 0.05}
        self.assertAlmostEqual(run.wall_time(report, 1.0, False), 0.95)
        self.assertAlmostEqual(run.wall_time(report, 1.0, True), 0.95 * run.speed_factor(1e-3))


class Coverage(unittest.TestCase):
    """A layer the spans stop seeing must stop the traced run."""

    def summary(self, workload: str) -> dict:
        out = {m: 0 for m, _ in tracing.METRICS}
        out.update({m: 1 for m in tracing.COVERAGE[workload]}, **{"trace.op_s": 1.0})
        return out

    def test_every_workload_covered(self):
        self.assertEqual(set(tracing.COVERAGE), set(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            self.assertEqual(tracing.coverage_problems(workload, self.summary(workload)), [])

    def test_unseen_layer_is_reported(self):
        summary = self.summary("glue")
        summary["qtorus.elem_mul_calls"] = 0
        self.assertEqual(tracing.coverage_problems("glue", summary), ["qtorus.elem_mul_calls is 0"])
        summary = self.summary("battery")
        summary["checks.suite_s.monoid-closure"] = 0.0
        self.assertEqual(len(tracing.coverage_problems("battery", summary)), 1)

    def test_time_moved_into_the_benchmark_is_reported(self):
        summary = self.summary("center")
        summary["bench.self_s"] = 0.5
        self.assertEqual(len(tracing.coverage_problems("center", summary)), 1)


class NegativeControls(unittest.TestCase):
    """A corrupted expectation must be reported as failures, never as a pass."""

    def check_corrupt(self, workload: str):
        code, _, result, _ = run_bench("--workload", workload, "--seed", "3",
                                       "--seconds", "1", "--corrupt")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        return result

    def test_glue_corrupt_qtilde(self):
        self.check_corrupt("glue")

    def test_pants_traces_wrong_twist_degree(self):
        self.check_corrupt("pants-traces")

    def test_center_wrong_pi_degree(self):
        result = self.check_corrupt("center")
        self.assertEqual(result["failed"], result["attempted"])

    def test_battery_corrupt_qtilde(self):
        self.check_corrupt("battery")


class Contract(unittest.TestCase):
    def test_result_line_determinism_and_record(self):
        first = run_bench("--workload", "center", "--seed", "5", "--seconds", "1")
        second = run_bench("--workload", "center", "--seed", "5", "--seconds", "1")
        other = run_bench("--workload", "center", "--seed", "6", "--seconds", "1")
        code, record, result, _ = first
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
        self.assertEqual(set(record["raw_metrics"]), set(want))
        self.assertEqual(record["work"], second[1]["work"])
        self.assertNotEqual(record["work"], other[1]["work"])
        self.assertEqual(record["work"]["ops"], 34 * workloads.CENTER_CELLS_PER_SURFACE)
        for key in ("cpus", "python", "platform", "loadavg_at_start"):
            self.assertIn(key, record["machine"])
        self.assertEqual(record["seed"], 5)

    def test_traced_run_accounts_for_operation_time(self):
        code, record, result, _ = run_bench("--workload", "center", "--seed", "5",
                                             "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in BENCH["per_layer"]})
        self.assertGreater(metrics["arith.kernel_lattice_calls"]["value"], 0)
        self.assertEqual(metrics["qtorus.elem_mul_calls"]["value"], 0)
        self.assertEqual(metrics["work.ops"]["value"], 34 * workloads.CENTER_CELLS_PER_SURFACE)
        self.assertTrue(record["counts_repeat"])
        spans = ROOT / record["spans_file"]
        header, cols = tracing.read_spans(str(spans))
        self.assertEqual(len(cols["name"]), header["spans"])
        self.assertEqual(header["names"][0], "trace")

    def test_refuses_to_run_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, _, result, stdout = run_bench("--workload", "glue", "--seed", "0",
                                                "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
