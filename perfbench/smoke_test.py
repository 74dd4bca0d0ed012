"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout (stdlib only, a minute or less):

    python3 perfbench/smoke_test.py

It checks that every metric BENCHMARK.json names is printed with its unit
by both kinds of run on every workload, that the correctness gate trips
on a wrong expected digest, and that the benchmark refuses to run where
there is no library to build from.
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
WORKLOADS = ("suite", "windows", "pointwise")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# The per-layer metrics the benchmark promises on every workload.
PER_LAYER = {
    "exact.poly_new", "exact.poly_add", "exact.poly_mul", "exact.gamma_of",
    "exact.monomial_mul", "exact.to_float", "exact.render", "exact.self_pct",
    "exact.max_terms", "exact.max_coeff_bits",
    "special.calls", "special.self_pct", "special.outcome.finite",
    "special.outcome.zero", "special.outcome.pole",
    "fracops.frac_sum_diff.calls", "fracops.delta_n.calls",
    "fracops.nabla_poch_diff.calls", "fracops.mac_computed", "fracops.self_pct",
    "identities.reports", "identities.compare_pct", "identities.self_pct",
    "cli.self_pct", "cli.bytes_out", "trace.spans", "trace.overhead_pct",
} | {
    f"identities.status.{s}"
    for s in ("exact", "float_only", "mismatch", "domain_excluded", "pole")
} | {
    f"identities.{name}.pct"
    for name in (
        "bridge", "index-law", "binom-falling", "binom-poch", "alt-sum",
        "power-rule", "gamma-sum", "nabla-zero", "mr-ae", "leibniz", "form1",
        "saalschutz",
    )
}
END_TO_END = {"setup_s", "throughput", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, list]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.05", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout.strip().splitlines()


class BenchmarkSmokeTest(unittest.TestCase):
    def setUp(self):
        self.declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check_metrics(self, lines: list, names: set, declared: list) -> dict:
        result = json.loads(lines[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertEqual(set(result["metrics"]), names)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(units), names)
        for name, entry in result["metrics"].items():
            self.assertEqual(entry["unit"], units[name], name)
            self.assertIsInstance(entry["value"], (int, float), name)
        return result

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, names, declared in (
                ("0", END_TO_END, self.declared["end_to_end"]),
                ("1", PER_LAYER, self.declared["per_layer"]),
            ):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = run("--workload", workload, "--seed", "1729",
                                      "--trace", trace, "--tiny")
                    self.assertEqual(code, 0, lines)
                    result = self.check_metrics(lines, names, declared)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertTrue(any("failed_share" in line for line in lines))

    def test_gate_trips_on_a_wrong_digest(self):
        code, lines = run("--workload", "suite", "--seed", "1729", "--trace", "0",
                          "--tiny", "--expect-digest", "0" * 64)
        self.assertEqual(code, 1, lines)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_without_the_library(self):
        bare = HERE / "_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, lines = run("--workload", "suite", "--seed", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
