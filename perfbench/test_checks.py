#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and metric lists.

    python3 perfbench/test_checks.py

Run from the repository root; builds like run.py. For every workload it
runs one short clean run, which must pass every check, and one run with
--corrupt-oracle, which corrupts the benchmark's own copy of the expected
outputs (never the program) and must trip every check of that workload.
It also checks that the metrics printed match BENCHMARK.json by name and
unit.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# The output checks each workload makes, by the name it reports them under.
CHECKS = {
    "analysis_wan": {"physics_sum"},
    "readv_lan": {"readv_fragment"},
    "small_ops_lan": {"get_bytes", "pread_bytes", "stat_size", "list_names"},
    "bulk_wan": {"multistream_op_crc", "scan_op_crc"},
}
# Long enough for the small-op mix to draw every op kind.
SECONDS = "1"


def perfbench(binary, workload, trace, *extra):
    """Runs one workload; returns its result line and its check failures."""
    command = [binary, "--workload", workload, "--seed", "7",
               "--seconds", SECONDS, "--trace", trace] + list(extra)
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S, check=True)
    lines = out.stdout.splitlines()
    prefix = "check failures: "
    checks = next(json.loads(line[len(prefix):])
                  for line in lines if line.startswith(prefix))
    return json.loads(lines[-1]), checks


class ChecksFire(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_dir = os.path.abspath(
            os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        cls.binary = run.build(build_dir)
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_clean_runs_pass_and_corrupt_oracles_trip_every_check(self):
        for workload, expected in CHECKS.items():
            with self.subTest(workload=workload):
                result, checks = perfbench(self.binary, workload, "0")
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(checks, {})

                result, checks = perfbench(self.binary, workload, "0",
                                           "--corrupt-oracle")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(set(checks), expected)

    def test_metrics_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result, _ = perfbench(self.binary, "small_ops_lan", trace)
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
