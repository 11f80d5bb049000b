"""Self-checks of the benchmark; stdlib unittest, about two minutes.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Traced runs must repeat exactly for one seed (counts and output digests),
a seed no tuning used must run clean, BENCHMARK.json must name exactly the
metrics the code reports, and a directory without germinv sources must
fail without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYER_METRICS  # noqa: E402
from run import WORKLOADS  # noqa: E402

UNUSED_SEED = 987_654_321
TIMED_UNITS = ("ms",)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class TracedRunsRepeat(unittest.TestCase):
    def test_counts_and_digests_repeat_for_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [bench("--workload", workload, "--seed", "3", "--seconds", "1",
                              "--trace", "1") for _ in range(2)]
                for code, _ in runs:
                    self.assertEqual(code, 0)
                digests = [re.search(r"digest ([0-9a-f]{64})", out).group(1) for _, out in runs]
                self.assertEqual(digests[0], digests[1])
                counts = [
                    {name: m["value"] for name, m in result_of(out)["metrics"].items()
                     if m["unit"] not in TIMED_UNITS and name != "trace.overhead_frac"}
                    for _, out in runs
                ]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["localring.sb_calls"], 0)


class UnusedSeed(unittest.TestCase):
    def test_dense_sweep_on_an_unused_seed(self):
        code, out = bench("--workload", "dense-sweep", "--seed", str(UNUSED_SEED),
                          "--seconds", "2", "--trace", "0")
        self.assertEqual(code, 0)
        result = result_of(out)
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(set(result["metrics"]), {name for name, _ in END_TO_END})


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(LAYER_METRICS))

    def test_fails_without_germinv_sources(self):
        bare = HERE / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, out = bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"metrics"', out)


if __name__ == "__main__":
    unittest.main()
