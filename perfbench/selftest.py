"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py      (from the repository root)

Runs short real CLI calls, then confirms that the checks accept their
output, still accept it under another chain seed, and reject deliberately
wrong results: a sign-flipped delta_mpe, a plug-in d computed with doubled
variance, and a decision the HPD does not imply. Data come from the
``large`` scenario, where a sign flip or a wrong standardizer moves the
effect size far more than the tolerance allows.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import sys
import unittest
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixtt.cli import main  # noqa: E402

from checks import CheckFailed, check_analyze, check_sensitivity, check_study  # noqa: E402
from workloads import Study, write_sample_file  # noqa: E402

WORKDIR = ROOT / ".perfbench_work" / "selftest"
SHORT = ["--iters", "3000", "--burnin", "1000"]


def run_cli(*argv) -> None:
    rc = main([str(a) for a in argv] + SHORT)
    if rc != 0:
        raise RuntimeError(f"mixtt {' '.join(map(str, argv))} exited with {rc}")


class ChecksSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        WORKDIR.mkdir(parents=True, exist_ok=True)
        cls.data = WORKDIR / "large.csv"
        cls.plugin = write_sample_file(cls.data, np.random.default_rng(7), "large", 300)

    def analyze(self, seed: int) -> tuple[dict, list[list[str]]]:
        out, plot = WORKDIR / f"report-{seed}.json", WORKDIR / f"plot-{seed}.csv"
        run_cli("analyze", "--input", self.data, "--output", out, "--plot-data", plot, "--seed", seed)
        with open(plot, newline="") as fh:
            return json.loads(out.read_text()), list(csv.reader(fh))

    def test_analyze(self):
        report, rows = self.analyze(1)
        check_analyze(report, rows, self.plugin)
        check_analyze(*self.analyze(2), self.plugin)  # another chain seed passes too

        flipped = copy.deepcopy(report)
        flipped["analysis"]["delta_mpe"] = -report["analysis"]["delta_mpe"]
        with self.assertRaises(CheckFailed):
            check_analyze(flipped, rows, self.plugin)
        with self.assertRaises(CheckFailed):
            check_analyze(report, rows, self.plugin / math.sqrt(2.0))  # doubled variance
        wrong = copy.deepcopy(report)
        wrong["analysis"]["decision"]["status"] = "accepted"
        with self.assertRaises(CheckFailed):
            check_analyze(wrong, rows, self.plugin)
        negative = [row if row[0] != "density" else [row[0], row[1], "-1e-3"] for row in rows]
        with self.assertRaises(CheckFailed):
            check_analyze(report, negative, self.plugin)

    def simulate(self, seed: int) -> tuple[dict, list[float]]:
        out = WORKDIR / f"study-{seed}.json"
        run_cli("simulate", "--scenario", "large", "--n", 200, "--datasets", 3, "--output", out, "--seed", seed)
        result = json.loads(out.read_text())
        return result, [Study._plugin("large", 200, r["dataset_seed"]) for r in result["records"]]

    def test_study(self):
        result, plugins = self.simulate(11)
        check_study(result, plugins)
        check_study(*self.simulate(12))

        flipped = copy.deepcopy(result)
        flipped["records"][1]["delta_mpe"] *= -1.0
        with self.assertRaises(CheckFailed):
            check_study(flipped, plugins)
        with self.assertRaises(CheckFailed):
            check_study(result, [p / math.sqrt(2.0) for p in plugins])

    def sensitivity(self, seed: int) -> dict:
        out = WORKDIR / f"sensitivity-{seed}.json"
        run_cli("sensitivity", "--input", self.data, "--output", out, "--seed", seed)
        return json.loads(out.read_text())

    def test_sensitivity(self):
        payload = self.sensitivity(21)
        check_sensitivity(payload, self.plugin)
        check_sensitivity(self.sensitivity(22), self.plugin)

        flipped = copy.deepcopy(payload)
        flipped["presets"][2]["delta_mpe"] *= -1.0
        with self.assertRaises(CheckFailed):
            check_sensitivity(flipped, self.plugin)
        with self.assertRaises(CheckFailed):
            check_sensitivity(payload, self.plugin / math.sqrt(2.0))


if __name__ == "__main__":
    unittest.main()
