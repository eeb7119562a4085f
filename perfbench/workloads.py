"""The benchmark's workloads: generated inputs, the CLI calls, and their checks.

Every input comes from the workload seed through numpy's PCG64 generator,
so the program only ever sees finished files and command lines. Data use
the component parameters of the paper's four scenarios, which puts them at
the measurement scale those scenarios define.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_analyze, check_sensitivity, check_study, plugin_d

# The acceptance suite's (scenario, n per group) pairs.
STUDY_PAIRS = (("null", 300), ("large", 200), ("medium", 100), ("small", 700))
# Datasets per simulate call. The paper uses 100, but a run must hold many
# calls: host speed is estimated between calls (see reference.py) and the
# median latency needs several calls. Eight still gives a lockstep engine a
# batch to vectorize over.
STUDY_DATASETS = 8
# Input files per file-based workload, one per scenario, used in rotation.
FILE_SCENARIOS = ("null", "large", "medium", "small")


@dataclass
class Call:
    """One CLI invocation and what it must produce."""

    argv: list[str]
    chains: int
    outputs: tuple[Path, ...]
    check: Callable[[], None]


def call_seed(seed: int, index: int) -> int:
    """The ``--seed`` of the workload's call ``index``."""
    return int(np.random.default_rng([seed, index]).integers(1 << 62))


def write_sample_file(path: Path, rng: np.random.Generator, kind: str, n: int) -> float:
    """Write a shuffled ``value,group`` CSV with n rows per group; return its plug-in d.

    The CLI makes the first label in the file group 1, so the plug-in d uses
    the same convention.
    """
    from mixtt.harness import scenario_params

    mu1, sd1, mu2, sd2, _ = scenario_params(kind)
    values = np.concatenate([rng.normal(mu1, sd1, n), rng.normal(mu2, sd2, n)])
    labels = np.repeat(np.array(["control", "treatment"]), n)
    order = rng.permutation(2 * n)
    values, labels = values[order], labels[order]
    path.write_text(
        "value,group\n" + "".join(f"{v!r},{g}\n" for v, g in zip(values.tolist(), labels.tolist()))
    )
    first = labels == labels[0]
    return plugin_d(values[first], values[~first])


class Workload:
    """Base: a seeded sequence of CLI calls writing into ``workdir``."""

    name: str
    ladder_n: int  # observations per group for the workload's size-dependent ladder entries
    probe = "interpreter"  # reference pass kind that tracks this workload (see reference.py)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs; runs before the first timed call."""

    def call(self, index: int, outdir: Path) -> Call:
        raise NotImplementedError

    def trace_calls(self, round_index: int, outdir: Path) -> list[Call]:
        """The calls one traced replay round runs."""
        return [self.call(round_index, outdir)]


class Study(Workload):
    """``simulate`` over the acceptance suite's four scenario/n pairs in rotation."""

    name = "study"
    ladder_n = 300

    def call(self, index: int, outdir: Path, datasets: int = STUDY_DATASETS) -> Call:
        kind, n = STUDY_PAIRS[index % len(STUDY_PAIRS)]
        out = outdir / "study.json"
        argv = ["simulate", "--scenario", kind, "--n", str(n), "--datasets", str(datasets),
                "--output", str(out), "--seed", str(call_seed(self.seed, index))]

        def check() -> None:
            result = json.loads(out.read_text())
            plugins = [self._plugin(kind, n, r["dataset_seed"]) for r in result["records"]]
            check_study(result, plugins)

        return Call(argv, datasets, (out,), check)

    @staticmethod
    def _plugin(kind: str, n: int, dataset_seed: int) -> float:
        # run_study draws dataset i from child stream 0 of its dataset seed
        from mixtt import RngState, Scenario, derive_seed, generate_dataset

        sample = generate_dataset(Scenario.named(kind), n, RngState(derive_seed(dataset_seed, 0)))
        return plugin_d(sample.group1, sample.group2)

    def trace_calls(self, round_index: int, outdir: Path) -> list[Call]:
        # one dataset per pair keeps a round short; per-dataset work dominates a call
        base = round_index * len(STUDY_PAIRS)
        return [self.call(base + j, outdir, datasets=1) for j in range(len(STUDY_PAIRS))]


class FileWorkload(Workload):
    """A workload whose calls read seeded CSV files in rotation."""

    rows_per_group: int

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, self.rows_per_group])
        self.inputs = []
        for kind in FILE_SCENARIOS:
            path = self.workdir / f"input-{kind}.csv"
            self.inputs.append((path, write_sample_file(path, rng, kind, self.rows_per_group)))


class AnalyzeLarge(FileWorkload):
    """``analyze --plot-data`` on 20,000 rows per group: one chain per call."""

    name = "analyze-large"
    rows_per_group = 20_000
    ladder_n = rows_per_group
    probe = "mixed"  # about half of a call is numpy work over 20,000-value arrays

    def call(self, index: int, outdir: Path) -> Call:
        path, plugin = self.inputs[index % len(self.inputs)]
        out, plot = outdir / "report.json", outdir / "plot.csv"
        argv = ["analyze", "--input", str(path), "--output", str(out), "--plot-data", str(plot),
                "--seed", str(call_seed(self.seed, index))]

        def check() -> None:
            with open(plot, newline="") as fh:
                rows = list(csv.reader(fh))
            check_analyze(json.loads(out.read_text()), rows, plugin)

        return Call(argv, 1, (out, plot), check)


class Sensitivity(FileWorkload):
    """``sensitivity`` with presets wide, medium and narrow on 300 rows per group."""

    name = "sensitivity"
    rows_per_group = 300
    ladder_n = rows_per_group
    presets = ("wide", "medium", "narrow")

    def call(self, index: int, outdir: Path) -> Call:
        path, plugin = self.inputs[index % len(self.inputs)]
        out = outdir / "sensitivity.json"
        argv = ["sensitivity", "--input", str(path), "--output", str(out),
                "--presets", ",".join(self.presets), "--seed", str(call_seed(self.seed, index))]

        def check() -> None:
            check_sensitivity(json.loads(out.read_text()), plugin)

        return Call(argv, len(self.presets), (out,), check)


WORKLOADS = {w.name: w for w in (Study, AnalyzeLarge, Sensitivity)}
