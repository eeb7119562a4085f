"""The benchmark in perfbench/ binds names of this package at import time.

Importing its modules is side-effect free and times nothing, so the first
test only checks that every package name the benchmark imports still exists
(``gibbs_sweep``, ``initial_draw``, ``sigma2_conditional_params``,
``alpha_decision`` and the rest). The second runs the layer ladder once with
its repeats and counts cut to the minimum, so it also fails when a function
the ladder calls no longer takes the arguments the ladder passes, or returns
a value the ladder cannot pass on.
"""

import importlib
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module", ["ladder", "tracing", "checks", "workloads"])
def test_benchmark_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module)


def test_layer_ladder_runs_on_current_call_forms(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder = importlib.import_module("ladder")
    monkeypatch.setattr(ladder, "REPEATS", 2)
    monkeypatch.setattr(ladder, "MIN_BATCH_S", 0.0)
    monkeypatch.setattr(ladder, "COUNT_SWEEPS", 20)
    monkeypatch.setattr(ladder, "COUNT_DRAWS", 50)
    values, _ = ladder.run_ladder(1, 50, tmp_path, {})
    assert len(values) == 22
    assert all(math.isfinite(v) for v in values.values())
