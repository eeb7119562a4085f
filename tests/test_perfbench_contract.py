"""The benchmark in perfbench/ binds names of this package at import time.

Importing its modules is side-effect free and times nothing, so this test
only checks that every package name the benchmark imports still exists
(``gibbs_sweep``, ``initial_draw``, ``sigma2_conditional_params``,
``alpha_decision`` and the rest).
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module", ["ladder", "tracing", "checks", "workloads"])
def test_benchmark_module_imports(module, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module(module)
