"""The compiled chain kernel against the Python sweep it must reproduce bit for bit.

``run_chain`` runs the chain in ``_kernel.c`` when it can; setting
``gibbs._kernel`` to None makes it run :func:`gibbs_sweep` in Python.
"""

import shutil
import tempfile

import numpy as np
import pytest

from mixtt import gibbs
from mixtt.cli import main as cli_main
from mixtt.distributions import RngState, derive_seed
from mixtt.gibbs import ChainConfig, run_chain, sigma2_conditional_params, sigma2_params_from_stats
from mixtt.harness import Scenario, generate_dataset
from mixtt.model import (
    PRESET_KINDS,
    GroupedSample,
    IndependencePrior,
    PriorPreset,
    compute_sufficient_stats,
    realize_preset,
)

# the acceptance suite's scenario/n pairs and master seed
ACCEPTANCE_PAIRS = (("null", 300), ("large", 200), ("medium", 100), ("small", 700))
SEED = 20260810
FIELDS = ("mu1", "mu2", "sigma2_1", "sigma2_2")

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on this host")


def _python_chain(monkeypatch, sample, config):
    with monkeypatch.context() as m:
        m.setattr(gibbs, "_kernel", None)
        return run_chain(sample, config)


def _acceptance_dataset(scenario, n):
    dataset_seed = derive_seed(SEED, 0)
    sample = generate_dataset(Scenario.named(scenario), n, RngState(derive_seed(dataset_seed, 0)))
    return sample, derive_seed(dataset_seed, 1)


def _assert_same_draws(a, b):
    for f in FIELDS:
        assert np.array_equal(getattr(a, f), getattr(b, f)), f


@needs_cc
def test_kernel_is_in_use_when_a_compiler_exists():
    run_chain(GroupedSample([0.0, 1.0, 2.0], [3.0, 4.0]), ChainConfig(10, 5, 1, IndependencePrior(0, 1, 1, 1)))
    assert gibbs._kernel is not None


@needs_cc
@pytest.mark.parametrize("kind", PRESET_KINDS)
@pytest.mark.parametrize("scenario, n", ACCEPTANCE_PAIRS)
def test_kernel_draws_equal_python_draws(monkeypatch, scenario, n, kind):
    sample, chain_seed = _acceptance_dataset(scenario, n)
    config = ChainConfig(10_000, 5_000, chain_seed, realize_preset(PriorPreset(kind), sample))
    _assert_same_draws(run_chain(sample, config), _python_chain(monkeypatch, sample, config))


@needs_cc
@pytest.mark.parametrize("c0", [0.1, 0.05])
def test_kernel_draws_equal_python_draws_on_the_boost_path(monkeypatch, c0):
    # one row in group 1 gives its variance update shape c0 + 1/2 < 1
    sample = GroupedSample([1.3], np.linspace(-1.0, 2.0, 9))
    prior = IndependencePrior(b0=0.0, B0=4.0, c0=c0, C0=0.5)
    for seed in range(20):
        config = ChainConfig(2_000, 500, seed, prior)
        _assert_same_draws(run_chain(sample, config), _python_chain(monkeypatch, sample, config))


@pytest.mark.parametrize("scenario, n", ACCEPTANCE_PAIRS)
def test_sufficient_statistics_residual_matches_the_sum(scenario, n):
    sample, _ = _acceptance_dataset(scenario, n)
    stats = compute_sufficient_stats(sample)
    prior = realize_preset(PriorPreset("wide"), sample)
    for values, ybar, s2y in ((sample.group1, stats.ybar1, stats.s2y1), (sample.group2, stats.ybar2, stats.s2y2)):
        sd = np.sqrt(s2y)
        for mu in ybar + sd * np.array([-3.0, -0.1, 0.0, 0.05, 1.0, 4.0]):
            c, C = sigma2_params_from_stats(mu, values.size, ybar, s2y, prior)
            c_ref, C_ref = sigma2_conditional_params(mu, values, prior)
            assert c == c_ref
            assert C == pytest.approx(C_ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "prior, rc",
    [
        (("1e308", "1", "1", "1"), 2),
        (("-1e308", "1", "1", "1"), 2),
        (("1e200", "1e-200", "1", "1"), 2),
        (("0", "1", "1", "1e-320"), 0),
        (("0", "1", "1e-320", "1e-320"), 0),
        (("0", "1e308", "1e-300", "1"), 0),
    ],
    ids=["b0-1e308", "b0-minus-1e308", "b0-1e200-B0-1e-200", "C0-subnormal", "c0-C0-subnormal",
         "B0-1e308-c0-1e-300"],
)
def test_extreme_custom_priors_behave_alike_on_both_paths(tmp_path, monkeypatch, capsys, prior, rc):
    # the kernel gives up where the Python sweep raises, so the errors are the Python ones
    data = tmp_path / "data.csv"
    data.write_text("value,group\n0.1,a\n0.7,a\n1.2,a\n2.0,b\n2.9,b\n")
    flags = [f"{name}={v}" for name, v in zip(("--b0", "--B0", "--c0", "--C0"), prior)]

    def analyze(name):
        out = tmp_path / name
        code = cli_main(["analyze", "--input", str(data), "--output", str(out),
                         "--seed", "3", "--iters", "300", "--burnin", "100", *flags])
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    kernel = analyze("kernel.json")
    monkeypatch.setattr(gibbs, "_kernel", None)
    assert analyze("python.json") == kernel
    assert kernel[0] == rc
    if rc == 2:
        assert kernel[1].startswith("mixtt: error: shape and scale must be finite and > 0")


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--scenario", "large", "--n", "30", "--datasets", "3", "--iters", "2000",
         "--burnin", "500"],
        ["analyze", "--input", "{data}", "--plot-data", "{out}.csv", "--prior", "medium"],
        ["sensitivity", "--input", "{data}", "--iters", "2000", "--burnin", "500"],
    ],
    ids=["simulate", "analyze-plot-data", "sensitivity"],
)
def test_cli_outputs_are_byte_identical_on_both_paths(tmp_path, monkeypatch, command):
    sample, _ = _acceptance_dataset("small", 40)
    data = tmp_path / "data.csv"
    data.write_text("value,group\n" + "".join(f"{float(v)!r},g1\n" for v in sample.group1)
                    + "".join(f"{float(v)!r},g2\n" for v in sample.group2))

    def run(name):
        out = tmp_path / name
        argv = [a.format(data=data, out=out) for a in command]
        assert cli_main([*argv, "--seed", "5", "--output", f"{out}.json"]) == 0
        return sorted((p.suffix, p.read_bytes()) for p in tmp_path.glob(f"{name}.*"))

    kernel = run("kernel")
    monkeypatch.setattr(gibbs, "_kernel", None)
    assert run("python") == kernel


@needs_cc
def test_kernel_cache_is_keyed_by_source_and_written_atomically(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copy(gibbs._KERNEL_SOURCE, source)
    monkeypatch.setattr(gibbs, "_KERNEL_SOURCE", source)
    assert gibbs._load_kernel() is not None
    built = sorted((tmp_path / "__pycache__").iterdir())
    assert [p.suffix for p in built] == [".so"]
    assert gibbs._load_kernel() is not None
    assert sorted((tmp_path / "__pycache__").iterdir()) == built  # reused, not rebuilt
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert gibbs._load_kernel() is not None
    assert len(list((tmp_path / "__pycache__").iterdir())) == 2


@needs_cc
def test_kernel_builds_privately_when_the_cache_cannot_be_written(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copy(gibbs._KERNEL_SOURCE, source)
    (tmp_path / "__pycache__").write_text("a file where the cache directory would go")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(gibbs, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    assert gibbs._load_kernel() is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == ["__pycache__", "_kernel.c", "tmp"]
    assert list(private.iterdir()) == []  # the private build is removed once loaded


def test_kernel_falls_back_to_python_without_a_working_compiler(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    source.write_text("this is not C\n")
    monkeypatch.setattr(gibbs, "_KERNEL_SOURCE", source)
    assert gibbs._load_kernel() is None
    assert list(tmp_path.glob("__pycache__/*")) == []
    monkeypatch.setattr(gibbs.shutil, "which", lambda name: None)
    assert gibbs._load_kernel() is None
