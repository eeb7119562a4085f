"""The compiled kernel against the Python code it must reproduce bit for bit.

``run_chain`` runs the chain in ``_kernel.c`` when it can, and
``generate_dataset`` draws each group's normals there. Setting
``gibbs._kernel`` to None makes the chain run :func:`gibbs_sweep` and the
data call :func:`sample_normal`, both in Python. Draws are compared as bytes:
``np.array_equal`` takes -0.0 for 0.0, so it would miss a sign fault at zero.
"""

import collections
import math
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from mixtt import gibbs
from mixtt.cli import main as cli_main
from mixtt.distributions import ZIGGURAT_R, RngState, derive_seed, sample_normal
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


class _CountingRng(RngState):
    """An RngState that counts the 64-bit words it hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.words = 0

    def next_u64(self):
        self.words += 1
        return super().next_u64()


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
        assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f


@needs_cc
def test_kernel_is_in_use_when_a_compiler_exists():
    run_chain(GroupedSample([0.0, 1.0, 2.0], [3.0, 4.0]), ChainConfig(10, 5, 1, IndependencePrior(0, 1, 1, 1)))
    assert gibbs._kernel is not None


@needs_cc
@pytest.mark.parametrize("scenario, n", [*ACCEPTANCE_PAIRS, ("small", 2)])
def test_kernel_data_and_stream_position_equal_python(monkeypatch, scenario, n):
    def draw():
        rng = RngState(derive_seed(derive_seed(SEED, 0), 0))
        sample = generate_dataset(Scenario.named(scenario), n, rng)
        return sample, rng.next_u64()

    kernel_sample, kernel_next = draw()
    monkeypatch.setattr(gibbs, "_kernel", None)
    python_sample, python_next = draw()
    assert kernel_sample.group1.tobytes() == python_sample.group1.tobytes()
    assert kernel_sample.group2.tobytes() == python_sample.group2.tobytes()
    assert kernel_next == python_next


@needs_cc
def test_generate_dataset_uses_the_kernel_when_a_compiler_exists(monkeypatch):
    def fallback(*args):
        raise AssertionError("generate_dataset drew its normals in Python")

    monkeypatch.setattr(gibbs, "sample_normal", fallback)
    sample = generate_dataset(Scenario.named("small"), 50, RngState(1))
    assert sample.group1.size == sample.group2.size == 50


@needs_cc
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_kernel_normals_equal_python_on_every_ziggurat_branch(seed):
    n = 50_000
    kernel_rng = RngState(seed)
    kernel = gibbs._normals(kernel_rng, 0.0, 1.0, n)
    python_rng = _CountingRng(seed)
    python, words = [], []
    for _ in range(n):
        before = python_rng.words
        python.append(sample_normal(python_rng, 0.0, 1.0))
        words.append(python_rng.words - before)
    assert kernel.tobytes() == np.array(python).tobytes()
    assert kernel_rng.state_words() == python_rng.state_words()
    per_draw = collections.Counter(words)
    assert per_draw[1] > 0.96 * n  # the rectangle of a layer, on one word
    assert per_draw[2] > 0  # an accepted wedge test
    size, spent = np.abs(kernel), np.array(words)
    assert np.any(size > ZIGGURAT_R)  # the tail of layer 0
    assert np.any((spent >= 3) & (size <= ZIGGURAT_R))  # a rejected wedge test, then another try


def _rng_whose_first_word_is(word):
    # xoshiro256++ returns rotl(s0 + s3, 23) + s0, so s0 = 0 and s3 = rotr(word, 23) give word
    rng = RngState(1)
    s3 = (word >> 23 | word << 41) & 0xFFFF_FFFF_FFFF_FFFF
    rng.set_state_words((0, 0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9, s3))
    return rng


@needs_cc
@pytest.mark.parametrize("word, sign", [(0x80, -1.0), (0x00, 1.0)])
def test_kernel_normals_keep_the_sign_of_a_zero_draw(word, sign):
    # bits 11-63 of either word give magnitude 0; bit 7 of 0x80 sets the sign, and with
    # mean -0.0 the sum -0.0 + sd * x keeps it
    kernel_rng, python_rng = _rng_whose_first_word_is(word), _rng_whose_first_word_is(word)
    kernel = gibbs._normals(kernel_rng, -0.0, 1.0, 3)
    python = np.array([sample_normal(python_rng, -0.0, 1.0) for _ in range(3)])
    assert kernel.tobytes() == python.tobytes()
    assert kernel[0] == 0.0 and math.copysign(1.0, kernel[0]) == sign
    assert kernel_rng.state_words() == python_rng.state_words()


@pytest.mark.parametrize("scenario, n", ACCEPTANCE_PAIRS)
def test_a_sweep_spends_at_most_six_and_a_half_words(monkeypatch, scenario, n):
    # four normals of about one word each, and one uniform in each of the two gamma draws
    sample, chain_seed = _acceptance_dataset(scenario, n)
    config = ChainConfig(2_000, 500, chain_seed, realize_preset(PriorPreset("wide"), sample))
    rngs = []

    def counting_rng(seed):
        rngs.append(_CountingRng(seed))
        return rngs[-1]

    monkeypatch.setattr(gibbs, "RngState", counting_rng)
    _python_chain(monkeypatch, sample, config)
    assert rngs[0].words / config.iterations <= 6.5


class _VarianceSpy:
    """A kernel handle that records the variance of every normals() call."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.variances = []

    def normals(self, words, mean, variance, n, out):
        self.variances.append(variance)
        self.kernel.normals(words, mean, variance, n, out)


@needs_cc
@pytest.mark.parametrize(
    "sd1, message", [(0.0, "variance must be > 0, got 0.0"), (math.nan, "values must all be finite")]
)
def test_bad_scenario_raises_the_same_error_on_both_paths(monkeypatch, sd1, message):
    scenario = Scenario("bad", 1.0, sd1, 2.0, 1.5)

    def error():
        with pytest.raises(ValueError, match=message) as info:
            generate_dataset(scenario, 10, RngState(1))
        return str(info.value)

    spy = _VarianceSpy(gibbs._loaded_kernel())
    monkeypatch.setattr(gibbs, "_kernel", spy)
    kernel_error = error()
    assert not any(v <= 0.0 for v in spy.variances)  # the C side never sees a variance sample_normal rejects
    monkeypatch.setattr(gibbs, "_kernel", None)
    assert error() == kernel_error


@needs_cc
@pytest.mark.parametrize("kind", PRESET_KINDS)
@pytest.mark.parametrize("scenario, n", ACCEPTANCE_PAIRS)
def test_kernel_draws_equal_python_draws(monkeypatch, scenario, n, kind):
    sample, chain_seed = _acceptance_dataset(scenario, n)
    config = ChainConfig(10_000, 5_000, chain_seed, realize_preset(PriorPreset(kind), sample))
    _assert_same_draws(run_chain(sample, config), _python_chain(monkeypatch, sample, config))


def _assert_boost_chains_match(monkeypatch, sample, c0):
    prior = IndependencePrior(b0=0.0, B0=4.0, c0=c0, C0=0.5)
    for seed in range(20):
        config = ChainConfig(2_000, 500, seed, prior)
        _assert_same_draws(run_chain(sample, config), _python_chain(monkeypatch, sample, config))


@needs_cc
@pytest.mark.parametrize("c0", [0.1, 0.05])
def test_kernel_draws_equal_python_draws_on_the_boost_path(monkeypatch, c0):
    # one row in group 1 gives its variance update shape c0 + 1/2 < 1
    _assert_boost_chains_match(monkeypatch, GroupedSample([1.3], np.linspace(-1.0, 2.0, 9)), c0)


@needs_cc
@pytest.mark.parametrize("c0", [0.1, 0.05])
@pytest.mark.parametrize(
    "group1, group2", [([1.3], [0.4]), (np.linspace(-1.0, 2.0, 9), [0.4])], ids=["both-groups", "group-2"]
)
def test_kernel_keeps_each_groups_gamma_constants_on_the_boost_path(monkeypatch, group1, group2, c0):
    # the kernel computes each group's gamma constants once per chain; here both groups
    # boost, or group 2 alone
    _assert_boost_chains_match(monkeypatch, GroupedSample(group1, group2), c0)


@needs_cc
def test_kernel_draws_do_not_depend_on_the_optimizer(tmp_path, monkeypatch):
    # the kernel at -O0, where nothing is inlined or hoisted, against the default build
    library = tmp_path / "kernel-O0.so"
    flags = ["-O0" if flag == "-O2" else flag for flag in gibbs._KERNEL_FLAGS]
    subprocess.run([shutil.which("cc"), *flags, "-o", str(library), str(gibbs._KERNEL_SOURCE), "-lm"],
                   check=True)
    default, unoptimized = gibbs._loaded_kernel(), gibbs._bind_kernel(library)
    assert default is not None

    def draws(kernel, scenario, n):
        monkeypatch.setattr(gibbs, "_kernel", kernel)
        sample, chain_seed = _acceptance_dataset(scenario, n)
        chain = run_chain(sample, ChainConfig(10_000, 5_000, chain_seed, realize_preset(PriorPreset("wide"), sample)))
        rng = RngState(chain_seed)
        data = gibbs._normals(rng, -0.0, 2.0, 20_000)
        return [getattr(chain, f).tobytes() for f in FIELDS], data.tobytes(), rng.state_words()

    for scenario, n in ACCEPTANCE_PAIRS:
        assert draws(unoptimized, scenario, n) == draws(default, scenario, n), scenario


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


SHAPE_ERROR = "shape and scale must be finite and > 0"


@pytest.mark.parametrize(
    "prior, rc, message",
    [
        (("1e308", "1", "1", "1"), 2, SHAPE_ERROR),
        (("-1e308", "1", "1", "1"), 2, SHAPE_ERROR),
        (("1e200", "1e-200", "1", "1"), 2, SHAPE_ERROR),
        (("0", "1e-320", "1", "1"), 2, "variance must be > 0, got 0.0"),
        (("0", "1", "1", "1e-320"), 0, None),
        (("0", "1", "1e-320", "1e-320"), 0, None),
        (("0", "1e308", "1e-300", "1"), 0, None),
    ],
    ids=["b0-1e308", "b0-minus-1e308", "b0-1e200-B0-1e-200", "B0-subnormal", "C0-subnormal",
         "c0-C0-subnormal", "B0-1e308-c0-1e-300"],
)
def test_extreme_custom_priors_behave_alike_on_both_paths(tmp_path, monkeypatch, capsys, prior, rc, message):
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
        assert kernel[1].startswith(f"mixtt: error: {message}")


@needs_cc
@pytest.mark.parametrize("seed", [3, 12, 18, 23])
def test_kernel_hands_back_a_chain_python_carries_through_an_infinite_variance(monkeypatch, seed):
    # C0 = 1e308 puts both variances' scales near the largest double, so a draw can
    # overflow to inf: the Python sweep carries it on, and the kernel gives up on it
    sample = GroupedSample([1.0] * 3, [2.0] * 2)
    config = ChainConfig(1, 0, seed, IndependencePrior(0.0, 1.0, 1.0, 1e308))
    sweeps = []
    sweep = gibbs.gibbs_sweep
    monkeypatch.setattr(gibbs, "gibbs_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    kernel = run_chain(sample, config)
    assert len(sweeps) == 1  # the kernel handed the chain back
    python = _python_chain(monkeypatch, sample, config)
    assert python.sigma2_2[0] == math.inf
    _assert_same_draws(kernel, python)


@needs_cc
@pytest.mark.parametrize("seed", [2, 4, 29])
def test_kernel_hands_back_a_chain_whose_group_mean_variance_underflows(monkeypatch, seed):
    # a constant zero group and C0 = 5e-308 draw sigma2_1 so small that n1 / sigma2_1
    # overflows: B_1 is 0 while b_1 stays finite, and sample_normal rejects that variance
    sample = GroupedSample([0.0] * 3, [1.0, 2.0, 4.0])
    config = ChainConfig(1, 0, seed, IndependencePrior(0.0, 1.0, 1.0, 5e-308))
    with pytest.raises(ValueError, match="variance must be > 0, got 0.0"):
        run_chain(sample, config)
    with pytest.raises(ValueError, match="variance must be > 0, got 0.0"):
        _python_chain(monkeypatch, sample, config)


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--scenario", "large", "--n", "30", "--datasets", "3", "--iters", "2000",
         "--burnin", "500"],
        ["analyze", "--input", "{data}", "--plot-data", "{out}.csv", "--prior", "medium"],
        ["sensitivity", "--input", "{data}", "--iters", "2000", "--burnin", "500"],
        # an odd number of kept draws, more than numpy's 8,192-element reduction buffer
        ["analyze", "--input", "{data}", "--iters", "21000", "--burnin", "3001"],
    ],
    ids=["simulate", "analyze-plot-data", "sensitivity", "analyze-odd-kept"],
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
    other = tmp_path / "__pycache__" / "_kernel-other-tag-0000000000000000.so"  # another Python's build
    other.write_bytes(b"")
    assert gibbs._load_kernel() is not None
    rebuilt = sorted(set((tmp_path / "__pycache__").iterdir()) - {other})
    assert len(rebuilt) == 1 and rebuilt != built  # the stale build is removed
    assert rebuilt[0].name.startswith(f"_kernel-{sys.implementation.cache_tag}-")
    assert other.exists()


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
