"""The layer ladder: direct, untraced calls to each layer's public functions.

Every entry is timed in batches sized to take at least ``MIN_BATCH_S``; the
ladder reports the median and interquartile range of the per-call time over
``REPEATS`` batches. Size-dependent entries run at the workload's
``ladder_n`` observations per group, except the two fixed sweep sizes the
roadmap names (n = 50 and n = 20,000). RNG words are counted exactly by a
:class:`CountingRng` passed into the public ``gibbs_sweep`` and
``sample_inverse_gamma``.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from mixtt import (
    ChainConfig,
    GroupedSample,
    PriorPreset,
    RngState,
    Scenario,
    alpha_decision,
    cohen_partition,
    compute_sufficient_stats,
    effect_size_series,
    generate_dataset,
    gibbs_sweep,
    hpd_interval,
    pmp,
    posterior_mode,
    realize_preset,
    run_chain,
    sample_inverse_gamma,
    sample_normal,
    welch_t_test,
)
from mixtt.gibbs import initial_draw, sigma2_conditional_params
from mixtt.reports import read_sample_csv, write_json, write_plot_data

from workloads import write_sample_file

REPEATS = 5
MIN_BATCH_S = 0.02
COUNT_SWEEPS = 2_000
COUNT_DRAWS = 5_000
# Marsaglia-Tsang spends two words on the normal and one on the uniform per attempt.
WORDS_PER_GAMMA_ATTEMPT = 3.0

NS, US, MS = 1e9, 1e6, 1e3


class CountingRng(RngState):
    """An RngState that counts the 64-bit words it hands out."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.words = 0

    def next_u64(self) -> int:
        self.words += 1
        return RngState.next_u64(self)


def time_per_call(fn) -> tuple[float, float]:
    """Median and IQR, in seconds, of one call of ``fn`` over REPEATS timed batches."""
    batch = 1
    while True:  # grow the batch until it is long enough to time; also warms up
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        if perf_counter() - t0 >= MIN_BATCH_S:
            break
        batch *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q3 - q1


def _sample(rng: np.random.Generator, n: int, workdir: Path, name: str) -> tuple[GroupedSample, Path]:
    """A ``large``-scenario sample with n rows per group, written out and read back."""
    path = workdir / name
    write_sample_file(path, rng, "large", n)
    return read_sample_csv(path), path


def run_ladder(seed: int, n: int, workdir: Path, payload: dict) -> tuple[dict, dict]:
    """Time the ladder; returns (metric values, {metric: [median, iqr]})."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, n, 1])
    sample, csv_path = _sample(rng, n, workdir, "ladder.csv")
    stats = compute_sufficient_stats(sample)
    prior = realize_preset(PriorPreset("wide"), sample)
    chain_seed = int(rng.integers(1 << 62))
    rng_state = RngState(chain_seed)
    ig_shape = prior.c0 + 0.5 * stats.n1
    ig_scale = prior.C0 + 0.5 * stats.n1 * stats.s2y1
    labels = ["control"] * n + ["treatment"] * n
    values = sample.values.tolist()

    def sweeper(s: GroupedSample):
        st = compute_sufficient_stats(s)
        state = [initial_draw(st)]

        def sweep():
            state[0] = gibbs_sweep(state[0], s, st, prior, rng_state)

        return sweep

    small, _ = _sample(rng, 50, workdir, "ladder-50.csv")
    large, _ = _sample(rng, 20_000, workdir, "ladder-20000.csv") if n != 20_000 else (sample, None)
    chain = run_chain(sample, ChainConfig(10_000, 5_000, chain_seed, prior))
    deltas = effect_size_series(chain, direction="g2-g1")
    interval = hpd_interval(deltas, 0.95)
    partition = cohen_partition()
    rope = ((-0.2, 0.2),)
    scenario = Scenario.named("large")
    mu1 = stats.ybar1

    entries = {
        "distributions.next_u64_ns": (rng_state.next_u64, NS),
        "distributions.sample_normal_ns": (lambda: sample_normal(rng_state, 0.0, 1.0), NS),
        "distributions.sample_inverse_gamma_ns": (
            lambda: sample_inverse_gamma(rng_state, ig_shape, ig_scale), NS),
        "gibbs.sweep_us": (sweeper(sample), US),
        "gibbs.sweep_n50_us": (sweeper(small), US),
        "gibbs.sweep_n20000_us": (sweeper(large), US),
        "gibbs.sigma2_conditional_params_us": (
            lambda: sigma2_conditional_params(mu1, sample.group1, prior), US),
        "gibbs.run_chain_ms": (
            lambda: run_chain(sample, ChainConfig(10_000, 5_000, chain_seed, prior)), MS),
        "model.grouped_sample_ms": (lambda: GroupedSample.from_labels(values, labels), MS),
        "harness.generate_dataset_ms": (
            lambda: generate_dataset(scenario, n, rng_state), MS),
        "welch.welch_t_test_us": (lambda: welch_t_test(sample), US),
        "analysis.effect_size_series_ms": (lambda: effect_size_series(chain, direction="g2-g1"), MS),
        "analysis.hpd_interval_ms": (lambda: hpd_interval(deltas, 0.95), MS),
        "analysis.pmp_ms": (lambda: pmp(deltas, partition), MS),
        "analysis.alpha_decision_ms": (lambda: alpha_decision(deltas, rope, 0.95), MS),
        "analysis.posterior_mode_ms": (lambda: posterior_mode(deltas), MS),
        "reports.read_sample_csv_ms": (lambda: read_sample_csv(csv_path), MS),
        "reports.write_json_ms": (lambda: write_json(payload, workdir / "ladder.json"), MS),
        "reports.write_plot_data_ms": (
            lambda: write_plot_data(deltas, interval, workdir / "ladder-plot.csv"), MS),
    }
    values_out, detail = {}, {}
    for name, (fn, scale) in entries.items():
        median, iqr = time_per_call(fn)
        values_out[name] = median * scale
        detail[name] = [median * scale, iqr * scale]

    counter = CountingRng(chain_seed)
    state = initial_draw(stats)
    for _ in range(COUNT_SWEEPS):
        state = gibbs_sweep(state, sample, stats, prior, counter)
    values_out["distributions.u64_per_sweep"] = counter.words / COUNT_SWEEPS
    counter = CountingRng(chain_seed + 1)
    for _ in range(COUNT_DRAWS):
        sample_inverse_gamma(counter, ig_shape, ig_scale)
    per_draw = counter.words / COUNT_DRAWS
    values_out["distributions.u64_per_inverse_gamma"] = per_draw
    values_out["distributions.inverse_gamma_useful_frac"] = WORDS_PER_GAMMA_ATTEMPT / per_draw
    return values_out, detail
