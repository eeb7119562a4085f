"""Simulation-based calibration of the sampler across the prior.

Talts et al. 2018 (arXiv:1804.06788); Cook, Gelman & Rubin 2006 (JCGS
15:675). Each replication draws the group means and variances from a fixed
custom prior and the data from the model, runs :func:`run_chain`, thins its
kept draws, and ranks each true parameter and the true effect size among
them. If the chain samples the posterior, every rank is uniform on
0..DRAWS. Each quantity's ranks go into BINS equal bins, and a chi-square
test of uniformity must give a p-value above P_MIN. The threshold was fixed
before any run: with five quantities in each of two cases it keeps the
chance that a correct sampler fails anywhere near 1 %.

The second case gives group 1 a single row under a prior with c0 < 0.5, so
its variance update has shape c0 + 1/2 < 1 and goes through the shape < 1
boost of the gamma sampler.
"""

import numpy as np
import pytest
import scipy.stats

from mixtt.analysis import effect_size_series
from mixtt.gibbs import ChainConfig, run_chain
from mixtt.model import GroupedSample, IndependencePrior, pooled_sd

REPLICATIONS = 500
BURN_IN = 100
THIN = 10
DRAWS = 99  # kept draws after thinning, so a rank takes one of 100 values
BINS = 10
P_MIN = 1e-3

CASES = {
    "ten-plus-ten": (IndependencePrior(b0=0.0, B0=4.0, c0=3.0, C0=2.0), 10, 10),
    "one-row-boost": (IndependencePrior(b0=1.0, B0=2.0, c0=0.3, C0=0.5), 1, 10),
}
QUANTITIES = ("mu1", "mu2", "sigma2_1", "sigma2_2", "delta")


def _ranks(prior, n1, n2, seed):
    """Per quantity, the rank of the true value among the thinned draws, one per replication."""
    rng = np.random.default_rng(seed)
    ranks = {q: np.empty(REPLICATIONS, dtype=int) for q in QUANTITIES}
    config_seeds = rng.integers(1 << 62, size=REPLICATIONS)
    for r in range(REPLICATIONS):
        mu = rng.normal(prior.b0, np.sqrt(prior.B0), size=2)
        sigma2 = 1.0 / rng.gamma(prior.c0, 1.0 / prior.C0, size=2)
        sample = GroupedSample(rng.normal(mu[0], np.sqrt(sigma2[0]), n1),
                               rng.normal(mu[1], np.sqrt(sigma2[1]), n2))
        config = ChainConfig(BURN_IN + THIN * DRAWS, BURN_IN, int(config_seeds[r]), prior)
        chain = run_chain(sample, config)
        draws = {
            "mu1": chain.mu1, "mu2": chain.mu2, "sigma2_1": chain.sigma2_1,
            "sigma2_2": chain.sigma2_2, "delta": effect_size_series(chain, direction="g2-g1"),
        }
        truth = {
            "mu1": mu[0], "mu2": mu[1], "sigma2_1": sigma2[0], "sigma2_2": sigma2[1],
            "delta": (mu[1] - mu[0]) / pooled_sd(sigma2[0], sigma2[1], n1, n2),
        }
        for q in QUANTITIES:
            ranks[q][r] = np.count_nonzero(draws[q][THIN - 1::THIN] < truth[q])
    return ranks


@pytest.mark.parametrize("case", CASES)
def test_ranks_of_true_values_are_uniform(case):
    prior, n1, n2 = CASES[case]
    ranks = _ranks(prior, n1, n2, seed=20261018)
    p_values = {}
    for q, r in ranks.items():
        counts = np.bincount(r * BINS // (DRAWS + 1), minlength=BINS)
        p_values[q] = scipy.stats.chisquare(counts).pvalue
    assert min(p_values.values()) > P_MIN, p_values
