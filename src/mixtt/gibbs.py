"""Single-block Gibbs sampler for the two-group Gaussian model.

Each sweep draws, in this fixed order, sigma2_1, sigma2_2 (inverse gamma,
conditioned on the current means) and then mu_1, mu_2 (normal, conditioned
on the variances just drawn). Exactly four variates are consumed per sweep,
always in that order, so a seed fixes the chain; the number of underlying
uniforms per variate varies because the gamma sampler is rejection-based.
The integer stream behind a seed is the same everywhere, but the variates
go through libm and may differ in the last ulp across platforms (see
:mod:`mixtt.distributions`).

The chain state is a plain ``(mu1, mu2, sigma2_1, sigma2_2)`` tuple of
floats; :func:`run_chain` keeps it in locals and writes the kept sweeps
straight into preallocated arrays. Variance positivity is checked where it
is used, by :func:`mu_conditional_params`.

A chain is strictly sequential. Run concurrent chains on independently
derived seeds (:func:`mixtt.distributions.derive_seed`), never by sharing
one RngState.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import RngState, sample_inverse_gamma, sample_normal
from .model import GroupedSample, IndependencePrior, SufficientStats, compute_sufficient_stats

# floor for the variance initialization so constant-valued groups can start
_MIN_INIT_VARIANCE = 1e-8


@dataclass(frozen=True)
class ChainConfig:
    """Sweep count, burn-in, seed, and prior for one chain."""

    iterations: int
    burn_in: int
    seed: int
    prior: IndependencePrior

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn-in must satisfy 0 <= burn_in < iterations, got "
                f"{self.burn_in} vs {self.iterations}"
            )


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in draws of (mu1, mu2, sigma2_1, sigma2_2), stored column-wise."""

    mu1: np.ndarray = field(repr=False)
    mu2: np.ndarray = field(repr=False)
    sigma2_1: np.ndarray = field(repr=False)
    sigma2_2: np.ndarray = field(repr=False)
    stats: SufficientStats


def mu_conditional_params(
    sigma2_k: float, n_k: int, ybar_k: float, prior: IndependencePrior
) -> tuple[float, float]:
    """Posterior (b_k, B_k) of a group mean given that group's variance.

    B_k = 1 / (1/B0 + n_k / sigma2_k) and b_k = B_k * (n_k*ybar_k/sigma2_k
    + b0/B0).
    """
    if sigma2_k <= 0.0:
        raise ValueError(f"sigma2_k must be > 0, got {sigma2_k}")
    inv_B0 = 1.0 / prior.B0
    B_k = 1.0 / (inv_B0 + n_k / sigma2_k)
    b_k = B_k * (n_k * ybar_k / sigma2_k + prior.b0 * inv_B0)
    return b_k, B_k


def sigma2_conditional_params(
    mu_k: float, group_values: np.ndarray, prior: IndependencePrior
) -> tuple[float, float]:
    """Posterior (c_k, C_k) of a group variance given that group's mean.

    c_k = c0 + N_k/2 and C_k = C0 + (1/2) * sum((y_i - mu_k)^2) over the
    group; an empty group returns (c0, C0).
    """
    values = np.asarray(group_values, dtype=float)
    c_k = prior.c0 + 0.5 * values.size
    resid = values - mu_k
    C_k = prior.C0 + 0.5 * float(resid @ resid)
    return c_k, C_k


def gibbs_sweep(
    current: tuple[float, float, float, float],
    sample: GroupedSample,
    stats: SufficientStats,
    prior: IndependencePrior,
    rng: RngState,
) -> tuple[float, float, float, float]:
    """Advance the chain state (mu1, mu2, sigma2_1, sigma2_2) by one full sweep."""
    c1, C1 = sigma2_conditional_params(current[0], sample.group1, prior)
    s2_1 = sample_inverse_gamma(rng, c1, C1)
    c2, C2 = sigma2_conditional_params(current[1], sample.group2, prior)
    s2_2 = sample_inverse_gamma(rng, c2, C2)
    b1, B1 = mu_conditional_params(s2_1, stats.n1, stats.ybar1, prior)
    mu1 = sample_normal(rng, b1, B1)
    b2, B2 = mu_conditional_params(s2_2, stats.n2, stats.ybar2, prior)
    mu2 = sample_normal(rng, b2, B2)
    return mu1, mu2, s2_1, s2_2


def initial_draw(stats: SufficientStats) -> tuple[float, float, float, float]:
    """Chain start at the group empirical moments (variances floored above zero)."""
    return (
        stats.ybar1,
        stats.ybar2,
        max(stats.s2y1, _MIN_INIT_VARIANCE),
        max(stats.s2y2, _MIN_INIT_VARIANCE),
    )


def run_chain(sample: GroupedSample, config: ChainConfig) -> PosteriorChain:
    """Run a seeded chain and return the post-burn-in draws in sweep order."""
    stats = compute_sufficient_stats(sample)
    prior = config.prior
    rng = RngState(config.seed)
    kept = config.iterations - config.burn_in
    mu1 = np.empty(kept)
    mu2 = np.empty(kept)
    s2_1 = np.empty(kept)
    s2_2 = np.empty(kept)
    current = initial_draw(stats)
    for _ in range(config.burn_in):
        current = gibbs_sweep(current, sample, stats, prior, rng)
    for j in range(kept):
        current = gibbs_sweep(current, sample, stats, prior, rng)
        mu1[j], mu2[j], s2_1[j], s2_2[j] = current
    return PosteriorChain(mu1, mu2, s2_1, s2_2, stats)
