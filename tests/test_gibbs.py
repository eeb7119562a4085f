import itertools
import math

import numpy as np
import pytest
import scipy.stats
from _oracles import (
    batch_cov_se,
    batch_mean_se,
    batch_var_se,
    group_posterior_moments,
    mu_conditional_params_conjugate,
)

from mixtt import gibbs
from mixtt.distributions import RngState
from mixtt.errors import ConfigInvalid, NonPositiveVariance
from mixtt.gibbs import (
    ChainConfig,
    gibbs_sweep,
    initial_draw,
    mu_conditional_params,
    run_chain,
    sigma2_conditional_params,
)
from mixtt.model import (
    GroupedSample,
    IndependencePrior,
    PriorPreset,
    compute_sufficient_stats,
    realize_preset,
)

PRIOR = IndependencePrior(b0=0.0, B0=1.0, c0=0.01, C0=0.01)


def make_sample(g1, g2):
    return GroupedSample(list(g1) + list(g2), [1] * len(g1) + [2] * len(g2))


def test_mu_params_hand_example():
    b, B = mu_conditional_params(1.0, 4, 2.0, PRIOR)
    assert B == pytest.approx(0.2, abs=1e-15)
    assert b == pytest.approx(1.6, abs=1e-15)


def test_mu_params_empty_group_is_exactly_the_prior():
    prior = IndependencePrior(b0=-3.7, B0=11.3, c0=1.0, C0=1.0)
    assert mu_conditional_params(2.0, 0, float("nan"), prior) == (-3.7, 11.3)


def test_mu_params_flat_prior_limit():
    prior = IndependencePrior(b0=0.0, B0=1e12, c0=0.01, C0=0.01)
    b, B = mu_conditional_params(1.0, 100, 5.0, prior)
    assert abs(b - 5.0) < 1e-6
    assert abs(B - 0.01) < 1e-6


def test_mu_params_rejects_bad_variance():
    with pytest.raises(NonPositiveVariance):
        mu_conditional_params(0.0, 4, 2.0, PRIOR)


def test_conjugate_form_agrees_when_priors_align():
    # with B0 = sigma2/N0 the two parameterizations describe the same update
    sigma2, n, ybar, b0, N0 = 2.5, 7, 1.3, 0.4, 3.0
    prior = IndependencePrior(b0=b0, B0=sigma2 / N0, c0=1.0, C0=1.0)
    b_ind, B_ind = mu_conditional_params(sigma2, n, ybar, prior)
    b_con, B_con = mu_conditional_params_conjugate(sigma2, n, ybar, b0, N0)
    assert b_ind == pytest.approx(b_con, rel=1e-12)
    assert B_ind == pytest.approx(B_con, rel=1e-12)


def test_sigma2_params_hand_example():
    c, C = sigma2_conditional_params(0.0, np.array([1.0, -1.0]), PRIOR)
    assert c == pytest.approx(1.01, abs=1e-15)
    assert C == pytest.approx(1.01, abs=1e-15)


def test_sigma2_params_empty_group():
    assert sigma2_conditional_params(3.0, np.array([]), PRIOR) == (0.01, 0.01)


def test_sigma2_shape_depends_only_on_count():
    values = np.random.default_rng(0).normal(5, 3, 50)
    c, _ = sigma2_conditional_params(123.0, values, PRIOR)
    assert c == pytest.approx(25.01, abs=1e-15)


def test_sweep_deterministic():
    sample = make_sample([0.1, 0.5, 1.2], [2.0, 2.5])
    stats = compute_sufficient_stats(sample)
    current = initial_draw(stats)
    a = gibbs_sweep(current, sample, stats, PRIOR, RngState(7))
    b = gibbs_sweep(current, sample, stats, PRIOR, RngState(7))
    assert a == b


def test_sweep_survives_zero_residuals():
    # all values equal the current mean: C_k collapses to C0, draw must stay valid
    sample = make_sample([2.0, 2.0, 2.0], [5.0, 5.0])
    stats = compute_sufficient_stats(sample)
    current = (2.0, 5.0, 1.0, 1.0)
    for seed in range(20):
        _, _, sigma2_1, sigma2_2 = gibbs_sweep(current, sample, stats, PRIOR, RngState(seed))
        assert sigma2_1 > 0.0 and math.isfinite(sigma2_1)
        assert sigma2_2 > 0.0 and math.isfinite(sigma2_2)


def test_run_chain_retention_counts():
    sample = make_sample([0.0, 1.0, 2.0], [3.0, 4.0])
    chain = run_chain(sample, ChainConfig(5001, 5000, 1, PRIOR))
    assert len(chain) == 1
    chain = run_chain(sample, ChainConfig(10_000, 5_000, 1, PRIOR))
    assert len(chain) == 5000


def test_run_chain_seed_contract():
    sample = make_sample([0.0, 1.0, 2.0], [3.0, 4.0])
    a = run_chain(sample, ChainConfig(500, 100, 42, PRIOR))
    b = run_chain(sample, ChainConfig(500, 100, 42, PRIOR))
    c = run_chain(sample, ChainConfig(500, 100, 43, PRIOR))
    assert np.array_equal(a.mu1, b.mu1) and np.array_equal(a.sigma2_2, b.sigma2_2)
    assert not np.array_equal(a.mu1, c.mu1)
    assert np.all(c.sigma2_1 > 0) and np.all(c.sigma2_2 > 0)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        ChainConfig(100, 100, 1, PRIOR)
    with pytest.raises(ConfigInvalid):
        ChainConfig(0, 0, 1, PRIOR)


def test_pinned_sigma2_mu_matches_conditional(monkeypatch):
    # with the variances pinned, successive mu draws are iid from the exact
    # normal conditional; check both with a KS test at the 1e-3 level. The
    # stub stands in for each sweep's two variance draws (sigma2_1, then
    # sigma2_2) and consumes no RNG words.
    sample = make_sample([4.2, 5.1, 4.8, 5.6, 4.4], [6.3, 5.9, 7.1, 6.5, 6.8])
    stats = compute_sufficient_stats(sample)
    prior = IndependencePrior(b0=5.0, B0=2.0, c0=1.0, C0=1.0)
    pin = (2.0, 3.0)
    pinned = itertools.cycle(pin)
    monkeypatch.setattr(gibbs, "sample_inverse_gamma", lambda rng, shape, scale: next(pinned))
    rng = RngState(1234)
    current = initial_draw(stats)
    mu1 = np.empty(100_000)
    mu2 = np.empty(100_000)
    for i in range(mu1.size):
        current = gibbs_sweep(current, sample, stats, prior, rng)
        mu1[i], mu2[i] = current[:2]
    for draws, sigma2, n, ybar in [(mu1, pin[0], stats.n1, stats.ybar1),
                                   (mu2, pin[1], stats.n2, stats.ybar2)]:
        b, B = mu_conditional_params(sigma2, n, ybar, prior)
        res = scipy.stats.kstest(draws, lambda x: scipy.stats.norm.cdf(x, loc=b, scale=math.sqrt(B)))
        assert res.pvalue > 1e-3


def test_translation_equivariance_wide_preset():
    rng = np.random.default_rng(11)
    g1, g2 = rng.normal(3, 1, 10), rng.normal(4, 2, 10)
    shift = 250.0

    base_sample = make_sample(g1, g2)
    shifted_sample = make_sample(g1 + shift, g2 + shift)
    base = run_chain(base_sample, ChainConfig(3000, 500, 99, realize_preset(PriorPreset("wide"), base_sample)))
    moved = run_chain(shifted_sample, ChainConfig(3000, 500, 99, realize_preset(PriorPreset("wide"), shifted_sample)))

    np.testing.assert_allclose(moved.mu1, base.mu1 + shift, rtol=1e-9)
    np.testing.assert_allclose(moved.mu2, base.mu2 + shift, rtol=1e-9)
    np.testing.assert_allclose(moved.sigma2_1, base.sigma2_1, rtol=1e-9)
    np.testing.assert_allclose(moved.sigma2_2, base.sigma2_2, rtol=1e-9)

    from mixtt.analysis import effect_size_series

    d_base = effect_size_series(base).deltas
    d_moved = effect_size_series(moved).deltas
    np.testing.assert_allclose(d_moved, d_base, rtol=1e-9, atol=1e-12)


def test_sweep_moments_match_quadrature():
    # 50k sweeps on a 5+5 dataset vs 2-D quadrature of the group-1 posterior,
    # within 3 batch-means standard errors on mean, variance, and covariance
    sample = make_sample([4.2, 5.1, 4.8, 5.6, 4.4], [6.3, 5.9, 7.1, 6.5, 6.8])
    prior = IndependencePrior(b0=5.5, B0=4.0, c0=3.0, C0=2.0)
    chain = run_chain(sample, ChainConfig(52_000, 2_000, 314159, prior))
    oracle = group_posterior_moments(sample.group1, prior)

    mean_mu, se_mean_mu = batch_mean_se(chain.mu1)
    var_mu, se_var_mu = batch_var_se(chain.mu1)
    mean_v, se_mean_v = batch_mean_se(chain.sigma2_1)
    cov, se_cov = batch_cov_se(chain.mu1, chain.sigma2_1)

    assert abs(mean_mu - oracle["mean_mu"]) <= 3 * se_mean_mu
    assert abs(var_mu - oracle["var_mu"]) <= 3 * se_var_mu
    assert abs(mean_v - oracle["mean_v"]) <= 3 * se_mean_v
    assert abs(cov - oracle["cov_mu_v"]) <= 3 * se_cov
