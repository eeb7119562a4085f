import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from _oracles import ks_distance

from mixtt.distributions import (
    RngState,
    derive_seed,
    regularized_incomplete_beta,
    sample_gamma,
    sample_inverse_gamma,
    sample_normal,
    standard_normal,
)
from mixtt.errors import NonPositiveParameter, NonPositiveVariance


def test_same_seed_same_stream():
    a = RngState(987654321)
    b = RngState(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_different_streams():
    a = RngState(1)
    b = RngState(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_random_unit_is_open_interval():
    rng = RngState(3)
    us = [rng.random_unit() for _ in range(10_000)]
    assert all(0.0 < u < 1.0 for u in us)


def test_derive_seed_distinct_and_deterministic():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    with pytest.raises(ValueError):
        derive_seed(42, -1)


def test_normal_deterministic_sequence():
    a = RngState(11)
    b = RngState(11)
    xs = [sample_normal(a, 1.5, 2.0) for _ in range(50)]
    ys = [sample_normal(b, 1.5, 2.0) for _ in range(50)]
    assert xs == ys


def test_normal_degenerate_variance_collapses_to_mean():
    rng = RngState(5)
    for _ in range(100):
        assert abs(sample_normal(rng, 3.25, 1e-300) - 3.25) < 1e-6


def test_normal_rejects_bad_variance():
    with pytest.raises(NonPositiveVariance):
        sample_normal(RngState(0), 0.0, 0.0)
    with pytest.raises(NonPositiveVariance):
        sample_normal(RngState(0), 0.0, -1.0)


def test_normal_moments_quick():
    rng = RngState(17)
    xs = np.array([standard_normal(rng) for _ in range(100_000)])
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - 1.0) < 0.03


def test_normal_ks_against_analytic_cdf():
    rng = RngState(23)
    xs = [sample_normal(rng, 0.0, 1.0) for _ in range(100_000)]
    assert ks_distance(xs, scipy.stats.norm.cdf) <= 0.01


def test_stream_splitting_marginals():
    for idx in range(3):
        rng = RngState(derive_seed(99, idx))
        xs = [sample_normal(rng, 0.0, 1.0) for _ in range(100_000)]
        assert ks_distance(xs, scipy.stats.norm.cdf) <= 0.01


def test_inverse_gamma_strictly_positive():
    rng = RngState(31)
    assert all(sample_inverse_gamma(rng, 25.01, 10.0) > 0.0 for _ in range(20_000))


def test_inverse_gamma_moments_quick():
    # IG(3, 2): mean C/(c-1) = 1, variance C^2/((c-1)^2 (c-2)) = 1
    rng = RngState(37)
    xs = np.array([sample_inverse_gamma(rng, 3.0, 2.0) for _ in range(200_000)])
    assert abs(xs.mean() - 1.0) < 0.02
    assert xs.min() > 0.0


def test_gamma_small_shape_boost():
    # Gamma(0.51, 1): mean = 0.51, only reachable through the shape<1 branch
    rng = RngState(41)
    xs = np.array([sample_gamma(rng, 0.51, 1.0) for _ in range(200_000)])
    assert abs(xs.mean() - 0.51) < 0.01
    assert xs.min() > 0.0


def test_gamma_ks_against_scipy_cdf():
    rng = RngState(43)
    for shape in (0.7, 1.0, 2.5, 25.01):
        xs = [sample_gamma(rng, shape, 1.0) for _ in range(50_000)]
        assert ks_distance(xs, lambda x: scipy.stats.gamma.cdf(x, shape)) <= 0.012


def test_gamma_rejects_bad_parameters():
    for shape, rate in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]:
        with pytest.raises(NonPositiveParameter):
            sample_gamma(RngState(0), shape, rate)
    with pytest.raises(NonPositiveParameter):
        sample_inverse_gamma(RngState(0), 1.0, -2.0)


def t_cdf(t, df):
    # Student-t CDF from the two-sided tail I_x(df/2, 1/2), x = df / (df + t^2),
    # the form welch.py uses for its p-value
    half_tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
    return 1.0 - half_tail if t > 0.0 else half_tail


def test_t_cdf_at_zero():
    for df in (0.5, 1.0, 2.0, 10.0, 123.4):
        assert t_cdf(0.0, df) == 0.5


def test_t_cdf_df2_closed_form():
    # P(T <= t) = 1/2 + t / (2 sqrt(2 + t^2)) for two degrees of freedom
    assert t_cdf(-math.sqrt(2.0), 2.0) == pytest.approx(0.1464466094067262, abs=1e-12)
    for t in (-3.7, -0.4, 0.9, 2.2):
        closed = 0.5 + t / (2.0 * math.sqrt(2.0 + t * t))
        assert t_cdf(t, 2.0) == pytest.approx(closed, abs=1e-12)


def test_t_cdf_against_quadrature():
    # oracle: numerical integration of the t density, frozen for (1.812, 10)
    assert t_cdf(1.812, 10.0) == pytest.approx(0.9499623689670573, abs=1e-8)

    from scipy.integrate import quad

    def tpdf(x, df):
        c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    for t, df in [(-2.3, 3.7), (0.4, 1.0), (4.1, 25.01), (-0.17, 100.0)]:
        # integrate the symmetric density from 0 so heavy tails cost nothing
        body, err = quad(tpdf, 0.0, abs(t), args=(df,), limit=300)
        assert err < 1e-10
        target = 0.5 + body if t > 0 else 0.5 - body
        assert t_cdf(t, df) == pytest.approx(target, abs=1e-8)


def test_t_cdf_monotone_and_symmetric():
    grid = np.linspace(-8.0, 8.0, 201)
    for df in (0.8, 2.0, 9.5, 60.0):
        vals = [t_cdf(float(t), df) for t in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for t in grid:
            s = t_cdf(float(t), df) + t_cdf(float(-t), df)
            assert abs(s - 1.0) <= 1e-10


def test_t_cdf_rejects_bad_df():
    # df = 0 reaches the incomplete beta as the shape a = df/2 = 0
    with pytest.raises(NonPositiveParameter):
        t_cdf(1.0, 0.0)


def test_incomplete_beta_matches_scipy():
    for a in (0.5, 1.0, 5.0, 12.505):
        for b in (0.5, 2.0, 7.3):
            for x in (0.001, 0.2, 0.5, 0.8, 0.999):
                mine = regularized_incomplete_beta(a, b, x)
                ref = scipy.special.betainc(a, b, x)
                assert mine == pytest.approx(ref, abs=1e-12)
