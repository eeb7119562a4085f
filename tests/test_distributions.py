import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from _oracles import ks_distance

from mixtt.distributions import (
    ZIGGURAT_R,
    ZIGGURAT_X,
    RngState,
    _normal_tail,
    derive_seed,
    regularized_incomplete_beta,
    sample_inverse_gamma,
    sample_normal,
    standard_normal,
)


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


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2-to-64"])
@pytest.mark.parametrize("make", [RngState, lambda seed: derive_seed(seed, 0)], ids=["RngState", "derive_seed"])
def test_seed_outside_the_range_is_rejected(make, seed):
    # each seed names its own stream, so -1 must not alias 2**64 - 1 (nor 2**64 alias 0)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), got " + str(seed)):
        make(seed)


def test_a_non_integer_seed_is_a_type_error():
    with pytest.raises(TypeError):
        RngState(1.5)
    with pytest.raises(TypeError):
        derive_seed(1.0, 0)
    # a bool is an int, but True would otherwise name seed 1's stream
    with pytest.raises(TypeError, match="bool"):
        RngState(True)
    with pytest.raises(TypeError, match="bool"):
        derive_seed(False, 0)


def test_the_largest_seed_is_valid():
    top = 2**64 - 1
    assert RngState(top).state_words() != RngState(0).state_words()
    assert 0 <= derive_seed(top, 0) < 2**64


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
    with pytest.raises(ValueError):
        sample_normal(RngState(0), 0.0, 0.0)
    with pytest.raises(ValueError):
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


@pytest.fixture(scope="module")
def many_normals():
    # Off the one-word fast path, a ziggurat draw goes through a layer's wedge or
    # layer 0's tail beyond ZIGGURAT_R (about 1 draw in 1,700), where the
    # whole-distribution tests above have little power
    rng = RngState(29)
    return np.array([standard_normal(rng) for _ in range(1_500_000)])


def _tail_cdf(t):
    """CDF of |Z| given |Z| > ZIGGURAT_R, for Z ~ N(0, 1)."""
    return 1.0 - scipy.stats.norm.sf(t) / scipy.stats.norm.sf(ZIGGURAT_R)


def test_normal_tail_beyond_the_ziggurat_base_layer(many_normals):
    tail = np.abs(many_normals[np.abs(many_normals) > ZIGGURAT_R])
    expected = many_normals.size * 2.0 * scipy.stats.norm.sf(ZIGGURAT_R)
    assert abs(tail.size - expected) <= 4.0 * math.sqrt(expected)
    positive = np.sum(many_normals > ZIGGURAT_R)
    assert abs(2 * positive - tail.size) <= 4.0 * math.sqrt(tail.size)
    assert scipy.stats.kstest(tail, _tail_cdf).pvalue >= 1e-3
    # the tail sampler alone, with the power to see a missing rejection step
    rng = RngState(31)
    assert scipy.stats.kstest([_normal_tail(rng) for _ in range(50_000)], _tail_cdf).pvalue >= 1e-3


def test_normal_mass_in_each_ziggurat_strip(many_normals):
    # strip k holds |x| in [x[k+1], x[k]), where layer k's wedge lies; a wedge
    # test that accepts too much or too little moves mass between strips
    edges = np.array([*ZIGGURAT_X[:0:-1], math.inf])
    observed = np.histogram(np.abs(many_normals), edges)[0]
    expected = many_normals.size * np.diff(2.0 * scipy.stats.norm.cdf(edges) - 1.0)
    assert scipy.stats.chisquare(observed, expected).pvalue >= 1e-3


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
    # the reciprocal of an IG(0.51, 1) draw is Gamma(0.51, 1), mean 0.51;
    # only reachable through the shape<1 branch
    rng = RngState(41)
    xs = 1.0 / np.array([sample_inverse_gamma(rng, 0.51, 1.0) for _ in range(200_000)])
    assert abs(xs.mean() - 0.51) < 0.01
    assert xs.min() > 0.0


def test_gamma_ks_against_scipy_cdf():
    # reciprocals of IG(shape, 1) draws against the Gamma(shape, 1) CDF
    rng = RngState(43)
    for shape in (0.7, 1.0, 2.5, 25.01):
        xs = [1.0 / sample_inverse_gamma(rng, shape, 1.0) for _ in range(50_000)]
        assert ks_distance(xs, lambda x: scipy.stats.gamma.cdf(x, shape)) <= 0.012


def test_gamma_rejects_bad_parameters():
    bad = [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]
    bad += [(x, 1.0) for x in (math.inf, math.nan)] + [(1.0, x) for x in (math.inf, math.nan)]
    for shape, scale in bad:
        with pytest.raises(ValueError):
            sample_inverse_gamma(RngState(0), shape, scale)


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
    with pytest.raises(ValueError):
        t_cdf(1.0, 0.0)


def test_incomplete_beta_converges_at_welch_arguments():
    # df from 1 to 1e8 and t from 1e-10 to 1e160, where t * t overflows and x = 0
    for k in range(33):
        df = 10 ** (k / 4)
        for j in range(-20, 321, 2):
            t = 10 ** (j / 2)
            p = regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
            assert 0.0 <= p <= 1.0
            if t * t == math.inf:
                assert p == 0.0


def test_incomplete_beta_matches_scipy():
    for a in (0.5, 1.0, 5.0, 12.505):
        for b in (0.5, 2.0, 7.3):
            for x in (0.001, 0.2, 0.5, 0.8, 0.999):
                mine = regularized_incomplete_beta(a, b, x)
                ref = scipy.special.betainc(a, b, x)
                assert mine == pytest.approx(ref, abs=1e-12)
