import numpy as np
import pytest
import scipy.stats

from mixtt.errors import DegenerateData, InsufficientSize
from mixtt.model import GroupedSample
from mixtt.welch import welch_t_test


def make_sample(g1, g2):
    return GroupedSample(list(g1) + list(g2), [1] * len(g1) + [2] * len(g2))


def test_identical_groups():
    res = welch_t_test(make_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))
    assert res.t_statistic == 0.0
    assert res.p_value == 1.0


def test_two_point_groups_closed_form():
    res = welch_t_test(make_sample([0.0, 1.0], [1.0, 2.0]))
    assert res.t_statistic == pytest.approx(-1.4142135623730951, rel=1e-12)
    assert res.df == pytest.approx(2.0, rel=1e-12)
    assert res.p_value == pytest.approx(0.2928932188134524, abs=1e-10)


def test_matches_scipy_on_random_data():
    rng = np.random.default_rng(20)
    for _ in range(25):
        g1 = rng.normal(0, 1, int(rng.integers(3, 40)))
        g2 = rng.normal(0.4, 2.0, int(rng.integers(3, 40)))
        mine = welch_t_test(make_sample(g1, g2))
        ref = scipy.stats.ttest_ind(g1, g2, equal_var=False)
        assert mine.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "t, n, scale",
    [(9.0, 50_001, 1.0), (0.3, 3, 1.0), (-1.7, 8, 2.0), (2.4, 16, 1.0), (5.0, 126, 3.0), (-12.0, 5, 1.0)],
)
def test_p_value_keeps_tail_precision(t, n, scale):
    # two standardized groups of size n, the second scaled and shifted so the
    # statistic lands at t; (9, 50_001) gives df = 1e5, where 2*(1 - cdf)
    # would round to 0
    z = np.random.default_rng(24).normal(0, 1, n)
    z = (z - z.mean()) / z.std(ddof=1)
    shift = t * np.sqrt((1.0 + scale * scale) / n)
    res = welch_t_test(make_sample(z, scale * z - shift))
    assert res.t_statistic == pytest.approx(t, rel=1e-9)
    ref = 2.0 * scipy.stats.t.sf(abs(res.t_statistic), res.df)
    assert ref > 0.0
    assert res.p_value == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_translation_invariance():
    rng = np.random.default_rng(21)
    g1, g2 = rng.normal(0, 1, 15), rng.normal(1, 3, 20)
    base = welch_t_test(make_sample(g1, g2))
    moved = welch_t_test(make_sample(g1 + 1234.5, g2 + 1234.5))
    assert moved.t_statistic == pytest.approx(base.t_statistic, rel=1e-12)
    assert moved.df == pytest.approx(base.df, rel=1e-12)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(22)
    g1, g2 = rng.normal(0, 1, 15), rng.normal(1, 3, 20)
    base = welch_t_test(make_sample(g1, g2))
    scaled = welch_t_test(make_sample(g1 * 7.25, g2 * 7.25))
    assert scaled.t_statistic == pytest.approx(base.t_statistic, rel=1e-12)
    assert scaled.df == pytest.approx(base.df, rel=1e-12)
    assert scaled.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_antisymmetry_under_label_swap():
    rng = np.random.default_rng(23)
    g1, g2 = rng.normal(0, 1, 12), rng.normal(0.5, 2, 18)
    fwd = welch_t_test(make_sample(g1, g2))
    rev = welch_t_test(make_sample(g2, g1))
    assert rev.t_statistic == pytest.approx(-fwd.t_statistic, rel=1e-12)
    assert rev.df == pytest.approx(fwd.df, rel=1e-12)
    assert rev.p_value == pytest.approx(fwd.p_value, rel=1e-12)


def test_one_zero_variance_group_is_fine():
    res = welch_t_test(make_sample([1.0, 1.0, 1.0], [2.0, 3.0, 4.0]))
    assert res.p_value < 0.2
    # the other group's squared standard error underflows without a rescale
    assert welch_t_test(make_sample([0.0, 1e-150, 2e-150], [1.0, 1.0, 1.0])).df == 2.0


def test_power_of_two_scale_is_exact():
    # scaling by 2**-400 is exact, and squares of the scaled standard errors
    # would underflow; the result must not change at all
    rng = np.random.default_rng(25)
    g1, g2 = rng.normal(0, 1, 9), rng.normal(1, 3, 14)
    factor = 2.0**-400
    assert welch_t_test(make_sample(g1 * factor, g2 * factor)) == welch_t_test(make_sample(g1, g2))


def test_errors():
    with pytest.raises(InsufficientSize):
        welch_t_test(make_sample([1.0], [2.0, 3.0]))
    with pytest.raises(DegenerateData):
        welch_t_test(make_sample([1.0, 1.0], [2.0, 2.0]))
