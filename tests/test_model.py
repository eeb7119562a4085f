import math

import numpy as np
import pytest

from mixtt.distributions import RngState
from mixtt.harness import Scenario, generate_dataset
from mixtt.model import (
    GroupedSample,
    IndependencePrior,
    PriorPreset,
    compute_sufficient_stats,
    pooled_sd,
    realize_preset,
)
from mixtt.welch import welch_t_test


def test_sample_validation():
    with pytest.raises(ValueError, match="one-dimensional"):
        GroupedSample([[1.0, 2.0]], [3.0])
    with pytest.raises(ValueError, match="at least one observation"):
        GroupedSample([1.0, 2.0], [])
    with pytest.raises(ValueError, match="at least one observation"):
        GroupedSample([], [1.0, 2.0])
    s = GroupedSample([1.0, 3.0], [2.0])
    assert list(s.values) == [1.0, 3.0, 2.0]
    assert (s.n1, s.n2) == (2, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GroupedSample([1.0, bad], [3.0, 4.0])


def test_sample_rejects_overflowing_squared_deviations():
    # every value is finite, but their squared deviations overflow to inf
    with pytest.raises(ValueError, match="overflows"):
        GroupedSample([1e200, 2e200], [1.0, 3.0])
    # numpy's pairwise sum adds rows 0 + 8 and 1 + 9 first, then inf + -inf: NaN, not a warning
    huge = np.zeros(16)
    huge[[0, 8]], huge[[1, 9]] = 1e308, -1e308
    with pytest.raises(ValueError, match="overflows"):
        GroupedSample(huge, [1.0, 3.0])
    # one group's sum overflows (its mean rounds off -1e300) while the pooled sum is exactly 0
    with pytest.raises(ValueError, match="overflows"):
        GroupedSample(np.full(5, -1e300), np.full(30, -1e300))


def test_from_labels_first_seen_is_group_one():
    s = GroupedSample.from_labels([10.0, 20.0, 30.0], ["treat", "ctrl", "treat"])
    assert list(s.group1) == [10.0, 30.0]
    assert list(s.group2) == [20.0]
    with pytest.raises(ValueError, match="more than two group labels"):
        GroupedSample.from_labels([1.0, 2.0, 3.0], ["a", "b", "c"])
    with pytest.raises(ValueError, match="length mismatch"):
        GroupedSample.from_labels([1.0, 2.0, 3.0], ["a", "b"])
    with pytest.raises(ValueError, match="at least one observation"):
        GroupedSample.from_labels([1.0, 2.0], ["a", "a"])


def test_sufficient_stats_hand_example():
    stats = compute_sufficient_stats(GroupedSample([1.0, 2.0, 3.0], [4.0, 6.0]))
    assert (stats.n1, stats.n2) == (3, 2)
    assert stats.ybar1 == pytest.approx(2.0, abs=1e-15)
    assert stats.ybar2 == pytest.approx(5.0, abs=1e-15)
    assert stats.s2y1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert stats.s2y2 == pytest.approx(1.0, abs=1e-15)


def test_sufficient_stats_constant_data():
    stats = compute_sufficient_stats(GroupedSample([7.5, 7.5], [7.5, 7.5]))
    assert stats.ybar1 == stats.ybar2 == 7.5
    assert stats.s2y1 == stats.s2y2 == 0.0


def test_sufficient_stats_null_scenario_scale():
    sample = generate_dataset(Scenario.named("null"), 300, RngState(404))
    stats = compute_sufficient_stats(sample)
    assert stats.n1 == stats.n2 == 300
    assert abs(stats.ybar1 - 148.3) < 3 * 1.34 / math.sqrt(300)
    assert abs(stats.ybar2 - 148.3) < 3 * 2.03 / math.sqrt(300)


def test_sufficient_stats_permutation_invariant():
    rng = np.random.default_rng(1)
    values = rng.normal(0, 1, 30)
    labels = rng.integers(1, 3, 30)
    labels[:2] = [1, 2]
    base = compute_sufficient_stats(GroupedSample.from_labels(values, labels))
    for _ in range(5):
        # row 0 stays first, so label 1 is still the first seen and still group 1
        perm = np.concatenate(([0], 1 + rng.permutation(29)))
        shuffled = compute_sufficient_stats(GroupedSample.from_labels(values[perm], labels[perm]))
        for field in ("n1", "n2"):
            assert getattr(shuffled, field) == getattr(base, field)
        for field in ("ybar1", "ybar2", "s2y1", "s2y2"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-12)


def test_translation_equivariance_of_stats():
    g1, g2 = [0.3, 1.9, -0.4], [2.2, 0.1]
    base = compute_sufficient_stats(GroupedSample(g1, g2))
    c = 17.25
    shifted = compute_sufficient_stats(GroupedSample([v + c for v in g1], [v + c for v in g2]))
    assert shifted.ybar1 == pytest.approx(base.ybar1 + c, rel=1e-12)
    assert shifted.ybar2 == pytest.approx(base.ybar2 + c, rel=1e-12)
    assert shifted.s2y1 == pytest.approx(base.s2y1, rel=1e-9, abs=1e-12)
    assert shifted.s2y2 == pytest.approx(base.s2y2, rel=1e-9, abs=1e-12)


def test_pooled_sd_examples():
    assert pooled_sd(1.0, 1.0, 10, 10) == 1.0
    for n in (5, 50, 300):
        assert pooled_sd(3.04**2, 2.36**2, n, n) == pytest.approx(2.7213232075591463, rel=1e-15)
    assert pooled_sd(4.0, 1.0, 3, 2) == pytest.approx(1.7320508075688772, rel=1e-15)


def test_pooled_sd_balanced_identity_exact():
    rng = np.random.default_rng(2)
    for _ in range(200):
        v1, v2 = rng.uniform(0.01, 9.0, 2)
        n = int(rng.integers(2, 500))
        assert pooled_sd(v1, v2, n, n) == math.sqrt((v1 + v2) / 2.0)


def test_pooled_sd_errors():
    with pytest.raises(ValueError, match=r"n1 \+ n2 >= 3"):
        pooled_sd(1.0, 1.0, 1, 1)
    with pytest.raises(ValueError, match="variances must be > 0"):
        pooled_sd(0.0, 1.0, 5, 5)


def test_prior_validation():
    with pytest.raises(ValueError, match="B0 must be > 0"):
        IndependencePrior(0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="c0 and C0 must be > 0"):
        IndependencePrior(0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_prior_rejects_non_finite_hyperparameters(position, bad):
    values = [0.0, 1.0, 1.0, 1.0]
    values[position] = bad
    with pytest.raises(ValueError, match="finite"):
        IndependencePrior(*values)


def test_preset_validation():
    with pytest.raises(ValueError):
        PriorPreset("vague")
    with pytest.raises(ValueError, match="unknown preset kind 'custom'"):
        PriorPreset("custom")


def test_realize_preset_table():
    # sample with pooled mean 10 and pooled variance 4
    sample = GroupedSample([8.0, 10.0], [12.0])
    assert float(sample.values.mean()) == 10.0
    assert float(sample.values.var(ddof=1)) == 4.0

    wide = realize_preset(PriorPreset("wide"), sample)
    assert (wide.b0, wide.B0, wide.c0, wide.C0) == (10.0, 40.0, 0.01, 0.01)
    medium = realize_preset(PriorPreset("medium"), sample)
    assert (medium.b0, medium.B0, medium.c0, medium.C0) == (10.0, 20.0, 0.1, 0.1)
    narrow = realize_preset(PriorPreset("narrow"), sample)
    assert (narrow.b0, narrow.B0, narrow.c0, narrow.C0) == (10.0, 4.0, 1.0, 1.0)

    # wide and medium may differ only in B0, c0, C0
    assert wide.b0 == medium.b0


# (n1, n2, location, scale): unbalanced sizes from 2 to a few thousand, scales
# from 1e-6 to 1e6, and the medium scenario's offset of ~255 with sd 2-3
@pytest.mark.parametrize(
    "n1, n2, loc, scale",
    [
        (2, 3, 0.0, 1.0),
        (7, 2, 0.5, 1e-6),
        (40, 900, -3.0, 1e6),
        (3000, 17, 1e3, 1e-3),
        (1234, 2345, 0.0, 1e6),
        (100, 100, 255.0, 2.0),
        (230, 470, 255.0, 3.0),
        (2500, 2, 254.08, 2.36),
    ],
)
def test_moments_match_numpy_bit_for_bit(n1, n2, loc, scale):
    rng = np.random.default_rng(n1 * 10_007 + n2)
    g1 = rng.normal(loc, scale, n1)
    g2 = rng.normal(loc + scale, 1.3 * scale, n2)
    sample = GroupedSample(g1, g2)

    stats = compute_sufficient_stats(sample)
    assert (stats.ybar1, stats.ybar2) == (g1.mean(), g2.mean())
    assert stats.s2y1 == np.mean((g1 - g1.mean()) ** 2)
    assert stats.s2y2 == np.mean((g2 - g2.mean()) ** 2)

    values = np.concatenate((g1, g2))
    for kind, mult in {"wide": 10.0, "medium": 5.0, "narrow": 1.0}.items():
        prior = realize_preset(PriorPreset(kind), sample)
        assert (prior.b0, prior.B0) == (values.mean(), mult * values.var(ddof=1))

    q1, q2 = float(g1.var(ddof=1)) / n1, float(g2.var(ddof=1)) / n2
    se2 = q1 + q2
    k = math.frexp(se2)[1]
    r1, r2 = math.ldexp(q1, -k), math.ldexp(q2, -k)
    df = (r1 + r2) ** 2 / (r1**2 / (n1 - 1) + r2**2 / (n2 - 1))
    welch = welch_t_test(sample)
    assert welch.t_statistic == (float(g1.mean()) - float(g2.mean())) / se2**0.5
    assert welch.df == df


def test_realize_preset_degenerate_data():
    with pytest.raises(ValueError, match="pooled sample variance is zero"):
        realize_preset(PriorPreset("wide"), GroupedSample([3.0, 3.0], [3.0, 3.0]))


def test_realize_preset_translation():
    rng = np.random.default_rng(3)
    g1, g2 = rng.normal(0, 1, 12), rng.normal(1, 2, 12)
    base = realize_preset(PriorPreset("wide"), GroupedSample(g1, g2))
    shifted = realize_preset(PriorPreset("wide"), GroupedSample(g1 + 5.0, g2 + 5.0))
    assert shifted.b0 == pytest.approx(base.b0 + 5.0, rel=1e-12)
    assert shifted.B0 == pytest.approx(base.B0, rel=1e-9)
