import math

import numpy as np
import pytest

from mixtt.distributions import RngState
from mixtt.errors import DegenerateData, EmptyGroup, InsufficientSize, NonPositiveParameter, NonPositiveVariance
from mixtt.harness import Scenario, generate_dataset
from mixtt.model import (
    GroupedSample,
    IndependencePrior,
    PriorPreset,
    compute_sufficient_stats,
    pooled_sd,
    realize_preset,
)


def make_sample(g1, g2):
    return GroupedSample(list(g1) + list(g2), [1] * len(g1) + [2] * len(g2))


def test_sample_validation():
    with pytest.raises(ValueError):
        GroupedSample([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        GroupedSample([1.0, 2.0], [1, 3])
    with pytest.raises(EmptyGroup):
        GroupedSample([1.0, 2.0], [1, 1])


def test_sample_rejects_fractional_allocations():
    with pytest.raises(ValueError, match=r"\[1\.7, 2\.2\]"):
        GroupedSample([1.0, 2.0, 3.0], [1.7, 2.2, 1.0])
    # integer-valued floats are still labels 1 and 2
    s = GroupedSample([1.0, 2.0, 3.0], [1.0, 2.0, 1.0])
    assert list(s.group1) == [1.0, 3.0] and list(s.group2) == [2.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        GroupedSample([1.0, bad, 3.0, 4.0], [1, 1, 2, 2])


def test_from_labels_first_seen_is_group_one():
    s = GroupedSample.from_labels([10.0, 20.0, 30.0], ["treat", "ctrl", "treat"])
    assert list(s.group1) == [10.0, 30.0]
    assert list(s.group2) == [20.0]
    with pytest.raises(ValueError):
        GroupedSample.from_labels([1.0, 2.0, 3.0], ["a", "b", "c"])


def test_sufficient_stats_hand_example():
    stats = compute_sufficient_stats(make_sample([1.0, 2.0, 3.0], [4.0, 6.0]))
    assert (stats.n1, stats.n2) == (3, 2)
    assert stats.ybar1 == pytest.approx(2.0, abs=1e-15)
    assert stats.ybar2 == pytest.approx(5.0, abs=1e-15)
    assert stats.s2y1 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert stats.s2y2 == pytest.approx(1.0, abs=1e-15)


def test_sufficient_stats_constant_data():
    stats = compute_sufficient_stats(make_sample([7.5, 7.5], [7.5, 7.5]))
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
    alloc = rng.integers(1, 3, 30)
    alloc[:2] = [1, 2]
    base = compute_sufficient_stats(GroupedSample(values, alloc))
    for _ in range(5):
        perm = rng.permutation(30)
        shuffled = compute_sufficient_stats(GroupedSample(values[perm], alloc[perm]))
        for field in ("n1", "n2"):
            assert getattr(shuffled, field) == getattr(base, field)
        for field in ("ybar1", "ybar2", "s2y1", "s2y2"):
            assert getattr(shuffled, field) == pytest.approx(getattr(base, field), rel=1e-12)


def test_translation_equivariance_of_stats():
    g1, g2 = [0.3, 1.9, -0.4], [2.2, 0.1]
    base = compute_sufficient_stats(make_sample(g1, g2))
    c = 17.25
    shifted = compute_sufficient_stats(make_sample([v + c for v in g1], [v + c for v in g2]))
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
    with pytest.raises(InsufficientSize):
        pooled_sd(1.0, 1.0, 1, 1)
    with pytest.raises(NonPositiveVariance):
        pooled_sd(0.0, 1.0, 5, 5)


def test_prior_validation():
    with pytest.raises(NonPositiveParameter):
        IndependencePrior(0.0, -1.0, 1.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        IndependencePrior(0.0, 1.0, 0.0, 1.0)


def test_preset_validation():
    with pytest.raises(ValueError):
        PriorPreset("vague")
    with pytest.raises(ValueError):
        PriorPreset("wide", IndependencePrior(0, 1, 1, 1))
    with pytest.raises(ValueError):
        PriorPreset("custom")


def test_realize_preset_table():
    # sample with pooled mean 10 and pooled variance 4
    sample = make_sample([8.0, 10.0], [12.0])
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


def test_realize_preset_custom_passthrough():
    prior = IndependencePrior(1.0, 2.0, 3.0, 4.0)
    sample = make_sample([5.0, 5.0], [5.0])  # degenerate data must not matter
    assert realize_preset(PriorPreset("custom", prior), sample) is prior


def test_realize_preset_degenerate_data():
    with pytest.raises(DegenerateData):
        realize_preset(PriorPreset("wide"), make_sample([3.0, 3.0], [3.0, 3.0]))


def test_realize_preset_translation():
    rng = np.random.default_rng(3)
    g1, g2 = rng.normal(0, 1, 12), rng.normal(1, 2, 12)
    base = realize_preset(PriorPreset("wide"), make_sample(g1, g2))
    shifted = realize_preset(PriorPreset("wide"), make_sample(g1 + 5.0, g2 + 5.0))
    assert shifted.b0 == pytest.approx(base.b0 + 5.0, rel=1e-12)
    assert shifted.B0 == pytest.approx(base.B0, rel=1e-9)
