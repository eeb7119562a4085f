import math

import numpy as np
import pytest
from _oracles import shortest_covering_interval

from mixtt.analysis import (
    DECISION_ACCEPTED,
    DECISION_INDETERMINATE,
    DECISION_REJECTED,
    ERROR_NONE,
    ERROR_TYPE_I,
    ERROR_TYPE_II,
    DecisionOutcome,
    EffectSizeDraws,
    RopePartition,
    alpha_decision,
    classify_error,
    cohen_partition,
    delta_mpe,
    effect_size_series,
    hpd_interval,
    pmp,
    posterior_mode,
)
from mixtt.distributions import RngState, sample_normal
from mixtt.errors import DegenerateDraws, InsufficientSize, InvalidLevel
from mixtt.gibbs import ChainConfig, PosteriorChain, run_chain
from mixtt.model import GroupedSample, IndependencePrior, SufficientStats


def chain_of(mu1, mu2, s1, s2, n1=10, n2=10):
    """Hand-built chain for exercising the effect-size transform."""
    stats = SufficientStats(n1=n1, n2=n2, ybar1=0.0, ybar2=0.0, s2y1=1.0, s2y2=1.0)
    arr = lambda x: np.asarray(x, dtype=float)
    return PosteriorChain(arr(mu1), arr(mu2), arr(s1), arr(s2), stats)


def test_effect_size_unit_pooled_sd():
    draws = effect_size_series(chain_of([1.0], [0.0], [1.0], [1.0]))
    assert draws.deltas[0] == 1.0


def test_effect_size_equal_means_is_zero():
    draws = effect_size_series(chain_of([2.5], [2.5], [0.7], [3.1]))
    assert draws.deltas[0] == 0.0


def test_effect_size_medium_scenario_value():
    chain = chain_of([255.84], [254.08], [3.04**2], [2.36**2], n1=7, n2=7)
    assert abs(effect_size_series(chain).deltas[0]) == pytest.approx(0.6467, abs=1e-4)
    # frozen hand value of the same expression
    assert effect_size_series(chain).deltas[0] == pytest.approx(0.6467441997007768, rel=1e-12)


def test_effect_size_direction_flag():
    chain = chain_of([1.0, 2.0], [0.0, 0.5], [1.0, 1.0], [1.0, 1.0])
    fwd = effect_size_series(chain, direction="g1-g2").deltas
    rev = effect_size_series(chain, direction="g2-g1").deltas
    np.testing.assert_array_equal(fwd, -rev)
    with pytest.raises(ValueError):
        effect_size_series(chain, direction="sideways")


def test_effect_size_requires_three_observations():
    with pytest.raises(InsufficientSize):
        effect_size_series(chain_of([1.0], [0.0], [1.0], [1.0], n1=1, n2=1))


def test_delta_mpe():
    assert delta_mpe(EffectSizeDraws(np.array([0.1, 0.2, 0.3]))) == pytest.approx(0.2)
    assert delta_mpe(EffectSizeDraws(np.array([0.7]))) == 0.7


def test_effect_size_draws_validation():
    with pytest.raises(ValueError):
        EffectSizeDraws(np.array([]))
    with pytest.raises(ValueError):
        EffectSizeDraws(np.array([1.0, np.inf]))


def test_posterior_mode_symmetric():
    mode = posterior_mode(np.array([-1.0, 0.0, 0.0, 1.0]))
    assert abs(mode) <= 2.0 / 511.0  # grid resolution over [-1, 1]


def test_posterior_mode_normal_draws():
    rng = RngState(2024)
    draws = np.array([sample_normal(rng, 2.0, 1.0) for _ in range(100_000)])
    assert posterior_mode(draws) == pytest.approx(2.0, abs=0.05)


def test_posterior_mode_degenerate():
    with pytest.raises(DegenerateDraws):
        posterior_mode(np.array([1.0, 1.0, 1.0]))


def test_hpd_constant_draws():
    interval = hpd_interval(np.full(50, 3.14), 0.95)
    assert (interval.lower, interval.upper) == (3.14, 3.14)


def test_hpd_uniform_grid_tie_break():
    interval = hpd_interval(np.arange(100.0), 0.5)
    assert (interval.lower, interval.upper) == (0.0, 49.0)


def test_hpd_level_one_is_full_range():
    draws = np.array([5.0, -2.0, 3.3, 0.1])
    interval = hpd_interval(draws, 1.0)
    assert (interval.lower, interval.upper) == (-2.0, 5.0)


def test_hpd_invalid_level():
    for level in (0.0, -0.5, 1.01):
        with pytest.raises(InvalidLevel):
            hpd_interval(np.array([1.0, 2.0]), level)


def test_hpd_width_monotone_in_level():
    rng = np.random.default_rng(8)
    draws = rng.normal(0, 1, 4000)
    widths = []
    for level in (0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0):
        interval = hpd_interval(draws, level)
        widths.append(interval.upper - interval.lower)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_hpd_window_holds_enough_draws():
    rng = np.random.default_rng(9)
    for _ in range(20):
        draws = rng.standard_t(df=3, size=int(rng.integers(5, 400)))
        level = float(rng.uniform(0.05, 1.0))
        interval = hpd_interval(draws, level)
        inside = np.count_nonzero((draws >= interval.lower) & (draws <= interval.upper))
        assert inside >= math.ceil(level * draws.size)


def test_hpd_matches_enumeration_oracle():
    grid = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
    rng = np.random.default_rng(10)
    for _ in range(300):
        m = int(rng.integers(2, 12))
        draws = rng.choice(grid, size=m)
        for level in (0.3, 0.6, 0.95, 1.0):
            interval = hpd_interval(draws, level)
            assert (interval.lower, interval.upper) == shortest_covering_interval(draws, level)


def test_cohen_partition_cells():
    part = cohen_partition()
    assert part.locate(0.0) == "none"
    assert part.locate(0.5) == "medium"  # boundaries are lower-closed
    assert part.locate(-0.35) == "small-negative"
    assert part.locate(0.2) == "small"
    assert part.locate(-0.8) == "medium-negative"
    assert part.locate(100.0) == "large"
    assert part.locate(-100.0) == "large-negative"


def test_partition_validation():
    inf = math.inf
    with pytest.raises(ValueError):
        RopePartition((("a", -inf, 0.0), ("b", 0.5, inf)))  # gap
    with pytest.raises(ValueError):
        RopePartition((("a", -1.0, 0.0), ("b", 0.0, 1.0)))  # finite ends


def test_partition_masses_cover_everything():
    rng = np.random.default_rng(12)
    draws = rng.normal(0, 2, 5001)
    masses = cohen_partition().cell_masses(draws)
    counts = [round(v * draws.size) for v in masses.values()]
    assert sum(counts) == draws.size
    assert math.fsum(masses.values()) == pytest.approx(1.0, abs=1e-12)


def test_pmp_examples():
    part = cohen_partition()
    assert pmp(np.zeros(100), part) == ("none", 1.0)
    assert pmp(np.array([-0.3, -0.1, 0.1, 0.3]), part) == ("none", 0.5)


def test_pmp_sign_flip_mirrors_cells():
    rng = np.random.default_rng(13)
    draws = rng.normal(0.4, 0.3, 2000)
    part = cohen_partition()
    label, mass = pmp(draws, part)
    flipped_label, flipped_mass = pmp(-draws, part)
    mirror = {"small": "small-negative", "medium": "medium-negative", "large": "large-negative",
              "none": "none"}
    assert flipped_label == mirror[label]
    assert flipped_mass == pytest.approx(mass, abs=1e-12)


def test_sign_flip_negates_mpe_and_mirrors_hpd():
    rng = np.random.default_rng(14)
    draws = rng.normal(0.7, 0.2, 3001)
    assert delta_mpe(-draws) == -delta_mpe(draws)
    fwd = hpd_interval(draws, 0.9)
    rev = hpd_interval(-draws, 0.9)
    assert rev.lower == -fwd.upper
    assert rev.upper == -fwd.lower


def test_alpha_decision_containment_cases():
    rope = (-0.2, 0.2)
    accepted = alpha_decision(np.linspace(0.0, 0.1, 50), rope, 1.0)
    assert accepted.status == DECISION_ACCEPTED
    rejected = alpha_decision(np.linspace(0.3, 0.5, 50), rope, 1.0)
    assert rejected.status == DECISION_REJECTED
    partial = alpha_decision(np.linspace(0.1, 0.3, 50), rope, 1.0)
    assert partial.status == DECISION_INDETERMINATE
    strict = alpha_decision(np.linspace(0.1, 0.3, 50), rope, 1.0, strict=True)
    assert strict.status == DECISION_REJECTED


def test_alpha_decision_union_rope():
    rope = ((-0.5, -0.2), (0.2, 0.5))
    assert alpha_decision(np.linspace(0.25, 0.45, 40), rope, 1.0).status == DECISION_ACCEPTED
    assert alpha_decision(np.linspace(-0.1, 0.1, 40), rope, 1.0).status == DECISION_REJECTED
    assert alpha_decision(np.linspace(-0.3, 0.3, 40), rope, 1.0).status == DECISION_INDETERMINATE


def test_alpha_decision_invalid_level():
    with pytest.raises(InvalidLevel):
        alpha_decision(np.array([0.0, 1.0]), (-0.2, 0.2), 0.0)


def test_classify_error_definitions():
    rope = (-0.2, 0.2)
    rejected = DecisionOutcome(DECISION_REJECTED, 0.95)
    accepted = DecisionOutcome(DECISION_ACCEPTED, 0.95)
    indeterminate = DecisionOutcome(DECISION_INDETERMINATE, 0.95)
    assert classify_error(0.0, rope, rejected) == ERROR_TYPE_I
    assert classify_error(1.03, rope, accepted) == ERROR_TYPE_II
    assert classify_error(0.0, rope, accepted) == ERROR_NONE
    assert classify_error(0.0, rope, indeterminate) == ERROR_NONE
    assert classify_error(1.03, rope, rejected) == ERROR_NONE


def test_mode_matches_kitchen_sink_chain():
    # end to end: mode and mean summarize the same unimodal posterior closely
    sample = GroupedSample(
        list(np.linspace(-1, 1, 30)) + list(np.linspace(0, 2, 30)), [1] * 30 + [2] * 30
    )
    prior = IndependencePrior(0.0, 10.0, 1.0, 1.0)
    chain = run_chain(sample, ChainConfig(6000, 1000, 6, prior))
    draws = effect_size_series(chain, direction="g2-g1")
    assert posterior_mode(draws) == pytest.approx(delta_mpe(draws), abs=0.1)
