import math

import numpy as np
import pytest
from _oracles import density_grid_broadcast, shortest_covering_interval

from mixtt.analysis import (
    DECISION_ACCEPTED,
    DECISION_INDETERMINATE,
    DECISION_REJECTED,
    ERROR_NONE,
    ERROR_TYPE_I,
    ERROR_TYPE_II,
    HpdInterval,
    alpha_decision,
    classify_error,
    cohen_partition,
    delta_mpe,
    density_grid,
    effect_size_series,
    hpd_decision,
    hpd_interval,
    pmp,
    posterior_mode,
)
from mixtt.distributions import RngState, sample_normal
from mixtt.gibbs import ChainConfig, PosteriorChain, run_chain
from mixtt.model import GroupedSample, IndependencePrior, SufficientStats


def chain_of(mu1, mu2, s1, s2, n1=10, n2=10):
    """Hand-built chain for exercising the effect-size transform."""
    stats = SufficientStats(n1=n1, n2=n2, ybar1=0.0, ybar2=0.0, s2y1=1.0, s2y2=1.0)
    arr = lambda x: np.asarray(x, dtype=float)
    return PosteriorChain(arr(mu1), arr(mu2), arr(s1), arr(s2), stats)


def test_effect_size_unit_pooled_sd():
    draws = effect_size_series(chain_of([1.0], [0.0], [1.0], [1.0]), direction="g1-g2")
    assert draws[0] == 1.0


def test_effect_size_equal_means_is_zero():
    for direction in ("g1-g2", "g2-g1"):
        draws = effect_size_series(chain_of([2.5], [2.5], [0.7], [3.1]), direction=direction)
        assert draws[0] == 0.0 and math.copysign(1.0, draws[0]) == 1.0, direction  # +0.0 either way


def test_effect_size_medium_scenario_value():
    chain = chain_of([255.84], [254.08], [3.04**2], [2.36**2], n1=7, n2=7)
    assert abs(effect_size_series(chain, direction="g1-g2")[0]) == pytest.approx(0.6467, abs=1e-4)
    # frozen hand value of the same expression
    assert effect_size_series(chain, direction="g1-g2")[0] == pytest.approx(0.6467441997007768, rel=1e-12)


def test_effect_size_direction_flag():
    chain = chain_of([1.0, 2.0], [0.0, 0.5], [1.0, 1.0], [1.0, 1.0])
    fwd = effect_size_series(chain, direction="g1-g2")
    rev = effect_size_series(chain, direction="g2-g1")
    np.testing.assert_array_equal(fwd, -rev)
    with pytest.raises(ValueError):
        effect_size_series(chain, direction="sideways")


def test_effect_size_requires_three_observations():
    with pytest.raises(ValueError, match=r"n1 \+ n2 >= 3"):
        effect_size_series(chain_of([1.0], [0.0], [1.0], [1.0], n1=1, n2=1), direction="g1-g2")


def test_delta_mpe():
    assert delta_mpe(np.array([0.1, 0.2, 0.3])) == pytest.approx(0.2)
    assert delta_mpe(np.array([0.7])) == 0.7
    # the float mean of these is -0.8000000000000002, below every draw
    assert delta_mpe(np.full(3, -0.8)) == -0.8


def test_posterior_mode_symmetric():
    mode = posterior_mode(np.array([-1.0, 0.0, 0.0, 1.0]))
    assert abs(mode) <= 2.0 / 511.0  # grid resolution over [-1, 1]


def test_posterior_mode_normal_draws():
    rng = RngState(2024)
    draws = np.array([sample_normal(rng, 2.0, 1.0) for _ in range(100_000)])
    assert posterior_mode(draws) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("draws", [
    # m draws: around the 16 rows of the package's block, a default chain's 5,000 kept sweeps, a long chain's
    *(pytest.param(np.random.default_rng(m).normal(0.4, 0.3, m), id=str(m)) for m in [2, 15, 16, 17, 5_000, 20_000]),
    # coinciding quartiles and a positive sd: the bandwidth falls back from the IQR to the sd
    pytest.param(np.array([0.0] * 10 + [1.0]), id="zero-iqr"),
])
def test_density_grid_matches_the_broadcast_reference_bit_for_bit(draws):
    grid, dens = density_grid(draws)
    ref_grid, ref_dens = density_grid_broadcast(draws)
    assert grid.tobytes() == ref_grid.tobytes()
    assert dens.tobytes() == ref_dens.tobytes()


def test_posterior_mode_degenerate():
    with pytest.raises(ValueError, match="all draws identical"):
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
        with pytest.raises(ValueError, match="credible level"):
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
    cells = cohen_partition()
    cell_of = lambda x: pmp(np.full(3, x), cells)
    assert cell_of(0.0) == ("none", 1.0)
    assert cell_of(0.5) == ("medium", 1.0)  # boundaries are lower-closed
    assert cell_of(-0.35) == ("small-negative", 1.0)
    assert cell_of(0.2) == ("small", 1.0)
    assert cell_of(-0.8) == ("medium-negative", 1.0)
    assert cell_of(100.0) == ("large", 1.0)
    assert cell_of(-100.0) == ("large-negative", 1.0)


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
    rope = ((-0.2, 0.2),)
    assert alpha_decision(np.linspace(0.0, 0.1, 50), rope, 1.0) == DECISION_ACCEPTED
    assert alpha_decision(np.linspace(0.3, 0.5, 50), rope, 1.0) == DECISION_REJECTED
    assert alpha_decision(np.linspace(0.1, 0.3, 50), rope, 1.0) == DECISION_INDETERMINATE
    hpd = hpd_interval(np.linspace(0.1, 0.3, 50), 1.0)
    assert hpd_decision(hpd, (-0.2, 0.2), strict=True) == DECISION_REJECTED


def test_alpha_decision_takes_exactly_one_pair():
    draws = np.linspace(0.25, 0.45, 40)
    with pytest.raises(ValueError):
        alpha_decision(draws, ((-0.5, -0.2), (0.2, 0.5)), 1.0)


_LO, _HI = -0.2, 0.2
_BELOW_LO, _ABOVE_HI = math.nextafter(_LO, -math.inf), math.nextafter(_HI, math.inf)


@pytest.mark.parametrize(
    "lower, upper, status, strict_status",
    [
        (_LO, _HI, DECISION_ACCEPTED, DECISION_ACCEPTED),
        (_LO - 1.0, _LO, DECISION_INDETERMINATE, DECISION_REJECTED),
        (_HI, _HI + 1.0, DECISION_INDETERMINATE, DECISION_REJECTED),
        (_LO - 1.0, _BELOW_LO, DECISION_REJECTED, DECISION_REJECTED),
        (_LO, _LO, DECISION_ACCEPTED, DECISION_ACCEPTED),
        (_HI, _HI, DECISION_ACCEPTED, DECISION_ACCEPTED),
        (_BELOW_LO, _BELOW_LO, DECISION_REJECTED, DECISION_REJECTED),
        (_ABOVE_HI, _ABOVE_HI, DECISION_REJECTED, DECISION_REJECTED),
    ],
    ids=[
        "hpd-equals-rope", "upper-on-lo", "lower-on-hi", "just-below-lo",
        "point-on-lo", "point-on-hi", "point-just-below-lo", "point-just-above-hi",
    ],
)
def test_rope_endpoints_belong_to_the_rope(lower, upper, status, strict_status):
    rope = (_LO, _HI)
    hpd = HpdInterval(0.95, lower, upper)
    assert hpd_decision(hpd, rope) == status
    assert hpd_decision(hpd, rope, strict=True) == strict_status
    if lower == upper:  # a true effect size there is in the rope by the same closed rule
        in_rope = status == DECISION_ACCEPTED
        assert classify_error(lower, rope, DECISION_REJECTED) == (ERROR_TYPE_I if in_rope else ERROR_NONE)
        assert classify_error(lower, rope, DECISION_ACCEPTED) == (ERROR_NONE if in_rope else ERROR_TYPE_II)


def test_alpha_decision_invalid_level():
    with pytest.raises(ValueError, match="credible level"):
        alpha_decision(np.array([0.0, 1.0]), ((-0.2, 0.2),), 0.0)


@pytest.mark.parametrize("level", [True, np.True_], ids=["bool", "numpy-bool"])
def test_a_bool_level_is_a_type_error(level):
    with pytest.raises(TypeError, match="bool"):
        hpd_interval(np.array([0.0, 1.0]), level)


def test_classify_error_definitions():
    rope = (-0.2, 0.2)
    assert classify_error(0.0, rope, DECISION_REJECTED) == ERROR_TYPE_I
    assert classify_error(1.03, rope, DECISION_ACCEPTED) == ERROR_TYPE_II
    assert classify_error(0.0, rope, DECISION_ACCEPTED) == ERROR_NONE
    assert classify_error(0.0, rope, DECISION_INDETERMINATE) == ERROR_NONE
    assert classify_error(1.03, rope, DECISION_REJECTED) == ERROR_NONE


def test_mode_matches_kitchen_sink_chain():
    # end to end: mode and mean summarize the same unimodal posterior closely
    sample = GroupedSample(np.linspace(-1, 1, 30), np.linspace(0, 2, 30))
    prior = IndependencePrior(0.0, 10.0, 1.0, 1.0)
    chain = run_chain(sample, ChainConfig(6000, 1000, 6, prior))
    draws = effect_size_series(chain, direction="g2-g1")
    assert posterior_mode(draws) == pytest.approx(delta_mpe(draws), abs=0.1)
