import math

import numpy as np
import pytest
from _oracles import density_bandwidth, density_grid_broadcast, shortest_covering_interval

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
    summarize,
)
from mixtt.distributions import RngState, sample_normal
from mixtt.gibbs import ChainConfig, PosteriorChain, run_chain
from mixtt.harness import Scenario, generate_dataset
from mixtt.model import GroupedSample, IndependencePrior, PriorPreset, SufficientStats, realize_preset


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


def _normals(count=200):
    rng = RngState(5)
    return np.array([sample_normal(rng, 0.0, 1.0) for _ in range(count)])


def _binning(draws):
    """density_grid's stated bound on its distance from the exact sum, (d/h)^2 / (8 h sqrt(2 pi)), and the
    bandwidth h in fine steps d, a quarter of the 512-point grid's step."""
    d = (draws.max() - draws.min()) / (511 * 4)
    with np.errstate(over="ignore"):  # for far outliers the sd overflows, and the IQR's bandwidth is far below d
        h = density_bandwidth(draws)
        return (d / h) ** 2 / (8.0 * h * math.sqrt(2.0 * math.pi)), h / d


def _assert_within_binning_bound(draws):
    grid, dens = density_grid(draws)
    ref_grid, ref_dens = density_grid_broadcast(draws)
    assert grid.tobytes() == ref_grid.tobytes()
    assert np.abs(dens - ref_dens).max() <= _binning(draws)[0]
    assert (dens >= 0.0).all()
    return dens, ref_dens


@pytest.mark.parametrize("draws", [
    # m draws: around the 16 rows of the exact sum's block, a default chain's 5,000 kept sweeps, a long chain's
    *(pytest.param(np.random.default_rng(m).normal(0.4, 0.3, m), id=str(m)) for m in [2, 15, 16, 17, 5_000, 20_000]),
    # coinciding quartiles and a positive sd: the bandwidth falls back from the IQR to the sd
    pytest.param(np.array([0.0] * 10 + [1.0]), id="zero-iqr"),
    # skewed draws, whose density jumps at 0, and heavy tails or one far draw, which leave the bandwidth
    # a few fine steps wide: t3 and the 30-sd outlier are binned, t2 and the 50-sd outlier summed exactly
    pytest.param(np.random.default_rng(1).exponential(1.0, 5_000), id="exponential"),
    pytest.param(np.random.default_rng(2).standard_t(3.0, 5_000), id="t3"),
    pytest.param(np.random.default_rng(2).standard_t(2.0, 5_000), id="t2"),
    pytest.param(np.append(np.random.default_rng(3).normal(0.0, 1.0, 4_999), 30.0), id="outlier-30sd"),
    pytest.param(np.append(np.random.default_rng(3).normal(0.0, 1.0, 4_999), 50.0), id="outlier-50sd"),
    # two clusters with a gap where the exact sum underflows to 0 and the FFT's round-off dips below it
    pytest.param(np.concatenate([np.random.default_rng(0).normal(0.0, 1.0, 4_500),
                                 np.random.default_rng(0).normal(25.0, 0.5, 500)]), id="gap"),
])
def test_density_grid_is_within_its_binning_bound_of_the_broadcast_reference(draws):
    _assert_within_binning_bound(draws)


@pytest.mark.parametrize("scenario", ["null", "small", "large"])
def test_density_grid_of_default_chains_is_within_1e_5_of_the_exact_peak(scenario):
    sample = generate_dataset(Scenario.named(scenario), 50, RngState(31))
    prior = realize_preset(PriorPreset("wide"), sample)
    draws = effect_size_series(run_chain(sample, ChainConfig(10_000, 5_000, 7, prior)), "g2-g1")
    assert _binning(draws)[1] >= 8.0  # the binned estimate runs
    dens, ref_dens = _assert_within_binning_bound(draws)
    assert np.abs(dens - ref_dens).max() <= 1e-5 * ref_dens.max()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("draws", [
    pytest.param(np.random.default_rng(4).standard_cauchy(5_000), id="cauchy"),
    pytest.param(np.random.default_rng(5).lognormal(0.0, 2.0, 5_000), id="lognormal-2"),
    pytest.param(np.concatenate([_normals(198) * 1e-10, [-1e200, 1e200]]), id="far-outliers"),
])
def test_density_grid_of_unresolved_draws_is_the_exact_sum_bit_for_bit(draws):
    assert _binning(draws)[1] < 8.0  # the bandwidth spans too few fine steps for the binned estimate
    grid, dens = density_grid(draws)
    with np.errstate(over="ignore"):  # the far outliers' squares and terms overflow in the broadcast
        ref_grid, ref_dens = density_grid_broadcast(draws)
    assert grid.tobytes() == ref_grid.tobytes()
    assert dens.tobytes() == ref_dens.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-300, 301, 50)], ids=lambda s: f"{s:.0e}")
def test_density_grid_is_finite_at_any_scale(scale):
    grid, dens = density_grid(_normals() * scale)
    assert np.isfinite(grid).all() and np.isfinite(dens).all() and dens.max() > 0.0


@pytest.mark.parametrize("power", [-990, -600, 600, 990])
def test_density_grid_scales_exactly_by_powers_of_two(power):
    # the sd is computed on draws scaled into (-1, 1), which must not change its value
    grid, dens = density_grid(_normals())
    scaled_grid, scaled_dens = density_grid(np.ldexp(_normals(), power))
    assert scaled_grid.tobytes() == np.ldexp(grid, power).tobytes()
    assert scaled_dens.tobytes() == np.ldexp(dens, -power).tobytes()


@pytest.mark.filterwarnings("error")
def test_density_grid_of_far_outliers_is_finite():
    # the bandwidth is set by the other draws, so the outliers' terms overflow where they add exp(-inf) = 0
    draws = np.concatenate([_normals(198) * 1e-10, [-1e200, 1e200]])
    grid, dens = density_grid(draws)
    assert np.isfinite(dens).all() and dens[0] == dens[-1] > 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("draws, message", [
    (np.array([-1.5e308, 1.5e308]), "more than the largest float"),
    (np.array([0.0, 5e-324]), "too close together"),
    (_normals() * 1e-310, "too close together"),
    (_normals() * 1e307, "too far apart"),
], ids=["span", "subnormal-pair", "subnormal-normals", "huge-normals"])
def test_density_grid_rejects_draws_beyond_float_range(draws, message):
    with pytest.raises(ValueError, match=message):
        density_grid(draws)


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


@pytest.mark.filterwarnings("error")
def test_summarize_rejects_a_chain_with_draws_past_the_largest_float():
    # IG(2, 1e308) draws 471 infinite variances here, whose effect sizes are exactly 0; the other
    # variances are so large that an HPD and PMP of the draws would come out finite and mean nothing
    prior = IndependencePrior(0.0, 1.0, 1.0, 1e308)
    chain = run_chain(GroupedSample([1.5, 2.25], [3.0, 4.5]), ChainConfig(3000, 1000, 1, prior))
    with pytest.raises(ValueError, match=r"^the chain drew values beyond the largest float, 471 in 2000 kept sweeps; "
                                         r"no finite report exists for this prior and data$"):
        summarize(chain, "g2-g1", 0.95)
