"""Effect-size posterior summaries: HPD intervals, ROPE masses, decisions.

:func:`summarize` reads a :mod:`mixtt.gibbs` chain and computes the
summaries every command reports. The other functions take the effect-size
draws that :func:`effect_size_series` forms from a chain: a one-dimensional
float array. The functions are pure, and :func:`hpd_decision` turns a
summary's HPD interval into a decision status string.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gibbs import PosteriorChain
from .model import pooled_sd

DIRECTIONS = ("g1-g2", "g2-g1")

# points of the uniform grid over [min, max] that the density is evaluated on
_DENSITY_GRID_POINTS = 512
# fine grid steps per step of that grid, for the binned estimate
_DENSITY_FINENESS = 4
_DENSITY_FINE_STEPS = (_DENSITY_GRID_POINTS - 1) * _DENSITY_FINENESS
# period of the binned estimate's FFT: a power of two above the fine grid's points plus the longest reach
_DENSITY_FFT_POINTS = 1 << (2 * _DENSITY_FINE_STEPS).bit_length()
# fine steps the bandwidth spans at least where the binned estimate runs; below, the exact sum runs
_DENSITY_MIN_WIDTH = 8.0
# bandwidths past which the kernel exp(-0.5 * u ** 2) underflows to 0
_DENSITY_KERNEL_REACH = 38.6

DECISION_ACCEPTED = "accepted"
DECISION_REJECTED = "rejected"
DECISION_INDETERMINATE = "indeterminate"

ERROR_TYPE_I = "type-I"
ERROR_TYPE_II = "type-II"
ERROR_NONE = "none"


@dataclass(frozen=True)
class HpdInterval:
    """Shortest interval holding at least ``level`` of the draws."""

    level: float
    lower: float
    upper: float


def effect_size_series(chain: PosteriorChain, direction: str) -> np.ndarray:
    """Per-draw standardized mean difference.

    Each draw i yields (mu1 - mu2) / s for ``direction="g1-g2"`` and
    (mu2 - mu1) / s for ``"g2-g1"``, with s the pooled standard deviation
    of that draw's sampled variances.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    s = pooled_sd(chain.sigma2_1, chain.sigma2_2, chain.stats.n1, chain.stats.n2)
    if direction == "g2-g1":
        return (chain.mu2 - chain.mu1) / s
    return (chain.mu1 - chain.mu2) / s


def delta_mpe(draws: np.ndarray) -> float:
    """Posterior mean of the effect size.

    The float mean is clamped to [min, max], where the exact mean lies, so
    rounding cannot carry it across a cell bound that all draws sit on.
    """
    return float(min(max(draws.mean(), draws.min()), draws.max()))


def density_grid(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density estimate of the draws on a uniform grid over [min, max].

    The bandwidth is Silverman's rule of thumb, 0.9 * min(sd, IQR/1.34) *
    m^(-1/5). Returns ``(grid, density)``, both finite and the density >= 0.

    The estimate is binned, as R's ``density()`` bins it (Silverman 1982,
    AS 176; Wand 1994, JCGS 3:433). Each draw is split linearly between the
    two nearest points of a grid F = 4 times finer than the 512-point one,
    and the bin weights are convolved with the sampled kernel by one FFT.
    The kernel is cut where it underflows to 0, at 38.6 h. Binning moves a
    draw's term by at most (d/h)^2 / 8 of that term's peak, d being the
    fine step. So the density is within (d/h)^2 / (8 h sqrt(2 pi)) of the
    exact sum over every draw. The binned estimate runs only where h spans
    at least R = 8 fine steps, so that bound is at most 1/512 of the
    kernel's peak 1 / (h sqrt(2 pi)). Measured against the density's own
    peak, the error was at most 6e-6 on 700 default chains' draws, and
    below 1e-3 on skewed, heavy-tailed and outlying draws whose h spans
    just over R fine steps. Where h spans fewer than R fine steps, as for
    Cauchy draws or far outliers, the exact sum over every draw runs
    instead.

    Raises
    ------
    ValueError
        If all draws are identical (no density estimate exists), if they span
        more than the largest float, or if the bandwidth falls below the
        smallest normal float or is too large for the density's normalizer.
    """
    if np.all(draws == draws[0]):
        raise ValueError("all draws identical; no density estimate exists")
    lo, hi = float(draws.min()), float(draws.max())
    if not math.isfinite(hi - lo):
        raise ValueError(f"draws span [{lo!r}, {hi!r}], more than the largest float; no density estimate exists")
    # the draws scaled into (-1, 1) by a power of two, which is exact: no square under- or overflows,
    # and neither the fine step nor the bandwidth below is subnormal where the binned estimate runs
    exponent = math.frexp(max(-lo, hi))[1]
    scaled = np.ldexp(draws, -exponent)
    sd = math.ldexp(float(scaled.std(ddof=1)), exponent)
    q25, q75 = np.percentile(draws, [25.0, 75.0]).tolist()
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        spread = sd
    h = 0.9 * spread * draws.size ** (-0.2)
    if not h >= sys.float_info.min:
        raise ValueError(f"draws too close together for a density estimate: bandwidth {h!r}")
    normalizer = 1.0 / (draws.size * h * math.sqrt(2.0 * math.pi))
    if normalizer == 0.0:
        raise ValueError(f"draws too far apart for a density estimate: bandwidth {h!r}")
    grid = np.linspace(lo, hi, _DENSITY_GRID_POINTS)
    scaled_lo = math.ldexp(lo, -exponent)
    step = (math.ldexp(hi, -exponent) - scaled_lo) / _DENSITY_FINE_STEPS
    width = math.ldexp(h, -exponent) / step  # the bandwidth in fine steps
    if width < _DENSITY_MIN_WIDTH:
        dens = _exact_density_sum(grid, draws, h)
    else:
        dens = _binned_density_sum((scaled - scaled_lo) / step, width)
    return grid, dens * normalizer


def _binned_density_sum(positions: np.ndarray, width: float) -> np.ndarray:
    """Sum of exp(-0.5 * ((x - draw) / h) ** 2) at every grid point x, from the draws' positions
    on the fine grid and the bandwidth h in fine steps, by linear binning and one FFT convolution."""
    fine = _DENSITY_FINE_STEPS
    left = np.minimum(positions.astype(np.intp), fine - 1)
    right_share = positions - left
    weights = np.bincount(left, 1.0 - right_share, fine + 1) + np.bincount(left + 1, right_share, fine + 1)
    # the kernel at lags -reach..reach, wrapped around the FFT's period; past the reach it underflows to 0
    reach = min(fine, int(_DENSITY_KERNEL_REACH * width))
    lags = np.arange(reach + 1) / width
    kernel = np.zeros(_DENSITY_FFT_POINTS)
    kernel[: reach + 1] = np.exp(-0.5 * lags * lags)
    kernel[_DENSITY_FFT_POINTS - reach :] = kernel[reach:0:-1]
    # the period holds every lag between two fine points plus the reach, so no sum wraps around
    sums = np.fft.irfft(np.fft.rfft(weights, _DENSITY_FFT_POINTS) * np.fft.rfft(kernel), _DENSITY_FFT_POINTS)
    return np.maximum(sums[: fine + 1 : _DENSITY_FINENESS], 0.0)  # FFT round-off can dip below 0


def _exact_density_sum(grid: np.ndarray, draws: np.ndarray, h: float) -> np.ndarray:
    """Sum of exp(-0.5 * ((x - draw) / h) ** 2) over every draw at every grid point x."""
    with np.errstate(over="ignore"):  # a draw whose term overflows is so far from x that it adds exp(-inf) = 0
        return np.array([np.exp(-0.5 * np.square((x - draws) / h)).sum() for x in grid.tolist()])


def posterior_mode(draws: np.ndarray) -> float:
    """Grid point where :func:`density_grid` peaks; the benchmark's layer ladder binds
    this form, while ``mixtt analyze`` evaluates one grid for both the mode and the plot."""
    grid, dens = density_grid(draws)
    return float(grid[int(np.argmax(dens))])


def check_level(level: float) -> float:
    """Return ``level`` if it is a credible level in (0, 1], else ValueError (TypeError for a bool)."""
    if isinstance(level, (bool, np.bool_)):
        raise TypeError(f"credible level alpha must be a number, not the bool {level}")
    if not 0.0 < level <= 1.0:  # also rejects NaN
        raise ValueError(f"credible level alpha must be in (0, 1], got {level}")
    return level


def check_rope(rope) -> tuple[float, float]:
    """Return ``rope`` as ``(lo, hi)`` if it is two finite non-bool bounds with lo < hi, else ValueError."""
    if len(rope) != 2 or not all((isinstance(b, float) or type(b) is int) and math.isfinite(b) for b in rope):
        raise ValueError(f"rope needs two finite bounds (lo, hi), got {rope!r}")
    lo, hi = rope
    if not lo < hi:
        raise ValueError(f"rope interval needs lower < upper, got ({lo}, {hi})")
    return lo, hi


def hpd_interval(draws: np.ndarray, level: float) -> HpdInterval:
    """Shortest contiguous window of sorted draws holding ceil(level * m) of them.

    Ties in width resolve to the smallest lower bound; ``level=1`` returns
    [min, max].

    Raises
    ------
    ValueError
        If ``level`` is outside (0, 1].
    """
    check_level(level)
    return HpdInterval(level, *_shortest_window(np.sort(draws), level))


def _shortest_window(d: np.ndarray, level: float) -> tuple[float, float]:
    """Ends of the first shortest window of ceil(level * m) consecutive draws in the sorted array ``d``."""
    m = d.size
    w = math.ceil(level * m)
    widths = d[w - 1 :] - d[: m - w + 1]
    j = int(np.argmin(widths))  # argmin takes the first minimum: smallest lower bound
    return float(d[j]), float(d[j + w - 1])


def cohen_partition() -> tuple[tuple[str, float, float], ...]:
    """Conventional effect-size categories as ``(label, lower, upper)`` cells.

    The cells are ordered and adjacent and cover the real line. No-effect
    region is [-0.2, 0.2); small, medium, and large bands follow on both
    sides. Every cell is lower-closed and upper-open.
    """
    inf = math.inf
    return (
        ("large-negative", -inf, -0.8),
        ("medium-negative", -0.8, -0.5),
        ("small-negative", -0.5, -0.2),
        ("none", -0.2, 0.2),
        ("small", 0.2, 0.5),
        ("medium", 0.5, 0.8),
        ("large", 0.8, inf),
    )


def pmp(draws: np.ndarray, cells) -> tuple[str, float]:
    """Posterior mass percentage of the cell containing the posterior mean.

    ``cells`` are ``(label, lower, upper)`` triples covering the real line,
    such as :func:`cohen_partition`. Returns the cell label and the fraction
    of draws falling in that cell, the Monte Carlo estimate of the cell's
    posterior probability.
    """
    mean = delta_mpe(draws)
    label, lo, hi = next(cell for cell in cells if cell[1] <= mean < cell[2])
    return label, int(np.count_nonzero((draws >= lo) & (draws < hi))) / draws.size


def hpd_decision(interval: HpdInterval, rope: tuple[float, float], strict: bool = False) -> str:
    """Decide a region hypothesis from an HPD interval; returns the status.

    ``rope`` is one ``(lo, hi)`` interval; a rope :func:`check_rope` rejects
    raises ValueError. ``accepted`` if the HPD interval lies inside it,
    ``rejected`` if the two do not intersect, ``indeterminate`` otherwise.
    The rope's endpoints belong to it. ``strict=True`` collapses
    indeterminate into rejected, giving a two-valued accept/reject rule.
    """
    lo, hi = check_rope(rope)
    if lo <= interval.lower and interval.upper <= hi:
        return DECISION_ACCEPTED
    if interval.upper < lo or hi < interval.lower:
        return DECISION_REJECTED
    return DECISION_REJECTED if strict else DECISION_INDETERMINATE


def alpha_decision(draws: np.ndarray, rope, alpha: float) -> str:
    """:func:`hpd_decision` on the alpha-level HPD interval of ``draws``.

    ``rope`` is ``((lo, hi),)``, and any other number of pairs raises. This
    wrapped form stays because the benchmark's layer ladder binds it;
    ROADMAP.md items 1 and 7 drop it.
    """
    (pair,) = rope
    return hpd_decision(hpd_interval(draws, alpha), pair)


@dataclass(frozen=True)
class PosteriorSummary:
    """The headline summaries of one effect-size posterior.

    Holds scalars only, so summaries compare with ``==`` and keep no draws
    alive. Decisions follow from ``hpd`` through :func:`hpd_decision`.
    """

    delta_mpe: float
    hpd: HpdInterval
    pmp_label: str
    pmp_value: float


def summarize(chain: PosteriorChain, direction: str, alpha: float) -> PosteriorSummary:
    """Posterior mean, alpha-level HPD and Cohen-partition PMP of the chain's effect size.

    Raises
    ------
    ValueError
        If any draw of the chain is not finite: a draw past the largest float
        is inf, and no finite summary exists.
    """
    rows = (chain.mu1, chain.mu2, chain.sigma2_1, chain.sigma2_2)
    overflowed = sum(row.size - int(np.count_nonzero(np.isfinite(row))) for row in rows)
    if overflowed:
        raise ValueError(f"the chain drew values beyond the largest float, {overflowed} in {rows[0].size} kept sweeps; "
                         "no finite report exists for this prior and data")
    draws = effect_size_series(chain, direction)
    # one sort serves the clamp's min and max, the cell count and the HPD, giving what delta_mpe, pmp and
    # hpd_interval give; the mean is taken on the unsorted draws, in delta_mpe's summation order
    d = np.sort(draws)
    mean = float(min(max(draws.mean(), d[0]), d[-1]))
    label, lo, hi = next(cell for cell in cohen_partition() if cell[1] <= mean < cell[2])
    mass = int(np.searchsorted(d, hi) - np.searchsorted(d, lo)) / d.size
    return PosteriorSummary(mean, HpdInterval(alpha, *_shortest_window(d, check_level(alpha))), label, mass)


def classify_error(true_delta: float, rope: tuple[float, float], status: str) -> str:
    """Classify a decision status against the known true effect size.

    Rejecting when the ``(lo, hi)`` rope contains the truth, endpoints
    included, is a type-I error; accepting when it does not is a type-II
    error. A rope :func:`check_rope` rejects raises ValueError.
    """
    lo, hi = check_rope(rope)
    in_rope = lo <= true_delta <= hi
    if in_rope and status == DECISION_REJECTED:
        return ERROR_TYPE_I
    if not in_rope and status == DECISION_ACCEPTED:
        return ERROR_TYPE_II
    return ERROR_NONE
