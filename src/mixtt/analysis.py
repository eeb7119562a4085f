"""Effect-size posterior summaries: HPD intervals, ROPE masses, decisions.

:func:`summarize` reads a :mod:`mixtt.gibbs` chain and computes the
summaries every command reports. The other functions take the effect-size
draws that :func:`effect_size_series` forms from a chain: a one-dimensional
float array. The functions are pure, and :func:`hpd_decision` turns a
summary's HPD interval into a decision status string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gibbs import PosteriorChain
from .model import pooled_sd

DIRECTIONS = ("g1-g2", "g2-g1")

# points of the uniform grid over [min, max] that the density is evaluated on
_DENSITY_GRID_POINTS = 512
# grid points per block of the density sum: the block of points x draws stays small enough to cache
_DENSITY_BLOCK_POINTS = 16

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
    m^(-1/5). Returns ``(grid, density)``.

    Raises
    ------
    ValueError
        If all draws are identical (no density estimate exists).
    """
    if np.all(draws == draws[0]):
        raise ValueError("all draws identical; no density estimate exists")
    grid = np.linspace(draws.min(), draws.max(), _DENSITY_GRID_POINTS)
    sd = float(draws.std(ddof=1))
    q25, q75 = np.percentile(draws, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        spread = sd
    h = 0.9 * spread * draws.size ** (-0.2)
    dens = np.empty(grid.size)
    # exp(-0.5 * ((x - draws) / h) ** 2) summed per grid point x, a few points at a time, each step
    # in place in one reused block: a fresh temporary per step cost more than the arithmetic
    scratch = np.empty((_DENSITY_BLOCK_POINTS, draws.size))
    for start in range(0, grid.size, _DENSITY_BLOCK_POINTS):
        points = grid[start : start + _DENSITY_BLOCK_POINTS, None]
        block = scratch[: points.shape[0]]
        np.subtract(points, draws, out=block)
        np.divide(block, h, out=block)
        np.square(block, out=block)
        np.multiply(block, -0.5, out=block)
        np.exp(block, out=block)
        block.sum(axis=1, out=dens[start : start + points.shape[0]])
    return grid, dens * (1.0 / (draws.size * h * math.sqrt(2.0 * math.pi)))


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
    d = np.sort(draws)
    m = d.size
    w = math.ceil(level * m)
    widths = d[w - 1 :] - d[: m - w + 1]
    j = int(np.argmin(widths))  # argmin takes the first minimum: smallest lower bound
    return HpdInterval(level=level, lower=float(d[j]), upper=float(d[j + w - 1]))


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
    """Posterior mean, alpha-level HPD and Cohen-partition PMP of the chain's effect size."""
    draws = effect_size_series(chain, direction)
    label, mass = pmp(draws, cohen_partition())
    return PosteriorSummary(delta_mpe(draws), hpd_interval(draws, alpha), label, mass)


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
