"""Effect-size posterior summaries: HPD intervals, ROPE partitions, decisions.

Everything here operates on the draws produced by :mod:`mixtt.gibbs`. The
functions are pure and accept either an :class:`EffectSizeDraws` or any
one-dimensional array of draws where that is convenient. :func:`summarize`
computes the summaries every command reports, and :func:`hpd_decision`
turns its HPD interval into a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDraws, InvalidLevel
from .gibbs import PosteriorChain
from .model import pooled_sd

DIRECTIONS = ("g1-g2", "g2-g1")

DECISION_ACCEPTED = "accepted"
DECISION_REJECTED = "rejected"
DECISION_INDETERMINATE = "indeterminate"

ERROR_TYPE_I = "type-I"
ERROR_TYPE_II = "type-II"
ERROR_NONE = "none"


@dataclass(frozen=True)
class EffectSizeDraws:
    """Posterior draws of the standardized mean difference."""

    deltas: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("deltas must be a non-empty one-dimensional array")
        if not np.all(np.isfinite(d)):
            raise ValueError("deltas must all be finite")
        object.__setattr__(self, "deltas", d)

    def __len__(self) -> int:
        return int(self.deltas.size)


@dataclass(frozen=True)
class HpdInterval:
    """Shortest interval holding at least ``level`` of the draws."""

    level: float
    lower: float
    upper: float


@dataclass(frozen=True)
class DecisionOutcome:
    """Region-based decision at credible level ``alpha``.

    ``accepted`` means the HPD interval lies entirely inside the region,
    ``rejected`` means it lies entirely outside, and ``indeterminate``
    means it straddles a boundary.
    """

    status: str
    alpha: float


@dataclass(frozen=True)
class RopePartition:
    """Ordered, labeled half-open cells [lower, upper) covering the real line."""

    cells: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("partition needs at least one cell")
        if self.cells[0][1] != -math.inf or self.cells[-1][2] != math.inf:
            raise ValueError("partition must span the whole real line")
        for (_, lo, hi), (_, nlo, _) in zip(self.cells, self.cells[1:]):
            if hi != nlo:
                raise ValueError("cells must be adjacent and ordered")
        if any(lo >= hi for _, lo, hi in self.cells):
            raise ValueError("each cell needs lower < upper")

    def locate(self, x: float) -> str:
        """Label of the cell containing ``x`` (cells are lower-closed, upper-open)."""
        for label, lo, hi in self.cells:
            if lo <= x < hi:
                return label
        raise AssertionError("unreachable: cells cover the real line")

    def cell_masses(self, deltas) -> dict[str, float]:
        """Fraction of draws in every cell; the integer counts sum to len(deltas)."""
        d = _as_deltas(deltas)
        m = d.size
        return {
            label: int(np.count_nonzero((d >= lo) & (d < hi))) / m
            for label, lo, hi in self.cells
        }


def _as_deltas(draws) -> np.ndarray:
    d = getattr(draws, "deltas", draws)
    return np.asarray(d, dtype=float)


def effect_size_series(chain: PosteriorChain, direction: str = "g1-g2") -> EffectSizeDraws:
    """Per-draw standardized mean difference.

    Each draw i yields (mu1 - mu2) / s with s the pooled standard deviation
    of that draw's sampled variances. ``direction="g2-g1"`` flips the sign
    globally, which only changes reporting; symmetric regions are unaffected.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    n1, n2 = chain.stats.n1, chain.stats.n2
    s = pooled_sd(chain.sigma2_1, chain.sigma2_2, n1, n2)
    deltas = (chain.mu1 - chain.mu2) / s
    if direction == "g2-g1":
        deltas = -deltas
    return EffectSizeDraws(deltas)


def delta_mpe(draws) -> float:
    """Posterior mean of the effect size."""
    return float(_as_deltas(draws).mean())


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb kernel bandwidth 0.9 * min(sd, IQR/1.34) * m^(-1/5)."""
    x = np.asarray(values, dtype=float)
    sd = float(x.std(ddof=1))
    q25, q75 = np.percentile(x, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        spread = sd
    return 0.9 * spread * x.size ** (-0.2)


def kde_density(values, grid: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian kernel density of ``values`` evaluated on ``grid``."""
    x = _as_deltas(values)
    h = silverman_bandwidth(x) if bandwidth is None else bandwidth
    out = np.empty(grid.size)
    norm = 1.0 / (x.size * h * math.sqrt(2.0 * math.pi))
    # block over the grid to bound the broadcast temporaries
    for start in range(0, grid.size, 64):
        block = grid[start : start + 64, None]
        out[start : start + 64] = np.exp(-0.5 * ((block - x[None, :]) / h) ** 2).sum(axis=1)
    return out * norm


def posterior_mode(draws, grid_points: int = 512) -> float:
    """Mode of the kernel density estimate on a uniform grid over [min, max].

    Raises
    ------
    DegenerateDraws
        If all draws are identical (no density estimate exists).
    """
    d = _as_deltas(draws)
    if np.all(d == d[0]):
        raise DegenerateDraws("all draws identical; mode undefined")
    grid = np.linspace(d.min(), d.max(), grid_points)
    dens = kde_density(d, grid)
    return float(grid[int(np.argmax(dens))])


def hpd_interval(draws, level: float) -> HpdInterval:
    """Shortest contiguous window of sorted draws holding ceil(level * m) of them.

    Ties in width resolve to the smallest lower bound; ``level=1`` returns
    [min, max].

    Raises
    ------
    InvalidLevel
        If ``level`` is outside (0, 1].
    """
    if not 0.0 < level <= 1.0:
        raise InvalidLevel(f"credible level must be in (0, 1], got {level}")
    d = np.sort(_as_deltas(draws))
    m = d.size
    w = math.ceil(level * m)
    if w < 1:
        w = 1
    widths = d[w - 1 :] - d[: m - w + 1]
    j = int(np.argmin(widths))  # argmin takes the first minimum: smallest lower bound
    return HpdInterval(level=level, lower=float(d[j]), upper=float(d[j + w - 1]))


def cohen_partition() -> RopePartition:
    """Conventional effect-size categories as a partition of the real line.

    No-effect region is [-0.2, 0.2); small, medium, and large bands follow
    on both sides. Every cell is lower-closed and upper-open.
    """
    inf = math.inf
    return RopePartition(
        (
            ("large-negative", -inf, -0.8),
            ("medium-negative", -0.8, -0.5),
            ("small-negative", -0.5, -0.2),
            ("none", -0.2, 0.2),
            ("small", 0.2, 0.5),
            ("medium", 0.5, 0.8),
            ("large", 0.8, inf),
        )
    )


def pmp(draws, partition: RopePartition) -> tuple[str, float]:
    """Posterior mass percentage of the cell containing the posterior mean.

    Returns the cell label and the fraction of draws falling in that cell,
    the Monte Carlo estimate of the cell's posterior probability.
    """
    d = _as_deltas(draws)
    label = partition.locate(delta_mpe(d))
    return label, partition.cell_masses(d)[label]


def normalize_rope(rope) -> tuple[tuple[float, float], ...]:
    """Coerce a rope given as (lo, hi) or an iterable of such pairs."""
    if len(rope) == 2 and np.isscalar(rope[0]):
        rope = (rope,)
    out = []
    for lo, hi in rope:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"rope interval needs lower < upper, got ({lo}, {hi})")
        out.append((lo, hi))
    return tuple(sorted(out))


def hpd_decision(interval: HpdInterval, rope, strict: bool = False) -> DecisionOutcome:
    """Decide a region hypothesis from an HPD interval.

    ``accepted`` if the interval lies inside one rope interval, ``rejected``
    if it intersects none of them, ``indeterminate`` otherwise. Interval
    endpoints count as belonging to the rope. ``strict=True`` collapses
    indeterminate into rejected, giving a two-valued accept/reject rule.
    """
    rope = normalize_rope(rope)
    if any(lo <= interval.lower and interval.upper <= hi for lo, hi in rope):
        status = DECISION_ACCEPTED
    elif all(interval.upper < lo or hi < interval.lower for lo, hi in rope):
        status = DECISION_REJECTED
    else:
        status = DECISION_REJECTED if strict else DECISION_INDETERMINATE
    return DecisionOutcome(status=status, alpha=interval.level)


def alpha_decision(draws, rope, alpha: float, strict: bool = False) -> DecisionOutcome:
    """:func:`hpd_decision` on the alpha-level HPD interval of ``draws``."""
    return hpd_decision(hpd_interval(draws, alpha), rope, strict)


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


def summarize(draws, alpha: float) -> PosteriorSummary:
    """Posterior mean, alpha-level HPD and Cohen-partition PMP of the draws."""
    d = _as_deltas(draws)
    label, mass = pmp(d, cohen_partition())
    return PosteriorSummary(delta_mpe(d), hpd_interval(d, alpha), label, mass)


def classify_error(
    true_delta: float,
    rope,
    outcome: DecisionOutcome,
    hypothesis_contains_true: bool = True,
) -> str:
    """Classify a decision against the known true effect size.

    Rejecting when the rope contains the truth is a type-I error; accepting
    when it does not is a type-II error. ``hypothesis_contains_true`` narrows
    type-I to the case where the stated hypothesis itself covers the truth
    (the rope always encloses the hypothesis, so type-II needs no flag).
    """
    rope = normalize_rope(rope)
    in_rope = any(lo <= true_delta <= hi for lo, hi in rope)
    if in_rope and hypothesis_contains_true and outcome.status == DECISION_REJECTED:
        return ERROR_TYPE_I
    if not in_rope and outcome.status == DECISION_ACCEPTED:
        return ERROR_TYPE_II
    return ERROR_NONE
