"""Core data model: two-group samples, sufficient statistics, and priors.

The observational model is a two-component Gaussian mixture in which every
observation's group membership is known, so the likelihood factorizes by
group and inference reads only each group's size, mean and sum of squared
deviations, which a :class:`GroupedSample` computes once, when it is built.
All types here are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# (B0 multiplier, c0, C0) per named preset; b0 is always the pooled mean.
# A kind's index here is its chain's stream in a sensitivity comparison, so
# reordering or inserting kinds would change every sensitivity output.
_PRESET_TABLE = {
    "wide": (10.0, 0.01, 0.01),
    "medium": (5.0, 0.1, 0.1),
    "narrow": (1.0, 1.0, 1.0),
}
PRESET_KINDS = tuple(_PRESET_TABLE)


def _moments(a: np.ndarray) -> tuple[float, float]:
    """(mean, sum of squared deviations); the sum / (n - 1) is ``a.var(ddof=1)`` bit for bit."""
    mean = a.mean()
    dev = a - mean
    return float(mean), float((dev * dev).sum())


class GroupedSample:
    """The observations of the two groups being compared.

    Parameters
    ----------
    group1, group2 : array-like of float
        Each group's observations, in measurement units.

    Both groups must be one-dimensional and non-empty, every value finite,
    and each sum of squared deviations finite when squared. ``moments1``,
    ``moments2`` and ``pooled_moments`` are the (mean, sum of squared
    deviations) of each group and of ``values``: group 1's observations then
    group 2's, so everything derived from a sample depends only on each
    group's values in order. Instances are immutable by convention.
    """

    __slots__ = ("values", "group1", "group2", "moments1", "moments2", "pooled_moments")

    def __init__(self, group1, group2):
        g1 = np.asarray(group1, dtype=float)
        g2 = np.asarray(group2, dtype=float)
        if g1.ndim != 1 or g2.ndim != 1:
            raise ValueError("each group must be one-dimensional")
        if g1.size == 0 or g2.size == 0:
            raise ValueError("both groups need at least one observation")
        v = np.concatenate((g1, g2))
        if not np.isfinite(v).all():
            raise ValueError("values must all be finite")
        self.values = v
        self.group1 = g1
        self.group2 = g2
        with np.errstate(over="ignore", invalid="ignore"):  # overflow or inf - inf, rejected below
            moments = _moments(g1), _moments(g2), _moments(v)
        self.moments1, self.moments2, self.pooled_moments = moments
        # finite squares keep Welch's squared standard errors and the presets' B0 finite
        if not all(math.isfinite(ssd * ssd) for _, ssd in moments):
            raise ValueError("values too large: their sum of squared deviations overflows when squared")

    @classmethod
    def from_labels(cls, values, labels) -> "GroupedSample":
        """Build a sample from one group label per value.

        The first distinct label encountered maps to group 1, the second to
        group 2; each group keeps its values in the given order. Unequal
        lengths or more than two distinct labels is an error.
        """
        if len(values) != len(labels):
            raise ValueError(f"length mismatch: {len(values)} values vs {len(labels)} labels")
        groups: tuple[list, list] = ([], [])
        index: dict[object, int] = {}
        for value, lab in zip(values, labels):
            if lab not in index:
                if len(index) == 2:
                    raise ValueError(f"more than two group labels: {[*index, lab]!r}")
                index[lab] = len(index)
            groups[index[lab]].append(value)
        return cls(*groups)

    @property
    def n1(self) -> int:
        return int(self.group1.size)

    @property
    def n2(self) -> int:
        return int(self.group2.size)


@dataclass(frozen=True)
class SufficientStats:
    """Per-group counts, means, and variances (variance divisor is the group size)."""

    n1: int
    n2: int
    ybar1: float
    ybar2: float
    s2y1: float
    s2y2: float


@dataclass(frozen=True)
class IndependencePrior:
    """Hyperparameters of the independence prior.

    Each group mean is a priori N(b0, B0) and each group variance is
    inverse-gamma IG(c0, C0), independently of the mean. All four values
    are finite, and B0, c0 and C0 are positive.
    """

    b0: float
    B0: float
    c0: float
    C0: float

    def __post_init__(self):
        values = (self.b0, self.B0, self.c0, self.C0)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"prior hyperparameters (b0, B0, c0, C0) must be finite, got {values}")
        if self.B0 <= 0.0:
            raise ValueError(f"B0 must be > 0, got {self.B0}")
        if self.c0 <= 0.0 or self.C0 <= 0.0:
            raise ValueError(f"c0 and C0 must be > 0, got ({self.c0}, {self.C0})")


@dataclass(frozen=True)
class PriorPreset:
    """A named prior recipe, realized against the data by :func:`realize_preset`.

    ``wide``, ``medium``, and ``narrow`` scale with the pooled sample moments.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ValueError(f"unknown preset kind {self.kind!r}; expected one of {PRESET_KINDS}")


def compute_sufficient_stats(sample: GroupedSample) -> SufficientStats:
    """Group sizes, means, and within-group variances of a sample.

    Both come from the sample's ``moments1`` and ``moments2``; the variance
    divides by the group size N_k, not N_k - 1, the convention in which the
    conditional updates in :mod:`mixtt.gibbs` are stated.
    """
    n1, n2 = sample.n1, sample.n2
    ybar1, ssd1 = sample.moments1
    ybar2, ssd2 = sample.moments2
    return SufficientStats(n1=n1, n2=n2, ybar1=ybar1, ybar2=ybar2, s2y1=ssd1 / n1, s2y2=ssd2 / n2)


def realize_preset(preset: PriorPreset, sample: GroupedSample) -> IndependencePrior:
    """Turn a preset into concrete hyperparameters for the given data.

    Named presets center b0 at the pooled sample mean and scale B0 with
    the pooled sample variance (divisor N - 1), both from the sample's
    ``pooled_moments``, so they are only weakly informative at the scale of
    the data.

    Raises
    ------
    ValueError
        If the pooled sample variance is zero.
    """
    xbar, ssd = sample.pooled_moments
    s2 = ssd / (sample.values.size - 1)
    if s2 <= 0.0:
        raise ValueError("pooled sample variance is zero; a data-scaled prior is undefined")
    mult, c0, C0 = _PRESET_TABLE[preset.kind]
    return IndependencePrior(b0=xbar, B0=mult * s2, c0=c0, C0=C0)


def pooled_sd(sigma2_1, sigma2_2, n1: int, n2: int):
    """Pooled standard deviation sqrt(((n1-1)*v1 + (n2-1)*v2) / (n1+n2-2)).

    Accepts scalars or equally shaped arrays for the two variances. For
    n1 == n2 this reduces exactly to sqrt((v1 + v2) / 2). No sum overflows,
    up to the largest float.

    Raises
    ------
    ValueError
        If n1 + n2 < 3 (the divisor would vanish) or any variance is not
        strictly positive.
    """
    if n1 + n2 < 3:
        raise ValueError(f"need n1 + n2 >= 3, got {n1} + {n2}")
    v1 = np.asarray(sigma2_1, dtype=float)
    v2 = np.asarray(sigma2_2, dtype=float)
    if np.any(v1 <= 0.0) or np.any(v2 <= 0.0):
        raise ValueError("variances must be > 0")
    if n1 == n2:
        # algebraically the same, but keeps the balanced case exact in floats; the halves' sum is
        # (v1 + v2) / 2 in floats, without its overflow
        out = np.sqrt(v1 * 0.5 + v2 * 0.5)
    else:
        # the variances scaled by an even power of two 4^-k <= 1 / (n1 + n2 - 2), so the weighted sum
        # cannot overflow, and the root scaled back by 2^k: exact for ordinary variances
        divisor = n1 + n2 - 2
        k = ((divisor - 1).bit_length() + 1) // 2
        scale = math.ldexp(1.0, -2 * k)
        out = np.sqrt(((n1 - 1) * scale * v1 + (n2 - 1) * scale * v2) / divisor) * math.ldexp(1.0, k)
    return float(out) if out.ndim == 0 else out
