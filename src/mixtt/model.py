"""Core data model: two-group samples, sufficient statistics, and priors.

The observational model is a two-component Gaussian mixture in which every
observation's group membership is known, so the likelihood factorizes by
group and inference reduces to the per-group means and variances. All types
here are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# A kind's index here is its chain's stream in a sensitivity comparison, so
# reordering or inserting kinds would change every sensitivity output.
PRESET_KINDS = ("wide", "medium", "narrow")


class GroupedSample:
    """Paired observations and group allocations for a two-group comparison.

    Parameters
    ----------
    values : array-like of float
        Observations, in measurement units.
    allocations : array-like of int
        Group identifier (1 or 2) for each observation.

    Both sequences must have equal length, every value must be finite, the
    square of the sum of squared deviations about the pooled mean must not
    overflow, and each group must be non-empty.
    Instances are immutable by convention; do not mutate the arrays.
    """

    __slots__ = ("values", "allocations", "group1", "group2")

    def __init__(self, values, allocations):
        v = np.asarray(values, dtype=float)
        a = np.asarray(allocations)
        if v.ndim != 1 or a.ndim != 1:
            raise ValueError("values and allocations must be one-dimensional")
        if v.size != a.size:
            raise ValueError(f"length mismatch: {v.size} values vs {a.size} allocations")
        if not np.isfinite(v).all():
            raise ValueError("values must all be finite")
        # checked before the integer cast, which would truncate 1.7 to 1
        bad = set(a[(a != 1) & (a != 2)].tolist())
        if bad:
            raise ValueError(f"allocations must be 1 or 2, got {sorted(bad)}")
        a = a.astype(int)
        self.values = v
        self.allocations = a
        self.group1 = v[a == 1]
        self.group2 = v[a == 2]
        if self.group1.size == 0 or self.group2.size == 0:
            raise ValueError("both groups need at least one observation")
        with np.errstate(over="ignore"):  # an overflow is reported just below
            dev = v - v.mean()
            ssd = dev @ dev
            # a finite square keeps what is derived from ssd finite: the
            # squared standard error of Welch's test and the presets' B0
            ssd_squared = ssd * ssd
        if not np.isfinite(ssd_squared):
            raise ValueError("values too large: their sum of squared deviations overflows when squared")

    @classmethod
    def from_labels(cls, values, labels) -> "GroupedSample":
        """Build a sample from arbitrary group labels.

        The first distinct label encountered maps to group 1, the second to
        group 2; more than two distinct labels is an error.
        """
        mapping: dict[object, int] = {}
        allocations = []
        for lab in labels:
            if lab not in mapping:
                if len(mapping) == 2:
                    raise ValueError(f"more than two group labels: {[*mapping, lab]!r}")
                mapping[lab] = len(mapping) + 1
            allocations.append(mapping[lab])
        return cls(values, allocations)

    @property
    def n1(self) -> int:
        return int(self.group1.size)

    @property
    def n2(self) -> int:
        return int(self.group2.size)

    def __len__(self) -> int:
        return int(self.values.size)


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

    The within-group variance divides by the group size N_k, not N_k - 1;
    the conditional updates in :mod:`mixtt.gibbs` are stated in terms of
    this convention.
    """
    g1, g2 = sample.group1, sample.group2
    ybar1 = float(g1.mean())
    ybar2 = float(g2.mean())
    return SufficientStats(
        n1=g1.size,
        n2=g2.size,
        ybar1=ybar1,
        ybar2=ybar2,
        s2y1=float(np.mean((g1 - ybar1) ** 2)),
        s2y2=float(np.mean((g2 - ybar2) ** 2)),
    )


# (B0 multiplier, c0, C0) per named preset; b0 is always the pooled mean.
_PRESET_TABLE = {
    "wide": (10.0, 0.01, 0.01),
    "medium": (5.0, 0.1, 0.1),
    "narrow": (1.0, 1.0, 1.0),
}


def realize_preset(preset: PriorPreset, sample: GroupedSample) -> IndependencePrior:
    """Turn a preset into concrete hyperparameters for the given data.

    Named presets center b0 at the pooled sample mean and scale B0 with
    the pooled sample variance (divisor N - 1), so they are only weakly
    informative at the scale of the data.

    Raises
    ------
    ValueError
        If the pooled sample variance is zero.
    """
    xbar = float(sample.values.mean())
    s2 = float(sample.values.var(ddof=1))
    if s2 <= 0.0:
        raise ValueError("pooled sample variance is zero; a data-scaled prior is undefined")
    mult, c0, C0 = _PRESET_TABLE[preset.kind]
    return IndependencePrior(b0=xbar, B0=mult * s2, c0=c0, C0=C0)


def pooled_sd(sigma2_1, sigma2_2, n1: int, n2: int):
    """Pooled standard deviation sqrt(((n1-1)*v1 + (n2-1)*v2) / (n1+n2-2)).

    Accepts scalars or equally shaped arrays for the two variances. For
    n1 == n2 this reduces exactly to sqrt((v1 + v2) / 2).

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
        # algebraically the same, but keeps the balanced case exact in floats
        out = np.sqrt((v1 + v2) / 2.0)
    else:
        out = np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    return float(out) if out.ndim == 0 else out
