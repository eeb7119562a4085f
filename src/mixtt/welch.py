"""Two-sided Welch's t-test, the frequentist comparison baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import regularized_incomplete_beta
from .errors import DegenerateData, InsufficientSize
from .model import GroupedSample


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    df: float
    p_value: float


def welch_t_test(sample: GroupedSample) -> WelchResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite degrees of freedom.

    Uses unbiased (divisor n-1) group variances, as the test is standardly
    defined. The two-sided p-value is I_x(df/2, 1/2) with x = df/(df + t^2),
    computed directly so that it keeps its relative precision in the tail.

    Raises
    ------
    InsufficientSize
        If either group has fewer than two observations.
    DegenerateData
        If both group variances are zero.
    """
    g1, g2 = sample.group1, sample.group2
    n1, n2 = g1.size, g2.size
    if n1 < 2 or n2 < 2:
        raise InsufficientSize(f"each group needs >= 2 observations, got {n1} and {n2}")
    v1 = float(g1.var(ddof=1))
    v2 = float(g2.var(ddof=1))
    if v1 == 0.0 and v2 == 0.0:
        raise DegenerateData("both group variances are zero; the t statistic is undefined")
    q1 = v1 / n1
    q2 = v2 / n2
    se2 = q1 + q2
    t = (float(g1.mean()) - float(g2.mean())) / se2**0.5
    # df is scale-free; a power-of-two rescale keeps the squares from underflowing
    k = math.frexp(se2)[1]
    q1, q2 = math.ldexp(q1, -k), math.ldexp(q2, -k)
    df = (q1 + q2) ** 2 / (q1**2 / (n1 - 1) + q2**2 / (n2 - 1))
    p = regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
    return WelchResult(t_statistic=t, df=df, p_value=p)
