"""Two-sided Welch's t-test, the frequentist comparison baseline."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import regularized_incomplete_beta
from .model import GroupedSample


@dataclass(frozen=True)
class WelchResult:
    t_statistic: float
    df: float
    p_value: float


def welch_t_test(sample: GroupedSample) -> WelchResult:
    """Welch's unequal-variance t-test with Welch-Satterthwaite degrees of freedom.

    Group means and unbiased (divisor n-1) variances come from the sample's
    ``moments1`` and ``moments2``. The two-sided p-value is I_x(df/2, 1/2),
    x = df/(df + t^2), computed directly to keep its relative tail precision.

    Raises
    ------
    ValueError
        If either group has fewer than two observations or both group
        variances are zero.
    """
    n1, n2 = sample.n1, sample.n2
    if n1 < 2 or n2 < 2:
        raise ValueError(f"each group needs >= 2 observations, got {n1} and {n2}")
    ybar1, ssd1 = sample.moments1
    ybar2, ssd2 = sample.moments2
    v1, v2 = ssd1 / (n1 - 1), ssd2 / (n2 - 1)
    if v1 == 0.0 and v2 == 0.0:
        raise ValueError("both group variances are zero; the t statistic is undefined")
    q1 = v1 / n1
    q2 = v2 / n2
    se2 = q1 + q2
    t = (ybar1 - ybar2) / se2**0.5
    # df is scale-free; a power-of-two rescale keeps the squares from underflowing
    k = math.frexp(se2)[1]
    q1, q2 = math.ldexp(q1, -k), math.ldexp(q2, -k)
    df = (q1 + q2) ** 2 / (q1**2 / (n1 - 1) + q2**2 / (n2 - 1))
    p = regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t))
    return WelchResult(t_statistic=t, df=df, p_value=p)
