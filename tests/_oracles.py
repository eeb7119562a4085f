"""Independent oracles used by the test suite.

These deliberately compute the same quantities as the package by different
routes: brute-force enumeration for HPD intervals, 2-D quadrature for the
per-group posterior, iid draws from the exact posterior (a 1-D grid in
log v with the mean integrated out) for effect-size summaries, batch
means for Monte Carlo standard errors, one csv-module loop over a
whole file for the CSV reader, and a ``csv.writer`` row loop for the plot
CSV. They must stay independent of the
implementation they check.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import simpson

from mixtt.analysis import cohen_partition
from mixtt.model import GroupedSample


def shortest_covering_interval(values, level):
    """Brute force over all pairs: the narrowest [d_i, d_j] holding >= ceil(level*m) draws.

    Ties in width resolve to the smallest lower bound, scanning pairs in
    sorted order.
    """
    d = sorted(float(v) for v in values)
    m = len(d)
    w = max(1, math.ceil(level * m))
    best = None
    for i in range(m):
        for j in range(i, m):
            if j - i + 1 < w:
                continue
            width = d[j] - d[i]
            if best is None or width < best[0]:
                best = (width, d[i], d[j])
    assert best is not None
    return best[1], best[2]


def mu_conditional_params_conjugate(sigma2_k, n_k, ybar_k, b0, N0):
    """Conjugate-form mean update (b_k, B_k), where the prior variance is sigma2_k / N0.

    The sampler uses the independence form instead, the one compatible with
    data-scaled B0 presets; with B0 = sigma2_k / N0 the two must agree.
    """
    denom = N0 + n_k
    return (N0 * b0 + n_k * ybar_k) / denom, sigma2_k / denom


def group_posterior_moments(values, prior, n_mu=1601, n_logv=2001, v_span=1e4, mu_pad=14.0):
    """Posterior moments of (mu, v) for one Gaussian group by 2-D quadrature.

    Model: y_i ~ N(mu, v) iid, mu ~ N(b0, B0), v ~ IG(c0, C0). Integrates the
    unnormalized posterior on a tensor grid (uniform in mu, uniform in log v)
    with Simpson's rule and asserts that the grid captures the mass.

    Returns a dict with mean_mu, var_mu, mean_v, var_v, cov_mu_v.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    ybar = float(y.mean())
    s2 = float(np.mean((y - ybar) ** 2))

    shape = prior.c0 + 0.5 * n
    c_star = prior.C0 + 0.5 * n * max(s2, 1e-12)
    v_center = c_star / max(shape - 1.0, 0.5)

    t = np.linspace(math.log(v_center / v_span), math.log(v_center * v_span), n_logv)
    v = np.exp(t)

    sd_mu = math.sqrt(1.0 / (1.0 / prior.B0 + n / (4.0 * v_center)))
    half = mu_pad * max(sd_mu, math.sqrt(v_center / n))
    mu = np.linspace(min(ybar, prior.b0) - half, max(ybar, prior.b0) + half, n_mu)

    # sum_i (y_i - mu)^2 = n*s2 + n*(ybar - mu)^2
    s_mu = n * s2 + n * (ybar - mu) ** 2
    log_post = (
        -(0.5 * n) * np.log(v)[:, None]
        - s_mu[None, :] / (2.0 * v[:, None])
        - (mu[None, :] - prior.b0) ** 2 / (2.0 * prior.B0)
        - (prior.c0 + 1.0) * np.log(v)[:, None]
        - prior.C0 / v[:, None]
    )
    g = np.exp(log_post - log_post.max())

    w0 = simpson(g, x=mu, axis=1)
    w1 = simpson(g * mu[None, :], x=mu, axis=1)
    w2 = simpson(g * mu[None, :] ** 2, x=mu, axis=1)

    # the heaviest-tailed integrand must have died out at the grid edges
    heavy = w0 * v**3
    assert heavy[0] < 1e-8 * heavy.max() and heavy[-1] < 1e-8 * heavy.max(), "v grid too narrow"
    assert g[:, 0].max() < 1e-12 and g[:, -1].max() < 1e-12, "mu grid too narrow"

    z = simpson(w0 * v, x=t)
    mean_mu = simpson(w1 * v, x=t) / z
    mean_mu2 = simpson(w2 * v, x=t) / z
    mean_v = simpson(w0 * v**2, x=t) / z
    mean_v2 = simpson(w0 * v**3, x=t) / z
    mean_muv = simpson(w1 * v**2, x=t) / z
    return {
        "mean_mu": mean_mu,
        "var_mu": mean_mu2 - mean_mu**2,
        "mean_v": mean_v,
        "var_v": mean_v2 - mean_v**2,
        "cov_mu_v": mean_muv - mean_mu * mean_v,
    }


def exact_group_posterior_draws(values, prior, size, rng, n_grid=4001, span=40.0):
    """Iid draws of (mu, v) from the exact posterior of one Gaussian group.

    Same model as :func:`group_posterior_moments`. With mu integrated out
    analytically, the marginal posterior of v is known up to a constant; it
    is tabulated on a uniform grid in t = log v and sampled by inverting its
    piecewise-linear CDF. Each mu is then drawn from its exact normal
    conditional given v. ``rng`` is a ``numpy.random.Generator``.

    Returns two arrays (mu, v) of length ``size``.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    ybar = float(y.mean())
    ss = float(np.sum((y - ybar) ** 2))

    # IG(shape, c_star) is the posterior of v when mu is known to be ybar;
    # in t its spread is about 1/sqrt(shape), so the grid scales with that
    shape = prior.c0 + 0.5 * n
    c_star = prior.C0 + 0.5 * ss
    center = math.log(c_star / shape)
    t = np.linspace(center - span / math.sqrt(shape), center + span / math.sqrt(shape), n_grid)
    v = np.exp(t)

    # log p(t | y) = log p(v | y) + t. Integrating mu out of
    # v^-(c0+1) e^(-C0/v) v^(-n/2) e^(-ss/(2v)) e^(-n(ybar-mu)^2/(2v)) N(mu; b0, B0)
    # leaves v^-(c0+1+n/2) e^(-c_star/v) (n/v + 1/B0)^(-1/2) e^(-(ybar-b0)^2 / (2(v/n + B0)))
    log_dens = (
        -shape * t
        - c_star / v
        - 0.5 * np.log(n / v + 1.0 / prior.B0)
        - (ybar - prior.b0) ** 2 / (2.0 * (v / n + prior.B0))
    )
    log_dens -= log_dens.max()
    assert log_dens[0] < -30.0 and log_dens[-1] < -30.0, "log v grid too narrow"
    dens = np.exp(log_dens)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))])
    cdf /= cdf[-1]

    v_draws = np.exp(np.interp(rng.random(size), cdf, t))
    precision = n / v_draws + 1.0 / prior.B0
    mean = (n * ybar / v_draws + prior.b0 / prior.B0) / precision
    mu_draws = mean + rng.standard_normal(size) / np.sqrt(precision)
    return mu_draws, v_draws


def shortest_window(sorted_draws, level):
    """Narrowest [d_i, d_{i+w-1}] of sorted draws with w = ceil(level * m).

    The vectorized counterpart of :func:`shortest_covering_interval`, for
    draw counts where enumerating all pairs is too slow.
    """
    d = np.asarray(sorted_draws, dtype=float)
    w = max(1, math.ceil(level * d.size))
    widths = d[w - 1 :] - d[: d.size - w + 1]
    j = int(np.argmin(widths))
    return float(d[j]), float(d[j + w - 1])


def exact_delta_summaries(group1, group2, prior, level, cell, rng, size, mc_draws):
    """Exact-posterior HPD and cell mass of delta = (mu2 - mu1) / pooled sd.

    Draws ``size`` iid values of delta from :func:`exact_group_posterior_draws`
    for each group. Returns a dict with:

    - ``lower``, ``upper``: the level-HPD endpoints
    - ``mean``: the posterior mean of delta
    - ``mass``: the posterior probability of the cell [lo, hi) given as ``cell``
    - ``se_lower``, ``se_upper``, ``se_mass``: the Monte Carlo standard
      error that an estimate of each statistic from ``mc_draws`` iid draws
      carries, measured as the spread of the statistic over disjoint
      batches of ``mc_draws`` of these draws. The error of the returned
      values themselves is this times sqrt(mc_draws / size).
    """
    n1, n2 = len(group1), len(group2)
    mu1, v1 = exact_group_posterior_draws(group1, prior, size, rng)
    mu2, v2 = exact_group_posterior_draws(group2, prior, size, rng)
    deltas = (mu2 - mu1) / np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))

    def stats(d):
        lower, upper = shortest_window(np.sort(d), level)
        mass = np.count_nonzero((d >= cell[0]) & (d < cell[1])) / d.size
        return lower, upper, mass

    lower, upper, mass = stats(deltas)
    n_batches = size // mc_draws
    batches = np.array([stats(b) for b in deltas[: n_batches * mc_draws].reshape(n_batches, mc_draws)])
    se = batches.std(axis=0, ddof=1)
    return {
        "lower": lower,
        "upper": upper,
        "mean": float(deltas.mean()),
        "mass": mass,
        "se_lower": float(se[0]),
        "se_upper": float(se[1]),
        "se_mass": float(se[2]),
    }


def batch_mean_se(x, n_batches=100):
    """Batch-means estimate of (mean, its standard error) for correlated draws."""
    x = np.asarray(x, dtype=float)
    m = x.size // n_batches
    batches = x[: m * n_batches].reshape(n_batches, m)
    means = batches.mean(axis=1)
    return float(means.mean()), float(means.std(ddof=1) / math.sqrt(n_batches))


def batch_var_se(x, n_batches=100):
    """Batch-means estimate of (variance, its standard error)."""
    x = np.asarray(x, dtype=float)
    m = x.size // n_batches
    batches = x[: m * n_batches].reshape(n_batches, m)
    variances = batches.var(axis=1, ddof=1)
    return float(variances.mean()), float(variances.std(ddof=1) / math.sqrt(n_batches))


def batch_cov_se(x, y, n_batches=100):
    """Batch-means estimate of (covariance, its standard error)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.size // n_batches
    covs = np.empty(n_batches)
    for b in range(n_batches):
        xs = x[b * m : (b + 1) * m]
        ys = y[b * m : (b + 1) * m]
        covs[b] = np.mean((xs - xs.mean()) * (ys - ys.mean())) * m / (m - 1)
    return float(covs.mean()), float(covs.std(ddof=1) / math.sqrt(n_batches))


def ks_distance(draws, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    d = np.sort(np.asarray(draws, dtype=float))
    n = d.size
    f = cdf(d)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def density_grid_broadcast(draws):
    """``analysis.density_grid`` as one broadcast over every (grid point, draw) pair.

    The package evaluates the same expression in the same order a few grid
    points at a time, in place in one reused block; the two must agree bit
    for bit, since each grid point's sum runs over the same row of terms.
    """
    grid = np.linspace(draws.min(), draws.max(), 512)
    sd = float(draws.std(ddof=1))
    q25, q75 = np.percentile(draws, [25.0, 75.0])
    spread = min(sd, (q75 - q25) / 1.34)
    if spread <= 0.0:
        spread = sd
    h = 0.9 * spread * draws.size ** (-0.2)
    dens = np.exp(-0.5 * ((grid[:, None] - draws[None, :]) / h) ** 2).sum(axis=1)
    return grid, dens * (1.0 / (draws.size * h * math.sqrt(2.0 * math.pi)))


def write_plot_rows_reference(grid, dens, hpd, path):
    """``reports.write_plot_rows`` as one ``csv.writer`` row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x", "y"])
        for x, y in zip(grid, dens):
            writer.writerow(["density", repr(float(x)), repr(float(y))])
        writer.writerow(["hpd_lower", repr(hpd.lower), ""])
        writer.writerow(["hpd_upper", repr(hpd.upper), ""])
        for _, lo, _ in cohen_partition():
            if math.isfinite(lo):
                writer.writerow(["rope_boundary", repr(lo), ""])


def read_rows_reference(path):
    """``reports.read_sample_csv`` as one csv-module loop over the whole file, a row at a time.

    The package reads plain blocks in bulk and hands the first other block,
    and the rest of the file, to its own row loop; every file must give the
    same groups, bit for bit, or the same error. A csv-module error names its
    row's line, and undecodable text its line and byte offset in the file.
    """
    groups = {}  # label -> values, labels in order of first appearance
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # tolerates a UTF-8 BOM
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise ValueError(f"{path}: line 1: {exc}") from None
            if header is None:
                raise ValueError(f"{path}: empty file")
            header = [h.strip().lower() for h in header]
            if header != ["value", "group"]:
                raise ValueError(f"{path}: line 1: expected header 'value,group', got {','.join(header)!r}")
            lineno = 1  # the last row read
            try:
                for lineno, row in enumerate(reader, start=2):
                    if not row or (len(row) == 1 and not row[0].strip()):
                        continue  # blank line
                    if len(row) != 2:
                        raise ValueError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
                    try:
                        if "_" in row[0]:  # float() would read 1_0 as 10
                            raise ValueError
                        value = float(row[0])
                    except ValueError:
                        raise ValueError(f"{path}: line {lineno}: not a number: {row[0]!r}") from None
                    if not math.isfinite(value):
                        raise ValueError(f"{path}: line {lineno}: not a finite number: {row[0]!r}")
                    label = row[1].strip()
                    if not label:
                        raise ValueError(f"{path}: line {lineno}: empty group label")
                    if label not in groups and len(groups) == 2:
                        raise ValueError(
                            f"{path}: line {lineno}: more than two group labels: {[*groups, label]!r}"
                        )
                    groups.setdefault(label, []).append(value)
            except csv.Error as exc:
                raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    except UnicodeDecodeError:
        raise _undecodable_line(path) from None
    if not groups:
        raise ValueError(f"{path}: no data rows")
    try:
        return GroupedSample(*[*groups.values(), []][:2])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _undecodable_line(path):
    """The error for the file's first undecodable byte, found a line at a time.

    A line keeps its end (LF, CRLF or a lone CR), and no line end is part of a
    multibyte sequence, so each line decodes as it does inside the whole file.
    """
    offset = 0
    with open(path, "rb") as fh:
        for number, line in enumerate(fh.read().splitlines(keepends=True), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}: line {number}: can't decode byte 0x{line[exc.start]:02x} "
                                  f"at file offset {offset + exc.start}: {exc.reason}")
            offset += len(line)
    raise AssertionError(f"{path} decodes")
