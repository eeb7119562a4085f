"""Single-block Gibbs sampler for the two-group Gaussian model.

Each sweep draws, in this fixed order, sigma2_1, sigma2_2 (inverse gamma,
conditioned on the current means) and then mu_1, mu_2 (normal, conditioned
on the variances just drawn). Exactly four variates are consumed per sweep,
always in that order, so a seed fixes the chain; the number of underlying
uniforms per variate varies because the gamma sampler is rejection-based.
The integer stream behind a seed is the same everywhere, but the variates
go through libm and may differ in the last ulp across platforms (see
:mod:`mixtt.distributions`).

A sweep works on the sufficient statistics alone: the variance update's
residual sum of squares about mu_k is n_k * (s2y_k + (ybar_k - mu_k)^2),
an O(1) expression, so a sweep costs the same at any sample size.

:func:`run_chain` first tries the compiled kernel in ``_kernel.c``, which
runs the whole chain in C with the same float expressions in the same
order and so gives bit-identical draws. It is compiled with ``cc`` on the
first chain of a process and cached in the package's ``__pycache__`` under
a hash of its source and flags. Where no compiler or cache works, and
wherever the kernel gives up (on any input where the Python sweep would
raise or carry a non-finite value), the chain runs in Python through
:func:`gibbs_sweep`, which stays the reference definition. Tests select the
Python path by setting the module's ``_kernel`` handle to None.

The chain state is a plain ``(mu1, mu2, sigma2_1, sigma2_2)`` tuple of
floats; :func:`run_chain` writes the kept sweeps straight into
preallocated arrays. Variance positivity is checked where it is used, by
:func:`mu_conditional_params`.

A chain is strictly sequential. Run concurrent chains on independently
derived seeds (:func:`mixtt.distributions.derive_seed`), never by sharing
one RngState.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import RngState, sample_inverse_gamma, sample_normal
from .model import GroupedSample, IndependencePrior, SufficientStats, compute_sufficient_stats

# floor for the variance initialization so constant-valued groups can start
_MIN_INIT_VARIANCE = 1e-8

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# Fixed flags: FMA contraction, -ffast-math or -march=native would change
# the draws, so the kernel would no longer match the Python sweep.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_UNLOADED = object()
# the compiled chain function; None where it cannot be built or loaded
_kernel = _UNLOADED


@dataclass(frozen=True)
class ChainConfig:
    """Sweep count, burn-in, seed, and prior for one chain."""

    iterations: int
    burn_in: int
    seed: int
    prior: IndependencePrior

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError(
                f"burn-in must satisfy 0 <= burn_in < iterations, got "
                f"{self.burn_in} vs {self.iterations}"
            )


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in draws of (mu1, mu2, sigma2_1, sigma2_2), stored column-wise."""

    mu1: np.ndarray = field(repr=False)
    mu2: np.ndarray = field(repr=False)
    sigma2_1: np.ndarray = field(repr=False)
    sigma2_2: np.ndarray = field(repr=False)
    stats: SufficientStats


def mu_conditional_params(
    sigma2_k: float, n_k: int, ybar_k: float, prior: IndependencePrior
) -> tuple[float, float]:
    """Posterior (b_k, B_k) of a group mean given that group's variance.

    B_k = 1 / (1/B0 + n_k / sigma2_k) and b_k = B_k * (n_k*ybar_k/sigma2_k
    + b0/B0).
    """
    if sigma2_k <= 0.0:
        raise ValueError(f"sigma2_k must be > 0, got {sigma2_k}")
    inv_B0 = 1.0 / prior.B0
    B_k = 1.0 / (inv_B0 + n_k / sigma2_k)
    b_k = B_k * (n_k * ybar_k / sigma2_k + prior.b0 * inv_B0)
    return b_k, B_k


def sigma2_conditional_params(
    mu_k: float, group_values: np.ndarray, prior: IndependencePrior
) -> tuple[float, float]:
    """Posterior (c_k, C_k) of a group variance given that group's mean.

    c_k = c0 + N_k/2 and C_k = C0 + (1/2) * sum((y_i - mu_k)^2) over the
    group; an empty group returns (c0, C0). The sweep uses the O(1)
    :func:`sigma2_params_from_stats` instead; this O(n) form stays as the
    definition that tests check it against.
    """
    values = np.asarray(group_values, dtype=float)
    c_k = prior.c0 + 0.5 * values.size
    resid = values - mu_k
    C_k = prior.C0 + 0.5 * float(resid @ resid)
    return c_k, C_k


def sigma2_params_from_stats(
    mu_k: float, n_k: int, ybar_k: float, s2y_k: float, prior: IndependencePrior
) -> tuple[float, float]:
    """:func:`sigma2_conditional_params` from a group's size, mean and variance, in O(1).

    sum((y_i - mu_k)^2) = N_k * (s2y_k + (ybar_k - mu_k)^2) with the
    divisor-N_k variance s2y_k. The compiled kernel repeats these
    expressions exactly.
    """
    r = ybar_k - mu_k
    return prior.c0 + 0.5 * n_k, prior.C0 + 0.5 * n_k * (s2y_k + r * r)


def gibbs_sweep(
    current: tuple[float, float, float, float],
    sample: GroupedSample,
    stats: SufficientStats,
    prior: IndependencePrior,
    rng: RngState,
) -> tuple[float, float, float, float]:
    """Advance the chain state (mu1, mu2, sigma2_1, sigma2_2) by one full sweep.

    ``sample`` is unused: the sweep needs only ``stats``. The argument stays
    because the benchmark's layer ladder binds this call form; ROADMAP.md
    items 1 and 9 drop it.
    """
    c1, C1 = sigma2_params_from_stats(current[0], stats.n1, stats.ybar1, stats.s2y1, prior)
    s2_1 = sample_inverse_gamma(rng, c1, C1)
    c2, C2 = sigma2_params_from_stats(current[1], stats.n2, stats.ybar2, stats.s2y2, prior)
    s2_2 = sample_inverse_gamma(rng, c2, C2)
    b1, B1 = mu_conditional_params(s2_1, stats.n1, stats.ybar1, prior)
    mu1 = sample_normal(rng, b1, B1)
    b2, B2 = mu_conditional_params(s2_2, stats.n2, stats.ybar2, prior)
    mu2 = sample_normal(rng, b2, B2)
    return mu1, mu2, s2_1, s2_2


def initial_draw(stats: SufficientStats) -> tuple[float, float, float, float]:
    """Chain start at the group empirical moments (variances floored above zero)."""
    return (
        stats.ybar1,
        stats.ybar2,
        max(stats.s2y1, _MIN_INIT_VARIANCE),
        max(stats.s2y2, _MIN_INIT_VARIANCE),
    )


def _sha256(data: bytes):
    """SHA-256 from the interpreter's own module where it has one.

    ``hashlib`` loads OpenSSL, which raised a run's peak RSS by about 3.7 MB.
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def _compile_kernel(cc: str, path: Path) -> None:
    """Compile the kernel to a temporary name beside ``path``, then move it into place."""
    import subprocess
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([cc, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _bind_kernel(path: Path):
    fn = ctypes.CDLL(str(path)).run_chain
    double_p = ctypes.POINTER(ctypes.c_double)
    fn.argtypes = [ctypes.POINTER(ctypes.c_uint64), double_p, double_p, ctypes.c_int64,
                   ctypes.c_int64, *[ctypes.c_void_p] * 4]
    fn.restype = ctypes.c_int
    return fn


def _load_kernel():
    """The compiled chain function, built on first use; None if it cannot be built or loaded.

    The shared library is cached in the package's ``__pycache__`` under the
    SHA-256 of the source and flags. Where that directory is not writable,
    it is built in a private temporary directory for this process only.
    """
    import subprocess  # imported here to keep it out of import time
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        key = _sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_KERNEL_FLAGS).encode())
        path = _KERNEL_SOURCE.parent / "__pycache__" / f"_kernel-{key.hexdigest()[:16]}.so"
        if not path.exists():
            try:
                path.parent.mkdir(exist_ok=True)
                _compile_kernel(cc, path)
            except OSError:
                with tempfile.TemporaryDirectory(prefix="mixtt-kernel-") as private:
                    path = Path(private) / path.name
                    _compile_kernel(cc, path)
                    return _bind_kernel(path)
        return _bind_kernel(path)
    except (OSError, subprocess.CalledProcessError):
        return None


def run_chain(sample: GroupedSample, config: ChainConfig) -> PosteriorChain:
    """Run a seeded chain and return the post-burn-in draws in sweep order."""
    global _kernel
    if _kernel is _UNLOADED:
        _kernel = _load_kernel()
    stats = compute_sufficient_stats(sample)
    prior = config.prior
    rng = RngState(config.seed)
    kept = config.iterations - config.burn_in
    mu1 = np.empty(kept)
    mu2 = np.empty(kept)
    s2_1 = np.empty(kept)
    s2_2 = np.empty(kept)
    gave_up = _kernel is None or _kernel(
        (ctypes.c_uint64 * 4)(*rng.state_words()),
        (ctypes.c_double * 6)(stats.n1, stats.n2, stats.ybar1, stats.ybar2, stats.s2y1, stats.s2y2),
        (ctypes.c_double * 4)(prior.b0, prior.B0, prior.c0, prior.C0),
        config.burn_in, kept, mu1.ctypes.data, mu2.ctypes.data, s2_1.ctypes.data, s2_2.ctypes.data,
    )
    if gave_up:
        current = initial_draw(stats)
        for _ in range(config.burn_in):
            current = gibbs_sweep(current, sample, stats, prior, rng)
        for j in range(kept):
            current = gibbs_sweep(current, sample, stats, prior, rng)
            mu1[j], mu2[j], s2_1[j], s2_2[j] = current
    return PosteriorChain(mu1, mu2, s2_1, s2_2, stats)
