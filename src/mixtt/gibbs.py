"""Single-block Gibbs sampler for the two-group Gaussian model.

Each sweep draws, in this fixed order, sigma2_1, sigma2_2 (inverse gamma,
conditioned on the current means) and then mu_1, mu_2 (normal, conditioned
on the variances just drawn). Exactly four variates are consumed per sweep,
always in that order, so a seed fixes the chain; the number of 64-bit
words per variate varies, because the gamma sampler and the ziggurat behind
every normal are rejection-based (about six words a sweep).
The integer stream behind a seed is the same everywhere, but the variates
go through libm and may differ in the last ulp across platforms (see
:mod:`mixtt.distributions`).

A sweep works on the sufficient statistics alone: the variance update's
residual sum of squares about mu_k is n_k * (s2y_k + (ybar_k - mu_k)^2),
an O(1) expression, so a sweep costs the same at any sample size.

:func:`run_chain` first tries the compiled kernel in ``_kernel.c``, which
runs the whole chain in C with the same float expressions in the same
order and so gives bit-identical draws. It is compiled with ``cc`` on the
first chain, dataset or input block of a process and cached in the package's
``__pycache__`` under a hash of its source and flags. Where no compiler or
cache works, and wherever the kernel gives up (on the first sweep that
draws a variance that is not finite and > 0 or a mean that is not finite,
as every sweep on which the Python code raises does), the chain runs in
Python through :func:`gibbs_sweep`, which stays the reference definition.

The C twins of the generator and of both variates in
:mod:`mixtt.distributions` serve the chain; loading the library hands it
the ziggurat tables of :mod:`mixtt.distributions`, which it does not
compute itself. The same library also holds a
twin of :func:`~mixtt.distributions.sample_normal` alone, through which
:func:`_normals` draws each group of :func:`mixtt.harness.generate_dataset`,
and the bulk value parse of :func:`mixtt.reports.read_sample_csv`: through
:func:`_scan_block`, one C pass over a plain block turns its lines into
values and raw label codes without a Python object per row. The scan takes
only values of a strict ASCII grammar. It converts those of up to 19
significant digits by Eisel-Lemire, with the table of powers of five that
:func:`_powers_of_five` builds and loading hands it, and the rest with
glibc's ``strtod``; both, like CPython's ``float()``, round correctly, so to
the same double. It declines a block at any other value, or where a
``strtod`` call stops early, as under a locale whose decimal point is not
``.`` (the Eisel-Lemire path, like ``float()``, reads ``.`` under any
locale), and the reader then reads that block and the rest of the file row
by row, as it reads every row without the kernel. This module alone
binds and calls the library; its one ``_kernel`` handle chooses the path for
all three, and tests select the Python path for chains, data and reading
alike by setting it to None.

The chain state is a plain ``(mu1, mu2, sigma2_1, sigma2_2)`` tuple of
floats; :func:`run_chain` and :func:`_normals` each allocate one array,
which the kernel or the Python loop then fills. Variance positivity is
checked where it is used, by :func:`mu_conditional_params`.

A chain is strictly sequential. Run concurrent chains through
:func:`map_chains`, each on an independently derived seed
(:func:`mixtt.distributions.derive_seed`), never by sharing one RngState.
On the kernel path it runs one share of the chains per usable CPU, the
caller's included.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.util
import operator
import os
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import ZIGGURAT_F, ZIGGURAT_X, RngState, check_seed, sample_inverse_gamma, sample_normal
from .model import GroupedSample, IndependencePrior, SufficientStats, compute_sufficient_stats

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# Fixed flags: FMA contraction, -ffast-math or -march=native would change
# the draws, so the kernel would no longer match the Python sweep.
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# the most distinct raw labels _scan_block takes in one block: two groups, written a few ways
_SCAN_LABELS = 4
_UNLOADED = object()
# the compiled library, with run_chain, normals and scan_block bound; None where it cannot be built or loaded
_kernel = _UNLOADED
# the process-wide pool of map_chains' shares besides the caller's, started on first use; _lock guards both lazy starts
_pool = None
_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child, whose copy of the pool has no threads and whose lock may be held."""
    global _pool, _lock
    _pool, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def check_chain_length(iterations: int, burn_in: int) -> int:
    """Return ``iterations - burn_in``, the kept sweeps: ints, not bools, with 0 <= burn_in < iterations."""
    if isinstance(iterations, bool) or isinstance(burn_in, bool):
        raise TypeError(f"iterations and burn-in must be integers, not bools: {iterations}, {burn_in}")
    iterations, burn_in = operator.index(iterations), operator.index(burn_in)
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0 <= burn_in < iterations:
        raise ValueError(f"burn-in must satisfy 0 <= burn_in < iterations, got {burn_in} vs {iterations}")
    return iterations - burn_in


@dataclass(frozen=True)
class ChainConfig:
    """Sweep count and burn-in (see :func:`check_chain_length`), seed (:func:`check_seed`) and prior."""

    iterations: int
    burn_in: int
    seed: int
    prior: IndependencePrior

    def __post_init__(self):
        check_chain_length(self.iterations, self.burn_in)
        check_seed(self.seed)


@dataclass(frozen=True)
class PosteriorChain:
    """Post-burn-in draws of (mu1, mu2, sigma2_1, sigma2_2): the rows of one (4, kept) array."""

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
    items 1 and 7 drop it.
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
    """Chain start at the group empirical moments; a sweep reads only the means."""
    return stats.ybar1, stats.ybar2, stats.s2y1, stats.s2y2


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


def _powers_of_five() -> list[int]:
    """The kernel's Eisel-Lemire table: for q in [-342, 308], the 128 leading bits of 5^q, high word first.

    For q >= 0 they are 5^q's own bits, truncated; for q < 0, those of
    floor(2^b / 5^-q) + 1 for a b that leaves at least 128 bits, truncated, as
    in Lemire's fast_float. Exact integer arithmetic, about 2 ms.
    """
    words = []
    for q in range(-342, 309):
        if q < 0:
            z = (5 ** -q).bit_length()
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5 ** -q + 1
        else:
            c = 5 ** q
        c = c << max(0, 128 - c.bit_length()) >> max(0, c.bit_length() - 128)
        words += [c >> 64, c & 0xFFFF_FFFF_FFFF_FFFF]
    return words


def _bind_kernel(path: Path):
    lib = ctypes.CDLL(str(path))
    u64_p = ctypes.POINTER(ctypes.c_uint64)
    double_p = ctypes.POINTER(ctypes.c_double)
    lib.run_chain.argtypes = [u64_p, double_p, double_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    lib.run_chain.restype = ctypes.c_int
    lib.normals.argtypes = [u64_p, ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_void_p]
    lib.normals.restype = None
    lib.scan_block.argtypes = [ctypes.c_char_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                               ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)]
    lib.scan_block.restype = ctypes.c_int64
    lib.set_ziggurat.argtypes = [double_p, double_p]
    lib.set_ziggurat.restype = None
    lib.set_powers_of_five.argtypes = [u64_p]
    lib.set_powers_of_five.restype = None
    table = ctypes.c_double * len(ZIGGURAT_X)
    lib.set_ziggurat(table(*ZIGGURAT_X), table(*ZIGGURAT_F))
    powers = _powers_of_five()
    lib.set_powers_of_five((ctypes.c_uint64 * len(powers))(*powers))
    return lib


def _load_kernel():
    """The compiled library, built on first use; None if it cannot be built or loaded.

    The shared library is cached in the package's ``__pycache__`` as
    ``_kernel-<sys.implementation.cache_tag>-<key>.so``, keyed by the
    interpreter's own :func:`importlib.util.source_hash` of the source and
    flags (``hashlib`` would load OpenSSL); a fresh build removes that
    interpreter's older builds. Where the directory is not writable, it is
    built in a private temporary directory for this process only.
    """
    import subprocess  # imported here to keep it out of import time
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        key = importlib.util.source_hash(_KERNEL_SOURCE.read_bytes() + " ".join(_KERNEL_FLAGS).encode())
        tag = sys.implementation.cache_tag
        path = _KERNEL_SOURCE.parent / "__pycache__" / f"_kernel-{tag}-{key.hex()}.so"
        if not path.exists():
            try:
                path.parent.mkdir(exist_ok=True)
                _compile_kernel(cc, path)
            except OSError:
                with tempfile.TemporaryDirectory(prefix="mixtt-kernel-") as private:
                    path = Path(private) / path.name
                    _compile_kernel(cc, path)
                    return _bind_kernel(path)
            for stale in set(path.parent.glob(f"_kernel-{tag}-*.so")) - {path}:
                with contextlib.suppress(OSError):
                    stale.unlink()
        return _bind_kernel(path)
    except (OSError, subprocess.CalledProcessError):
        return None


def _loaded_kernel():
    """The ``_kernel`` handle, loading the library on the first call of a process."""
    global _kernel
    if _kernel is _UNLOADED:
        with _lock:
            if _kernel is _UNLOADED:
                _kernel = _load_kernel()
    return _kernel


def map_chains(fn, items) -> list:
    """``[fn(x) for x in items]``, run as one share per usable CPU, the caller's included.

    The kernel releases the interpreter lock for a whole chain or data draw;
    the Python sweep does not, so there, and with one item or one usable CPU,
    the items run serially. Otherwise the caller runs one share and a
    process-wide pool of ``cpus - 1`` threads, sized on first use, runs the
    rest; each share takes the next index from one shared iterator until an
    item raises. The call ends only once every share has, and raises the
    exception of the lowest-index item that raised, as the serial loop would.
    ``fn`` must not call map_chains.
    """
    global _pool
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if _loaded_kernel() is None or len(items) < 2 or cpus < 2:
        return [fn(x) for x in items]
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept out of import time: analyze never needs it
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="mixtt-chain")
    results = [None] * len(items)
    failures = {}  # item index -> the exception it raised
    indices = iter(range(len(items)))  # next() on a range iterator is atomic under the GIL

    def share() -> None:
        for i in indices:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised below, once every share has finished
                failures[i] = exc
            if failures:  # checked before the next index is taken: every index taken runs, so every lower one did
                return

    shares = [_pool.submit(share) for _ in range(min(cpus, len(items)) - 1)]
    try:
        share()
    finally:
        for pooled in shares:
            pooled.result()  # share() records every exception of fn, so this only waits
    if failures:
        raise failures[min(failures)]
    return results


def _normals(rng: RngState, mean: float, variance: float, n: int) -> np.ndarray:
    """An array of n draws of N(mean, variance), as n calls of sample_normal would make them."""
    out = np.empty(n)
    kernel = _loaded_kernel()
    if kernel is None or variance <= 0.0:  # sample_normal raises on such a variance
        for i in range(n):
            out[i] = sample_normal(rng, mean, variance)
        return out
    words = (ctypes.c_uint64 * 4)(*rng.state_words())
    kernel.normals(words, mean, variance, n, out.ctypes.data)
    rng.set_state_words(words)
    return out


def _scan_block(text: bytes, limit: int) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """A plain block's values, its rows' raw label codes and its raw labels, scanned in C.

    ``text`` is a block of ``value,label`` lines in UTF-8; the raw labels are
    the label fields as written, unstripped, in order of first appearance, and
    row i's label is ``labels[codes[i]]``. None where the kernel is absent or
    declines the block: a line with other than one comma or over ``limit``
    bytes, a value that is not a finite number of the grammar
    ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?`` over ASCII digits, or more than
    _SCAN_LABELS distinct raw labels. The values equal ``float()``'s bit for bit.
    """
    kernel = _loaded_kernel()
    if kernel is None:
        return None
    room = (len(text) + 1) // 3  # a row takes at least three bytes: a digit, its comma and its newline
    values, codes = np.empty(room), np.empty(room, np.uint8)
    spans = (ctypes.c_int64 * (1 + 2 * _SCAN_LABELS))()
    rows = kernel.scan_block(text, len(text), limit, _SCAN_LABELS, values.ctypes.data, codes.ctypes.data, spans)
    if rows < 0:
        return None
    labels = [text[spans[1 + 2 * k]:spans[2 + 2 * k]].decode() for k in range(spans[0])]
    return values[:rows], codes[:rows], labels


def chain_block(kept: int) -> np.ndarray:
    """The uninitialized (4, kept) block whose rows hold a chain's draws; MemoryError if too large."""
    return np.empty((4, kept))


def run_chain(sample: GroupedSample, config: ChainConfig) -> PosteriorChain:
    """Run a seeded chain and return the post-burn-in draws in sweep order."""
    kernel = _loaded_kernel()
    stats = compute_sufficient_stats(sample)
    prior = config.prior
    rng = RngState(config.seed)
    kept = config.iterations - config.burn_in
    draws = chain_block(kept)
    gave_up = kernel is None or kernel.run_chain(
        (ctypes.c_uint64 * 4)(*rng.state_words()),
        (ctypes.c_double * 6)(stats.n1, stats.n2, stats.ybar1, stats.ybar2, stats.s2y1, stats.s2y2),
        (ctypes.c_double * 4)(prior.b0, prior.B0, prior.c0, prior.C0),
        config.burn_in, kept, draws.ctypes.data,
    )
    if gave_up:
        mu1, mu2, s2_1, s2_2 = draws  # row views: a column store draws[:, i] is markedly slower
        current = initial_draw(stats)
        for i in range(-config.burn_in, kept):
            current = gibbs_sweep(current, sample, stats, prior, rng)
            if i >= 0:
                mu1[i], mu2[i], s2_1[i], s2_2[i] = current
    return PosteriorChain(*draws, stats)
