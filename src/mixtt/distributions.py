"""Seedable random variates and distribution functions.

The generator is a self-contained xoshiro256++ (seeded through splitmix64),
so identical seeds give bit-identical 64-bit word sequences on every
platform and Python/numpy version. Platform-default generators make no such
promise. The float variates are built from those words through libm
(``exp``, ``log``, ``sqrt`` and ``pow``), so they are bit-identical across
runs on one platform (which byte-stable output files rely on) but may
differ in the last ulp where another platform's libm rounds differently.

Variate algorithms: normal draws use a 128-layer ziggurat (Marsaglia and
Tsang 2000, J. Stat. Softw. 5(8)) that takes the layer, the sign and the
magnitude from disjoint bits of one word, so that the layer and the value
are independent (Doornik 2005); gamma draws use the Marsaglia-Tsang
squeeze method with the shape<1 boost, and the regularized incomplete beta
function behind Welch p-values is a continued fraction evaluated with
Lentz's algorithm.

The generator, :func:`standard_normal`, :func:`sample_normal` and
:func:`sample_inverse_gamma` have bit-identical C twins in ``_kernel.c``:
:func:`mixtt.gibbs.run_chain` draws a whole chain's variates there, and
:func:`mixtt.harness.generate_dataset` draws a group's normals there, each
continuing the stream from :meth:`RngState.state_words`. The functions here
stay the reference definitions and the fallback where no kernel is built.
The ziggurat tables ``ZIGGURAT_X`` and ``ZIGGURAT_F`` are computed here
alone, and the kernel is handed them when it is loaded.
"""

from __future__ import annotations

import math
import operator

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# 2^-53, so ((u64 >> 11) + 0.5) * _U53 is uniform on the open interval (0, 1)
_U53 = 1.0 / (1 << 53)


def _ziggurat_tables(layers: int, r: float, v: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Edges x[0..layers] and heights f[k] = exp(-x[k]^2 / 2) of the normal ziggurat.

    Layer k covers [0, x[k]) by [f[k], f[k+1]), and every layer has area
    ``v``. Layer 0 is the base strip of width v / f(r), which also holds the
    tail beyond x[1] = r. The edges fall to x[layers] = 0, where f is 1.
    """
    x = [v / math.exp(-0.5 * r * r), r]
    for _ in range(layers - 2):
        x.append(math.sqrt(-2.0 * math.log(v / x[-1] + math.exp(-0.5 * x[-1] * x[-1]))))
    x.append(0.0)
    return tuple(x), tuple(math.exp(-0.5 * xk * xk) for xk in x)


# Marsaglia and Tsang's tail start and layer area for 128 layers
ZIGGURAT_R = 3.442619855899
ZIGGURAT_X, ZIGGURAT_F = _ziggurat_tables(128, ZIGGURAT_R, 9.91256303526217e-3)


def _splitmix64_at(seed: int, index: int) -> int:
    """Return output ``index`` (1-based) of the splitmix64 stream seeded at ``seed``."""
    z = (seed + index * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> int:
    """Return ``seed`` if it is an int in [0, 2**64), else ValueError (TypeError for a bool or non-int)."""
    if isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, not the bool {seed}")
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed of ``seed``, which must pass :func:`check_seed`.

    Child seeds are consecutive outputs of a splitmix64 stream, so streams
    built from them are statistically independent of each other and of the
    parent. Use this to split randomness across datasets, presets, or any
    other concurrent consumers; never share one RngState between them.
    """
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return _splitmix64_at(check_seed(seed), index + 1)


class RngState:
    """xoshiro256++ generator state, seeded by an integer that passes :func:`check_seed`.

    A state is single-owner and advances sequentially; it must not be
    copied or shared. Independent streams come from :func:`derive_seed`.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        seed = check_seed(seed)
        # never all-zero: odd gamma, so four distinct inputs; bijective finalizer, so at most one 0 word
        self._s0 = _splitmix64_at(seed, 1)
        self._s1 = _splitmix64_at(seed, 2)
        self._s2 = _splitmix64_at(seed, 3)
        self._s3 = _splitmix64_at(seed, 4)

    def state_words(self) -> tuple[int, int, int, int]:
        """The four 64-bit state words, from which the compiled kernel continues the stream."""
        return self._s0, self._s1, self._s2, self._s3

    def set_state_words(self, words) -> None:
        """Move the state to the four 64-bit words the compiled kernel advanced it to."""
        self._s0, self._s1, self._s2, self._s3 = words

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit word."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s0 + s3) & _MASK64
        result = (((x << 23) & _MASK64 | (x >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s0, self._s1, self._s2 = s0, s1, s2
        self._s3 = (s3 << 45) & _MASK64 | (s3 >> 19)
        return result

    def random_unit(self) -> float:
        """Uniform double on the open interval (0, 1); log-safe at both ends."""
        return ((self.next_u64() >> 11) + 0.5) * _U53


def _normal_tail(rng: RngState) -> float:
    """Marsaglia's draw of N(0, 1) beyond ``ZIGGURAT_R``; two uniforms a try."""
    while True:
        x = -math.log(rng.random_unit()) / ZIGGURAT_R
        y = -math.log(rng.random_unit())
        if y + y >= x * x:
            return ZIGGURAT_R + x


def standard_normal(rng: RngState) -> float:
    """One N(0, 1) variate from the ziggurat; one word a try, plus uniforms off the fast path.

    A word's bits 0-6 pick the layer, bit 7 the sign and bits 11-63 the
    magnitude. About 97 % of draws use that one word alone. A wedge test
    draws one more uniform and may reject the try; layer 0 past its
    rectangle draws the tail, two uniforms a try.
    """
    x_edge, f_edge = ZIGGURAT_X, ZIGGURAT_F
    while True:
        w = rng.next_u64()
        k = w & 127
        x = (w >> 11) * _U53 * x_edge[k]
        if x < x_edge[k + 1]:
            break
        if k == 0:
            x = _normal_tail(rng)
            break
        if f_edge[k + 1] + (f_edge[k] - f_edge[k + 1]) * rng.random_unit() < math.exp(-0.5 * x * x):
            break
    return -x if w & 128 else x


def sample_normal(rng: RngState, mean: float, variance: float) -> float:
    """Draw from N(mean, variance).

    Raises
    ------
    ValueError
        If ``variance <= 0``.
    """
    if variance <= 0.0:
        raise ValueError(f"variance must be > 0, got {variance}")
    return mean + math.sqrt(variance) * standard_normal(rng)


def _standard_gamma(rng: RngState, shape: float) -> float:
    """Marsaglia-Tsang draw from Gamma(shape, 1) for shape >= 1."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = standard_normal(rng)
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.random_unit()
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2:
            return d * v
        if math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            return d * v


def sample_inverse_gamma(rng: RngState, shape: float, scale: float) -> float:
    """Draw from IG(shape, scale), density proportional to x^(-shape-1) e^(-scale/x).

    Equals 1/g for g ~ Gamma(shape, rate=scale); always strictly positive.
    Shapes below one draw g with the boost g' * u^(1/shape) on a draw g'
    with shape+1.

    Raises
    ------
    ValueError
        If ``shape`` or ``scale`` is not finite and > 0.
    """
    if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
        raise ValueError(f"shape and scale must be finite and > 0, got ({shape}, {scale})")
    if shape < 1.0:
        g = _standard_gamma(rng, shape + 1.0)
        return 1.0 / (g * rng.random_unit() ** (1.0 / shape) / scale)
    return 1.0 / (_standard_gamma(rng, shape) / scale)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated with Lentz's algorithm."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-16:  # converged after the odd step
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    At Welch's arguments (a = df/2, b = 1/2, t from 1e-8 to 1e3) the worst
    relative error against ``scipy.special.betainc`` is 1e-14 at df = 10,
    3e-13 at df = 100, 8e-13 at 1e3, 1e-10 at 1e4, 6e-9 at 1e6 and 1e-7 at
    1e8, near t = 1.7. It grows about like a ln(a) times the float epsilon,
    most likely from the cancelling ``lgamma`` terms of ``ln_front``.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta parameters must be > 0, got ({a}, {b})")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b

