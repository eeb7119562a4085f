"""Seedable random variates and distribution functions.

The generator is a self-contained xoshiro256++ (seeded through splitmix64),
so identical seeds give bit-identical 64-bit word sequences on every
platform and Python/numpy version. Platform-default generators make no such
promise. The float variates are built from those words with ``math.log``,
``math.cos`` and ``math.sqrt``, so they are bit-identical across runs on one
platform (which byte-stable output files rely on) but may differ in the
last ulp where another platform's libm rounds differently.

Variate algorithms: normal draws use the Box-Muller transform (one value
per call, nothing cached), gamma draws use the Marsaglia-Tsang squeeze
method with the shape<1 boost, and the regularized incomplete beta function
behind Welch p-values is a continued fraction evaluated with Lentz's
algorithm.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# 2^-53, so ((u64 >> 11) + 0.5) * _U53 is uniform on the open interval (0, 1)
_U53 = 1.0 / (1 << 53)
_TWO_PI = 2.0 * math.pi


def _splitmix64_at(seed: int, index: int) -> int:
    """Return output ``index`` (1-based) of the splitmix64 stream seeded at ``seed``."""
    z = (seed + index * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive the ``index``-th child seed of ``seed``.

    Child seeds are consecutive outputs of a splitmix64 stream, so streams
    built from them are statistically independent of each other and of the
    parent. Use this to split randomness across datasets, presets, or any
    other concurrent consumers; never share one RngState between them.
    """
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return _splitmix64_at(int(seed) & _MASK64, index + 1)


class RngState:
    """xoshiro256++ generator state.

    A state is single-owner and advances sequentially; it must not be
    copied or shared. Independent streams come from :func:`derive_seed`.
    """

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        seed = int(seed) & _MASK64
        self._s0 = _splitmix64_at(seed, 1)
        self._s1 = _splitmix64_at(seed, 2)
        self._s2 = _splitmix64_at(seed, 3)
        self._s3 = _splitmix64_at(seed, 4)
        if self._s0 == self._s1 == self._s2 == self._s3 == 0:
            self._s0 = _SPLITMIX_GAMMA  # xoshiro must never start all-zero

    def state_words(self) -> tuple[int, int, int, int]:
        """The four 64-bit state words, from which the compiled chain continues the stream."""
        return self._s0, self._s1, self._s2, self._s3

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


def standard_normal(rng: RngState) -> float:
    """One N(0, 1) variate via Box-Muller; consumes exactly two uniforms."""
    u1 = ((rng.next_u64() >> 11) + 0.5) * _U53
    u2 = ((rng.next_u64() >> 11) + 0.5) * _U53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), accurate to about 1e-14."""
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

