"""Host speed reference for the end-to-end timings.

The benchmark's host is a shared 2-vCPU VM whose speed swings by ±15-30 %
on time scales from a fraction of a second to minutes, with no steal time
reported, so CPU time is no steadier than wall time. A fixed reference pass
timed at the same moments swings the same way, provided it is sampled
densely, and a CLI call lasts seconds. So :class:`SpeedProbe` times one
pass from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time. That is
during the calls, in the same thread; Python runs the handler between
bytecodes. :meth:`SpeedProbe.clock` excludes the probe's own time from
every timing.

A pass comes in two kinds, and each workload uses the one that tracks its
calls. Spreads of ten seeded runs (chains_per_s / call_ms_p50):
- ``interpreter``, an integer and float loop, suits the interpreter-bound
  chains of ``study`` (3.1 % / 2.7 %, against 6.5 % / 9.0 % with the mixed
  pass) and ``sensitivity`` (1.5 % / 2.9 %).
- ``mixed`` adds numpy work over the array shapes of a large ``analyze``
  call, whose slowdowns hit numpy's memory traffic (1.9 % / 3.6 %, against
  12.1 % / 11.4 % with the interpreter pass).

The end-to-end timings are reported at nominal host speed: they are scaled
by the mean pass time over the pass's ``NOMINAL_MS``, a typical pass time
on that host. The raw, unscaled figures are kept in every result record.
The pass belongs to the benchmark, not to mixtt, so a change to the package
cannot move it.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

# Typical pass time of each kind on the 2-core x86-64 host (Python 3.11.7)
# the baseline in README.md was recorded on, and its loop length.
NOMINAL_MS = {"interpreter": 1.2, "mixed": 1.5}
_LOOP = {"interpreter": 2_700, "mixed": 1_400}
# numpy work of a mixed pass: a residual and dot product over 20,000 values
# and a 16 x 5,000 kernel block, the array shapes of a large analyze call
_VALUES = np.linspace(-3.0, 3.0, 20_000)
_DRAWS = np.linspace(-1.0, 1.0, 5_000)
_GRID = np.linspace(-1.0, 1.0, 16)[:, None]
INTERVAL_S = 0.1
SETUP_PASSES = 100  # passes each set-up process runs after its READY line
_MASK64 = (1 << 64) - 1


def reference_ms(kind: str) -> float:
    """Time one reference pass of the given kind, in milliseconds."""
    t0 = perf_counter()
    a, b, x = 0x9E3779B97F4A7C15, 12345, 0.5
    for _ in range(_LOOP[kind]):
        a = (a * 6364136223846793005 + 1442695040888963407) & _MASK64
        b ^= a >> 17
        x = math.sqrt(x * 1.000001 + 0.25)
    if kind == "mixed":
        for _ in range(4):
            resid = _VALUES - x
            x = 0.5 + 1e-9 * float(resid @ resid)
        x += 1e-9 * float(np.exp(-0.5 * ((_GRID - _DRAWS[None, :]) / x) ** 2).sum())
    elapsed = perf_counter() - t0
    if b < 0 or not x > 0.0:  # keeps the loop's results live; never true
        raise ArithmeticError("reference loop went wrong")
    return elapsed * 1e3


def slowness(passes: list[float], kind: str) -> float:
    """Host slowness from pass times: 1 at nominal speed, above 1 when slower."""
    return sum(passes) / len(passes) / NOMINAL_MS[kind]


class SpeedProbe:
    """Context manager sampling ``reference_ms(kind)`` every INTERVAL_S from SIGALRM."""

    def __init__(self, kind: str):
        self.kind = kind
        self.passes: list[float] = []
        self._spent = 0.0  # seconds spent inside the handler

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.passes.append(reference_ms(self.kind))
        self._spent += perf_counter() - t0

    def clock(self) -> float:
        """``perf_counter`` less the time the probe itself has taken."""
        return perf_counter() - self._spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
