"""Exception types raised by mixtt.

Every error is a :class:`MixttError`, which subclasses ``ValueError`` so
callers that do not care about the distinctions can catch broadly.
"""


class MixttError(ValueError):
    """Base class for all mixtt errors."""


class EmptyGroup(MixttError):
    """One of the two groups has no observations."""


class DegenerateData(MixttError):
    """The data carry no variance where variance is required."""


class InsufficientSize(MixttError):
    """Too few observations for the requested computation."""


class NonPositiveVariance(MixttError):
    """A variance parameter must be strictly positive."""


class NonPositiveParameter(MixttError):
    """A shape or scale parameter must be strictly positive."""


class InvalidLevel(MixttError):
    """A credible level must lie in (0, 1]."""


class DegenerateDraws(MixttError):
    """All posterior draws are identical; no density estimate exists."""


class ConfigInvalid(MixttError):
    """A configuration object violates its invariants."""


class UnknownScenario(MixttError):
    """Requested simulation scenario is not one of the built-ins."""


class ParseError(MixttError):
    """An input file could not be parsed; the message carries the line number."""
