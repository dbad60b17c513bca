"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic ``ValueError``/``TypeError`` are reserved for plain misuse
of the Python API (wrong types, malformed shapes).
"""

from __future__ import annotations


class QcurvError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QcurvError):
    """An input's spatial dimension is inconsistent with the context."""


class PolynomialFormatError(QcurvError):
    """A polynomial could not be parsed from text or JSON."""


class GridMismatch(QcurvError):
    """Two objects live on different radial grids, or a grid parameter
    conflicts with the operation's requirements."""


class ConfigError(QcurvError):
    """A solver configuration violates a validation rule.

    The message always names the rule that failed so that callers (and the
    command line tool) can surface an actionable diagnostic.
    """


class TailNotNegligible(QcurvError):
    """A quadrature over the truncated domain cannot certify that the
    neglected tail is below the requested tolerance."""
