"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``category`` so the CLI can
report failures uniformly and map them to exit codes.
"""

from __future__ import annotations

import math
import numbers


class SqnregError(Exception):
    """Base class for all errors raised by this package."""

    category = "internal"


class GridError(SqnregError):
    category = "grid"


class FeatureError(SqnregError):
    category = "feature"


class SpectralError(SqnregError):
    category = "spectral"


class MeasureError(SqnregError):
    category = "measure"


class RegularizerError(SqnregError):
    category = "regularizer"


class OptimError(SqnregError):
    category = "optim"


class FormatError(SqnregError):
    """Malformed or unreadable file content (PGM, field files, manifests)."""

    category = "format"


class ConfigError(SqnregError):
    category = "config"


def check_real(value, error: type[SqnregError], what: str, low: float = 0.0,
               closed: bool = False) -> None:
    """Raise ``error`` naming ``what`` and ``value`` unless ``value`` is a
    finite real, not ``bool``, above ``low`` (or at it when ``closed``)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or not (value >= low if closed else value > low)):
        raise error(f"{what}, got {value!r}")
