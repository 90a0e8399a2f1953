"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own
class so that sweep drivers can catch solver trouble per grid point
without masking programming errors.
"""

from __future__ import annotations


class SpinSqueezeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SpinSqueezeError, ValueError):
    """An input lies outside the physically meaningful range."""


class ConvergenceError(SpinSqueezeError):
    """An iterative computation failed to reach its tolerance."""


class StabilityError(SpinSqueezeError):
    """The drift matrix is not strictly stable: moments and trajectories diverge."""


class ResidualError(SpinSqueezeError):
    """A linear solve finished but its residual is unacceptably large."""


class PhysicalityError(SpinSqueezeError):
    """A computed moment violates a positivity requirement."""


class ConfigError(SpinSqueezeError):
    """A configuration file or override could not be interpreted."""
