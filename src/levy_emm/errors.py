"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`LevyEmmError`, so
callers (and the CLI) can distinguish "bad input" from "numerics gave up"
without string matching.
"""

from __future__ import annotations

__all__ = [
    "LevyEmmError",
    "ValidationError",
    "NegativeVariance",
    "NonIntegrableLevyMeasure",
    "QuadratureFailure",
    "PsiUndefined",
    "ArbitrageMarketError",
    "NoFiniteMinimizer",
    "KappaOutsideI",
    "JumpBelowMinusOne",
    "PenaltyViolation",
    "UnsupportedMeasure",
    "DegenerateWeights",
    "MissingJumpRecords",
]


class LevyEmmError(Exception):
    """Base class for all package errors."""


class ValidationError(LevyEmmError, ValueError):
    """Malformed user input (parameters, model specs, CLI arguments)."""


class NegativeVariance(ValidationError):
    """A Gaussian variance parameter was negative."""


class NonIntegrableLevyMeasure(ValidationError):
    """min(1, x^2) is not integrable against the candidate jump measure."""


class QuadratureFailure(LevyEmmError):
    """Numerical integration could not reach the requested tolerance:
    a panel's bisection ran out of intervals, or a geometric panel sum
    neither converged nor, at the origin, settled into divergence; or a
    tilt overflowed a finite drift or atom mass."""


class PsiUndefined(LevyEmmError):
    """Both the positive and the negative part of the exponential first
    moment diverge, so the derivative of the moment function is
    undefined (NaN)."""


class ArbitrageMarketError(LevyEmmError):
    """The price process is a.s. monotone, so no equivalent measure can
    make it a martingale."""


class NoFiniteMinimizer(LevyEmmError):
    """The moment-function minimizer ran off to infinity; with a valid
    jump measure this indicates a numerical breakdown, not a model
    feature."""


class KappaOutsideI(LevyEmmError):
    """A tilt parameter lies outside the finite-moment interval."""


class JumpBelowMinusOne(ValidationError):
    """A linear market carries jumps of size <= -1 and therefore is not
    the stochastic exponential of any Levy process."""


class PenaltyViolation(ValidationError):
    """A tempering penalty violates one of its structural conditions."""


class UnsupportedMeasure(LevyEmmError):
    """The requested operation has no implementation for this jump
    measure variant."""


class DegenerateWeights(LevyEmmError):
    """Importance-sampling weights collapsed onto too few paths for the
    estimate to mean anything."""


class MissingJumpRecords(LevyEmmError):
    """A pathwise functional of the jumps was requested from a sample
    pack that was generated without jump recording."""
