"""Characteristic triplets and their moment functions.

A triplet ``(b, sigma2, nu)`` is stated relative to the truncation
``h(x) = x * 1_{|x| <= INNER_CUT}`` with ``INNER_CUT = 1``.  The two
workhorses are

* ``cumulant``: ``c(κ) = bκ + σ²κ²/2 + ∫(e^{κx} - 1 - κh(x)) ν(dx)``, with
  ``c(0) = 0`` exactly and value ``+inf`` outside the finite-moment set;
* ``cumulant_derivative``: ``c'(κ) = b + σ²κ + ∫(x e^{κx} - h(x)) ν(dx)``,
  which may take either infinity or, when both tail parts blow up, NaN.

Every moment function returns a Python ``float``: ``inf`` outside the
moment set, NaN where the integral is undefined, so each caller tests
``math.isfinite`` or ``math.isnan`` before it uses the value.

The terminal-time moment functions ``mgf = exp(T c)`` and
``mgf_derivative = mgf * T * c'`` are thin wrappers over those two.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from ..errors import (JumpBelowMinusOne, NegativeVariance,
                      NonIntegrableLevyMeasure, PsiUndefined, ValidationError)
from .measures import ExpJumpImage, FiniteAtomic, LevyMeasure, LogJumpImage
from .quadrature import (INNER_CUT, exp_integrand, expm1_minus_x,
                         one_sided_integral, small_jump_variation, tail_mass,
                         two_sided_integral)
from .record import Record

__all__ = [
    "LevyTriplet",
    "validate_triplet",
    "cumulant",
    "cumulant_derivative",
    "mgf",
    "mgf_derivative",
    "Monotonicity",
    "is_monotone",
    "geometric_to_linear",
    "linear_to_geometric",
]


class LevyTriplet(Record):
    """Drift, Gaussian variance and jump measure of a Levy process."""

    b: float
    sigma2: float
    nu: LevyMeasure

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not math.isfinite(self.b):
            raise ValidationError(f"drift must be finite, got {self.b}")
        if not math.isfinite(self.sigma2) or self.sigma2 < 0.0:
            raise NegativeVariance(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if not isinstance(self.nu, LevyMeasure):
            raise TypeError("nu must be a LevyMeasure")

    def describe(self) -> dict:
        return {"b": self.b, "sigma2": self.sigma2, "nu": self.nu.describe()}


@lru_cache(maxsize=512)
def _validate_cached(nu: LevyMeasure) -> None:
    if not all(nu.side(s).moment_finite(0, 0.0) for s in (1, -1)):
        raise NonIntegrableLevyMeasure("declared tail decay has infinite mass")
    small_jump_variation(nu)  # each raises NonIntegrableLevyMeasure if inf
    tail_mass(nu)


def validate_triplet(t: LevyTriplet) -> LevyTriplet:
    """Check that ``t`` is a genuine Levy triplet and return it.

    The constructor has already checked the drift and the variance, so
    only the jump measure is checked here (once per measure, cached).
    Raises NonIntegrableLevyMeasure.
    """
    _validate_cached(t.nu)
    return t


# ---------------------------------------------------------------------------
# cumulant and its derivative
# ---------------------------------------------------------------------------


def cumulant(t: LevyTriplet, kappa: float) -> float:
    """``c(κ)`` per unit time (``+inf`` outside the finite-moment set;
    never ``-inf`` or NaN)."""
    validate_triplet(t)
    kappa = float(kappa)
    if kappa == 0.0:
        return 0.0
    base = t.b * kappa + 0.5 * t.sigma2 * kappa * kappa
    tail = exp_integrand(kappa, factor=np.expm1)
    inner = exp_integrand(kappa, factor=expm1_minus_x)
    jumps, _ = two_sided_integral(t.nu, inner_g=inner, right=tail, left=tail)
    return base + jumps


def cumulant_derivative(t: LevyTriplet, kappa: float) -> float:
    """``c'(κ) = b + σ²κ + ∫(x e^{κx} - h(x)) ν(dx)``.

    ``±inf`` where one tail part diverges, NaN where both do (``inf -
    inf``); raising is left to :func:`mgf_derivative`.
    """
    validate_triplet(t)
    kappa = float(kappa)
    base = t.b + t.sigma2 * kappa
    tail = exp_integrand(kappa, power=1)
    if kappa == 0.0:
        inner = None  # x e^{0x} - h(x) vanishes identically inside the cut
    else:
        inner = exp_integrand(kappa, factor=np.expm1, power=1)
    jumps, _ = two_sided_integral(t.nu, inner_g=inner, right=tail, left=tail)
    return base + jumps


def mgf(t: LevyTriplet, horizon: float, kappa: float) -> float:
    """``E[e^{κ L_T}] = exp(T c(κ))``, ``inf`` once that overflows."""
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    with np.errstate(over="ignore"):
        return float(np.exp(horizon * cumulant(t, kappa)))


def mgf_derivative(t: LevyTriplet, horizon: float, kappa: float) -> float:
    """``ψ_T(κ) = φ_T(κ) T c'(κ) = E[L_T e^{κ L_T}]``.

    Outside the finite-moment interval the value is ``+inf`` (to the right)
    or ``-inf`` (to the left).  Raises :class:`PsiUndefined` when positive
    and negative parts diverge simultaneously.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    m = cumulant_derivative(t, kappa)
    if math.isnan(m):
        raise PsiUndefined(f"positive and negative parts both diverge at {kappa}")
    c = cumulant(t, kappa)
    if c == math.inf:
        return math.inf if kappa > 0 else -math.inf
    with np.errstate(over="ignore"):
        phi = float(np.exp(horizon * c))
    return phi * horizon * m


# ---------------------------------------------------------------------------
# pathwise monotonicity (arbitrage test)
# ---------------------------------------------------------------------------


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NOT_MONOTONE = "not_monotone"


def is_monotone(t: LevyTriplet) -> Monotonicity:
    """Classify the paths as a.s. increasing, a.s. decreasing, or neither.

    A monotone (and non-constant) price admits arbitrage, so downstream
    solvers refuse those models.  The constant process (no drift, no noise,
    no jumps) is reported as not monotone: it already is a martingale.
    """
    nu = validate_triplet(t).nu
    if t.sigma2 > 0.0:
        return Monotonicity.NOT_MONOTONE
    pos, neg = nu.side(1).cutoff > 0, nu.side(-1).cutoff > 0
    if pos and neg:
        return Monotonicity.NOT_MONOTONE
    if not pos and not neg:
        if t.b > 0.0:
            return Monotonicity.INCREASING
        if t.b < 0.0:
            return Monotonicity.DECREASING
        return Monotonicity.NOT_MONOTONE
    side = +1 if pos else -1
    # first variation of the small jumps, ∫_{0 < side*x <= 1} |x| ν(dx)
    fv = one_sided_integral(nu, side, 1, 0.0, INNER_CUT)
    if math.isinf(fv):
        # infinite variation in the small jumps: paths oscillate
        return Monotonicity.NOT_MONOTONE
    drift = t.b - side * fv  # drift of the finite-variation representation
    if side > 0:
        return Monotonicity.INCREASING if drift >= 0.0 else Monotonicity.NOT_MONOTONE
    return Monotonicity.DECREASING if drift <= 0.0 else Monotonicity.NOT_MONOTONE


# ---------------------------------------------------------------------------
# linear <-> geometric market conversions
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def _up_to_ln2(x: np.ndarray) -> np.ndarray:
    return np.where(x <= _LN2, 1.0, 0.0)


def _conversion_drift_integral(nu: LevyMeasure) -> float:
    """``∫ [ (e^x - 1) 1_{|e^x-1|<=1} - h(x) ] ν(dx)``.

    The integrand is x²/2 + O(x³) at the origin, equals ``e^x - 1`` below
    -1, ``-x`` on (ln 2, 1], and vanishes above 1.
    """
    # on [-1, ln 2]: e^x - 1 - x, series-safe near zero; on (ln 2, 1]: -x,
    # a first moment; below -1: e^x - 1, bounded, so always convergent;
    # above 1 the integrand vanishes
    val, _ = two_sided_integral(
        nu,
        inner_g=exp_integrand(1.0, factor=expm1_minus_x,
                              prefactor=_up_to_ln2),
        left=exp_integrand(1.0, factor=np.expm1),
        breakpoints=(_LN2,),
    )
    return val - one_sided_integral(nu, +1, 1, _LN2, INNER_CUT)


def geometric_to_linear(t: LevyTriplet) -> LevyTriplet:
    """Triplet of the stochastic-exponential representation.

    Given the log-price triplet (the process ``X`` with ``S = S0 e^X``),
    return the triplet of the process ``L`` with ``S = S0 ℰ(L)``: jumps map
    through ``x -> e^x - 1``, the Gaussian part is unchanged, and the drift
    picks up ``σ²/2`` plus the truncation-mismatch integral.
    """
    nu = validate_triplet(t).nu
    if isinstance(nu, LogJumpImage):
        nu_lin: LevyMeasure = nu.base
    elif nu.atoms() is not None:
        nu_lin = FiniteAtomic(tuple((math.expm1(p), m) for p, m in nu.atoms()))
    else:
        nu_lin = ExpJumpImage(nu)
    drift = t.b + 0.5 * t.sigma2 + _conversion_drift_integral(nu)
    return LevyTriplet(drift, t.sigma2, nu_lin)


def linear_to_geometric(t: LevyTriplet) -> LevyTriplet:
    """Inverse of :func:`geometric_to_linear`.

    Raises :class:`JumpBelowMinusOne` when the linear market jumps to or
    below -1 (its exponential would hit zero or go negative), and
    :class:`UnsupportedMeasure` for density measures whose behaviour near
    -1 cannot be described by this package's tail metadata.
    """
    nu = validate_triplet(t).nu

    atoms = nu.atoms()
    if atoms is not None and any(p <= -1.0 for p, _ in atoms):
        raise JumpBelowMinusOne("atom at or below -1")
    if not nu.side(-1).cutoff <= 1.0:
        raise JumpBelowMinusOne("jump measure has mass at or below -1")

    if isinstance(nu, ExpJumpImage):
        nu_geo: LevyMeasure = nu.base
    elif atoms is not None:
        nu_geo = FiniteAtomic(tuple((math.log1p(p), m) for p, m in atoms))
    else:
        nu_geo = LogJumpImage(nu)  # may raise UnsupportedMeasure

    drift = t.b - 0.5 * t.sigma2 - _conversion_drift_integral(nu_geo)
    return LevyTriplet(drift, t.sigma2, nu_geo)
