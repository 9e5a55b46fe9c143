"""Characteristic triplets and their moment functions.

A triplet ``(b, sigma2, nu)`` is stated relative to the truncation
``h(x) = x * 1_{|x| <= INNER_CUT}`` with ``INNER_CUT = 1``.  The two
workhorses are

* ``cumulant``: ``c(κ) = bκ + σ²κ²/2 + ∫(e^{κx} - 1 - κh(x)) ν(dx)``, with
  ``c(0) = 0`` exactly and value ``+inf`` outside the finite-moment set;
* ``cumulant_derivative``: ``c'(κ) = b + σ²κ + ∫(x e^{κx} - h(x)) ν(dx)``,
  which may take either infinity or (when both tail parts blow up) no
  extended-real value at all.

The terminal-time moment functions ``mgf = exp(T c)`` and
``mgf_derivative = mgf * T * c'`` are thin wrappers over those two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from ..errors import (JumpBelowMinusOne, NegativeVariance,
                      NonIntegrableLevyMeasure, PsiUndefined, ValidationError)
from .extreal import ExtReal, NEG_INF, POS_INF
from .measures import (ExpJumpImage, FiniteAtomic, LevyMeasure, LogJumpImage,
                       zero_measure)
from .quadrature import (DEFAULT_SETTINGS, INNER_CUT, QuadratureSettings,
                         SidePlan, exp_integrand, expm1_minus_x,
                         one_sided_integral, small_jump_variation, tail_mass,
                         two_sided_integral)

__all__ = [
    "LevyTriplet",
    "ValidatedTriplet",
    "validate_triplet",
    "as_validated",
    "cumulant",
    "cumulant_derivative",
    "mgf",
    "mgf_derivative",
    "Monotonicity",
    "is_monotone",
    "geometric_to_linear",
    "linear_to_geometric",
]


@dataclass(frozen=True)
class LevyTriplet:
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


@dataclass(frozen=True)
class ValidatedTriplet:
    """A triplet together with the two integrability facts that every
    downstream routine needs anyway."""

    triplet: LevyTriplet
    small_jump_variation: float  # ∫_{0<|x|<=1} x^2 ν(dx)
    large_jump_mass: float       # ν({|x| > 1})

    @property
    def b(self) -> float:
        return self.triplet.b

    @property
    def sigma2(self) -> float:
        return self.triplet.sigma2

    @property
    def nu(self) -> LevyMeasure:
        return self.triplet.nu


@lru_cache(maxsize=512)
def _validate_cached(t: LevyTriplet, q: QuadratureSettings) -> ValidatedTriplet:
    nu = t.nu
    if not nu.right_tail().moment_finite(0, 0.0) or not nu.left_tail().moment_finite(0, 0.0):
        raise NonIntegrableLevyMeasure("declared tail decay has infinite mass")
    sjv = small_jump_variation(nu, q)  # raises NonIntegrableLevyMeasure if infinite
    ljm = tail_mass(nu, q)
    return ValidatedTriplet(t, sjv, ljm)


def validate_triplet(t: LevyTriplet,
                     q: QuadratureSettings = DEFAULT_SETTINGS) -> ValidatedTriplet:
    """Check the triplet is a genuine Levy triplet and cache the basic
    integrability facts.

    Raises NegativeVariance (at construction already) or
    NonIntegrableLevyMeasure.
    """
    return _validate_cached(t, q)


TripletLike = Union[LevyTriplet, ValidatedTriplet]


def as_validated(t: TripletLike, q: QuadratureSettings = DEFAULT_SETTINGS) -> ValidatedTriplet:
    if isinstance(t, ValidatedTriplet):
        return t
    return validate_triplet(t, q)


# ---------------------------------------------------------------------------
# cumulant and its derivative
# ---------------------------------------------------------------------------


def _atoms_cumulant_jumps(atoms, kappa: float) -> float:
    total = []
    with np.errstate(over="ignore"):
        for p, m in atoms:
            u = kappa * p
            if abs(p) <= INNER_CUT:
                total.append(m * float(expm1_minus_x(np.asarray(u))))
            else:
                total.append(m * float(np.expm1(u)))
    return math.fsum(total)


def cumulant(t: TripletLike, kappa: float,
             q: QuadratureSettings = DEFAULT_SETTINGS) -> ExtReal:
    """``c(κ)`` per unit time, as an extended real (``+inf`` outside the
    finite-moment set; never ``-inf`` or undefined)."""
    vt = as_validated(t, q)
    kappa = float(kappa)
    if kappa == 0.0:
        return ExtReal.finite(0.0)
    base = vt.b * kappa + 0.5 * vt.sigma2 * kappa * kappa
    nu = vt.nu
    if nu.is_zero:
        return ExtReal.finite(base)

    atoms = nu.atoms()
    if atoms is not None:
        return ExtReal.finite(base + _atoms_cumulant_jumps(atoms, kappa))

    right_ok = nu.right_tail().moment_finite(0, kappa)
    left_ok = nu.left_tail().moment_finite(0, -kappa)
    # e^{κx} - 1 is positive wherever it diverges, on either side
    tail = exp_integrand(kappa, factor=np.expm1)
    right = SidePlan(tail, right_ok, +1)
    left = SidePlan(tail, left_ok, +1)
    inner = exp_integrand(kappa, factor=expm1_minus_x)
    jumps, _ = two_sided_integral(nu, q, inner_g=inner, right=right, left=left)
    return ExtReal.finite(base) + jumps


def cumulant_derivative(t: TripletLike, kappa: float,
                        q: QuadratureSettings = DEFAULT_SETTINGS) -> ExtReal:
    """``c'(κ) = b + σ²κ + ∫(x e^{κx} - h(x)) ν(dx)`` as an extended real.

    The undefined state (both tail parts infinite) is returned as
    ``ExtReal`` "undefined"; raising is left to :func:`mgf_derivative`.
    """
    vt = as_validated(t, q)
    kappa = float(kappa)
    base = vt.b + vt.sigma2 * kappa
    nu = vt.nu
    if nu.is_zero:
        return ExtReal.finite(base)

    atoms = nu.atoms()
    if atoms is not None:
        parts = []
        with np.errstate(over="ignore"):
            for p, m in atoms:
                if abs(p) <= INNER_CUT:
                    val = p * float(np.expm1(kappa * p))  # x(e^{κx}-1) = xe^{κx}-h
                else:
                    val = p * float(np.exp(kappa * p))
                parts.append(m * val)
        return ExtReal.finite(base + math.fsum(parts))

    right_ok = nu.right_tail().moment_finite(1, kappa)
    left_ok = nu.left_tail().moment_finite(1, -kappa)
    tail = exp_integrand(kappa, power=1)
    right = SidePlan(tail, right_ok, +1)
    left = SidePlan(tail, left_ok, -1)
    if kappa == 0.0:
        inner = None  # x e^{0x} - h(x) vanishes identically inside the cut
    else:
        inner = exp_integrand(kappa, factor=np.expm1, power=1)
    jumps, _ = two_sided_integral(nu, q, inner_g=inner, right=right, left=left)
    return ExtReal.finite(base) + jumps


def mgf(t: TripletLike, horizon: float, kappa: float,
        q: QuadratureSettings = DEFAULT_SETTINGS) -> ExtReal:
    """``E[e^{κ L_T}] = exp(T c(κ))`` as an extended real."""
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    c = cumulant(t, kappa, q)
    if c.is_pos_inf:
        return POS_INF
    with np.errstate(over="ignore"):
        return ExtReal.finite(float(np.exp(horizon * c.value)))


def mgf_derivative(t: TripletLike, horizon: float, kappa: float,
                   q: QuadratureSettings = DEFAULT_SETTINGS) -> ExtReal:
    """``ψ_T(κ) = φ_T(κ) T c'(κ) = E[L_T e^{κ L_T}]`` as an extended real.

    Outside the finite-moment interval the value is ``+inf`` (to the right)
    or ``-inf`` (to the left).  Raises :class:`PsiUndefined` when positive
    and negative parts diverge simultaneously.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    m = cumulant_derivative(t, kappa, q)
    if m.is_undefined:
        raise PsiUndefined(f"positive and negative parts both diverge at {kappa}")
    c = cumulant(t, kappa, q)
    if c.is_pos_inf:
        return POS_INF if kappa > 0 else NEG_INF
    with np.errstate(over="ignore"):
        phi = float(np.exp(horizon * c.value))
    return ExtReal.finite(phi * horizon) * m


# ---------------------------------------------------------------------------
# pathwise monotonicity (arbitrage test)
# ---------------------------------------------------------------------------


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NOT_MONOTONE = "not_monotone"


def _small_jump_first_variation(nu: LevyMeasure, side: int,
                                q: QuadratureSettings) -> float:
    """``∫_{0 < side*x <= 1} |x| ν(dx)``, possibly ``inf``."""
    atoms = nu.atoms()
    if atoms is not None:
        return math.fsum(m * abs(p) for p, m in atoms
                         if abs(p) <= INNER_CUT and p * side > 0)
    return one_sided_integral(nu, side, 1, 0.0, INNER_CUT, q)


def is_monotone(t: TripletLike, q: QuadratureSettings = DEFAULT_SETTINGS) -> Monotonicity:
    """Classify the paths as a.s. increasing, a.s. decreasing, or neither.

    A monotone (and non-constant) price admits arbitrage, so downstream
    solvers refuse those models.  The constant process (no drift, no noise,
    no jumps) is reported as not monotone: it already is a martingale.
    """
    vt = as_validated(t, q)
    nu = vt.nu
    if vt.sigma2 > 0.0:
        return Monotonicity.NOT_MONOTONE
    pos = nu.has_positive_jumps() and not nu.is_zero
    neg = nu.has_negative_jumps() and not nu.is_zero
    if pos and neg:
        return Monotonicity.NOT_MONOTONE
    if not pos and not neg:
        if vt.b > 0.0:
            return Monotonicity.INCREASING
        if vt.b < 0.0:
            return Monotonicity.DECREASING
        return Monotonicity.NOT_MONOTONE
    side = +1 if pos else -1
    fv = _small_jump_first_variation(nu, side, q)
    if math.isinf(fv):
        # infinite variation in the small jumps: paths oscillate
        return Monotonicity.NOT_MONOTONE
    drift = vt.b - side * fv  # drift of the finite-variation representation
    if side > 0:
        return Monotonicity.INCREASING if drift >= 0.0 else Monotonicity.NOT_MONOTONE
    return Monotonicity.DECREASING if drift <= 0.0 else Monotonicity.NOT_MONOTONE


# ---------------------------------------------------------------------------
# linear <-> geometric market conversions
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def _up_to_ln2(x: np.ndarray) -> np.ndarray:
    return np.where(x <= _LN2, 1.0, 0.0)


def _conversion_drift_integral(nu: LevyMeasure, q: QuadratureSettings) -> float:
    """``∫ [ (e^x - 1) 1_{|e^x-1|<=1} - h(x) ] ν(dx)``.

    The integrand is x²/2 + O(x³) at the origin, equals ``e^x - 1`` below
    -1, ``-x`` on (ln 2, 1], and vanishes above 1.
    """

    def g_full(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        price = np.expm1(x)
        keep_price = np.where(np.abs(price) <= 1.0, price, 0.0)
        keep_log = np.where(np.abs(x) <= INNER_CUT, x, 0.0)
        return keep_price - keep_log

    atoms = nu.atoms()
    if atoms is not None:
        positions = np.array([p for p, _ in atoms])
        masses = np.array([m for _, m in atoms])
        return float(math.fsum(masses * np.asarray(g_full(positions))))
    if nu.is_zero:
        return 0.0

    # on [-1, ln 2]: e^x - 1 - x, series-safe near zero; on (ln 2, 1]: -x,
    # a first moment; below -1: e^x - 1, bounded, so always convergent;
    # above 1 the integrand vanishes
    val, _ = two_sided_integral(
        nu, q,
        inner_g=exp_integrand(1.0, factor=expm1_minus_x,
                              prefactor=_up_to_ln2),
        right=SidePlan(None, True),
        left=SidePlan(exp_integrand(1.0, factor=np.expm1), True),
        breakpoints=(_LN2,),
    )
    return val.value - one_sided_integral(nu, +1, 1, _LN2, INNER_CUT, q)


def geometric_to_linear(t: TripletLike, q: QuadratureSettings = DEFAULT_SETTINGS) -> LevyTriplet:
    """Triplet of the stochastic-exponential representation.

    Given the log-price triplet (the process ``X`` with ``S = S0 e^X``),
    return the triplet of the process ``L`` with ``S = S0 ℰ(L)``: jumps map
    through ``x -> e^x - 1``, the Gaussian part is unchanged, and the drift
    picks up ``σ²/2`` plus the truncation-mismatch integral.
    """
    vt = as_validated(t, q)
    nu = vt.nu
    if isinstance(nu, LogJumpImage):
        nu_lin: LevyMeasure = nu.base
    elif nu.is_zero:
        nu_lin = zero_measure()
    elif nu.atoms() is not None:
        nu_lin = FiniteAtomic(tuple((math.expm1(p), m) for p, m in nu.atoms()))
    else:
        nu_lin = ExpJumpImage(nu)
    drift = vt.b + 0.5 * vt.sigma2 + _conversion_drift_integral(nu, q)
    return LevyTriplet(drift, vt.sigma2, nu_lin)


def linear_to_geometric(t: TripletLike, q: QuadratureSettings = DEFAULT_SETTINGS) -> LevyTriplet:
    """Inverse of :func:`geometric_to_linear`.

    Raises :class:`JumpBelowMinusOne` when the linear market jumps to or
    below -1 (its exponential would hit zero or go negative), and
    :class:`UnsupportedMeasure` for density measures whose behaviour near
    -1 cannot be described by this package's tail metadata.
    """
    vt = as_validated(t, q)
    nu = vt.nu

    atoms = nu.atoms()
    if atoms is not None and any(p <= -1.0 for p, _ in atoms):
        raise JumpBelowMinusOne("atom at or below -1")
    if atoms is None and not isinstance(nu, ExpJumpImage) and nu.has_negative_jumps():
        left = nu.left_tail()
        if not (left.kind == "bounded" and left.cutoff <= 1.0):
            raise JumpBelowMinusOne("jump measure has mass at or below -1")

    if isinstance(nu, ExpJumpImage):
        nu_geo: LevyMeasure = nu.base
    elif nu.is_zero:
        nu_geo = zero_measure()
    elif atoms is not None:
        nu_geo = FiniteAtomic(tuple((math.log1p(p), m) for p, m in atoms))
    else:
        nu_geo = LogJumpImage(nu)  # may raise UnsupportedMeasure

    drift = vt.b - 0.5 * vt.sigma2 - _conversion_drift_integral(nu_geo, q)
    return LevyTriplet(drift, vt.sigma2, nu_geo)
