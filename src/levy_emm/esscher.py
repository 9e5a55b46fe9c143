"""Exponential tilting of Levy triplets and martingale-measure solvers.

The tilt by ``e^{κx}`` maps a triplet ``(b, σ², ν)`` to another Levy
triplet; choosing ``κ`` so that the tilted process is driftless produces
the martingale measure of minimal relative entropy for the linear market.
This module provides the transform, the entropy formulas, root solvers
for the linear and geometric markets, and a consolidated report.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

import numpy as np

from .errors import KappaOutsideI, QuadratureFailure
from .levy_core.quadrature import exp_integrand, two_sided_integral
from .levy_core.record import Record
from .levy_core.triplets import (LevyTriplet, Monotonicity, cumulant,
                                 cumulant_derivative, geometric_to_linear,
                                 is_monotone, validate_triplet)
from .mgf_analysis import (EsscherCase, EsscherParameterStatus, brentq,
                           classify_esscher_parameter, exp_moment_interval,
                           search_increasing_root)

__all__ = [
    "EsscherStatus",
    "EsscherResult",
    "esscher_transform",
    "esscher_entropy",
    "solve_linear_emm",
    "solve_geometric_emm",
    "memm_report",
    "ARBITRAGE_VERDICT",
]

_ENTROPY_CLAMP = 1e-8
_ROOT_ATOL = 1e-10

ARBITRAGE_VERDICT = ("arbitrage market: monotone prices admit no equivalent "
                     "martingale measure")


def _tilt_drift_correction(t, kappa: float) -> float:
    """``∫_{|x|<=1} x (e^{κx} - 1) ν(dx)`` — the compensator shift that the
    truncation function picks up under tilting."""
    val, _ = two_sided_integral(
        t.nu, inner_g=exp_integrand(kappa, factor=np.expm1, power=1))
    if not math.isfinite(val):
        raise QuadratureFailure(
            f"the tilt drift correction overflows at kappa={kappa}")
    return val


def esscher_transform(t: LevyTriplet, kappa: float) -> LevyTriplet:
    """The triplet of the same process under the ``e^{κx}``-tilted measure.

    Requires ``κ`` in the finite-moment interval (closed endpoints count);
    the Gaussian variance is unchanged, the drift gains ``σ²κ`` plus the
    compensator shift, and the jump measure is tilted in closed form where
    its family allows.
    """
    validate_triplet(t)
    kappa = float(kappa)
    _check_in_interval(t, kappa)
    return _tilted(t, kappa)


def _check_in_interval(t, kappa: float) -> None:
    if kappa != 0.0:
        iv = exp_moment_interval(t)
        if not iv.contains(kappa):
            raise KappaOutsideI(
                f"kappa={kappa} outside the finite-moment interval {iv.describe()}")


def _tilted(t, kappa: float) -> LevyTriplet:
    """:func:`esscher_transform` for a ``κ`` already known to lie in ``I``."""
    if kappa == 0.0:
        return t
    b_k = t.b + t.sigma2 * kappa + _tilt_drift_correction(t, kappa)
    return LevyTriplet(b_k, t.sigma2, t.nu.tilted(kappa))


def esscher_entropy(t: LevyTriplet, horizon: float, kappa: float) -> float:
    """Relative entropy of the ``κ``-tilted measure w.r.t. the original,
    ``T (κ m(κ) - c(κ))``, in nats.

    Defined wherever the derivative function is finite (the interior of
    the moment interval and any endpoints where the first tilted moment
    converges).  Nonnegative by convexity; tiny negative round-off is
    clamped to zero.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    validate_triplet(t)
    kappa = float(kappa)
    _check_in_interval(t, kappa)
    return _entropy(t, horizon, kappa)


def _entropy(t, horizon: float, kappa: float) -> float:
    """:func:`esscher_entropy` for a ``κ`` already known to lie in ``I``."""
    if kappa == 0.0:
        return 0.0
    m = cumulant_derivative(t, kappa)
    c = cumulant(t, kappa)
    if not (math.isfinite(m) and math.isfinite(c)):
        raise KappaOutsideI(
            f"tilted first moment not finite at kappa={kappa}")
    return _clamped(horizon * (kappa * m - c))


def _clamped(entropy: float) -> float:
    """Tiny negative round-off (and ``-0.0``) becomes zero."""
    return 0.0 if -_ENTROPY_CLAMP < entropy <= 0.0 else entropy


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


class EsscherStatus(enum.Enum):
    EMM_EXISTS = "emm_exists"
    P_IS_ALREADY_EMM = "p_is_already_emm"
    NO_EMM = "no_emm"
    ARBITRAGE_MARKET = "arbitrage_market"


class EsscherResult(Record):
    """Outcome of an equivalent-martingale-measure search.

    ``infimum_entropy`` is the infimum of relative entropy over the
    martingale class: equal to ``entropy`` when the measure exists, still
    defined (and approachable) when it does not, and ``None`` for
    arbitrage markets and for the geometric solver, which carries no
    minimality claim.
    """

    status: EsscherStatus
    kappa0: Optional[float]
    entropy: Optional[float]
    infimum_entropy: Optional[float]
    transformed: Optional[LevyTriplet]
    parameter_status: Optional[EsscherParameterStatus]
    diagnostic: str = ""

    def describe(self) -> dict:
        return {
            "status": self.status.value,
            "kappa0": self.kappa0,
            "entropy": self.entropy,
            "infimum_entropy": self.infimum_entropy,
            "transformed": self.transformed.describe() if self.transformed else None,
            "parameter": (self.parameter_status.describe()
                          if self.parameter_status else None),
            "diagnostic": self.diagnostic,
        }


def solve_linear_emm(t: LevyTriplet, horizon: float) -> EsscherResult:
    """Find the tilt that makes the process itself a martingale.

    Monotone processes are flagged as arbitrage markets; degenerate
    moment intervals with zero mean mean the original measure already is
    the martingale measure; otherwise existence follows the parameter
    classification, and failures still report the infimum entropy
    ``-T c`` at the mgf minimizer.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    validate_triplet(t)
    ps = classify_esscher_parameter(t, horizon)
    if ps.minimum is None:
        return EsscherResult(
            EsscherStatus.ARBITRAGE_MARKET, None, None, None, None, ps,
            "monotone price process admits no equivalent martingale measure")
    if ps.exists and ps.case is EsscherCase.DEGENERATE_ZERO_MEAN:
        return EsscherResult(
            EsscherStatus.P_IS_ALREADY_EMM, 0.0, 0.0, 0.0, t, ps,
            "degenerate moment interval with zero mean: no tilt is needed")
    if ps.exists:
        k0 = ps.kappa0
        ent = _clamped(-horizon * cumulant(t, k0))
        return EsscherResult(
            EsscherStatus.EMM_EXISTS, k0, ent, ent, _tilted(t, k0), ps,
            f"tilt parameter located ({ps.case.value})")
    inf_ent = _clamped(-ps.minimum.log_phi_at_min)
    return EsscherResult(
        EsscherStatus.NO_EMM, None, None, inf_ent, None, ps,
        ps.diagnostic + "; infimum entropy approached but not attained")


def solve_geometric_emm(t: LevyTriplet, horizon: float) -> EsscherResult:
    """Find the tilt making ``e^{X}`` (not ``X``) a martingale.

    The root equation is ``c(κ+1) - c(κ) = 0`` on the candidate set of
    tilts with both ``κ`` and ``κ+1`` in the finite-moment interval.  The
    difference is increasing because ``c`` is convex, so
    :func:`~levy_emm.mgf_analysis.search_increasing_root` settles it: a
    closed end of the candidate set is probed first, and a difference of
    constant sign up to it is decided by that one value.  No minimal-
    entropy claim is attached to the outcome, hence ``infimum_entropy``
    is always ``None`` here; ``entropy`` still reports the relative
    entropy of the tilted measure when it is finite.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    validate_triplet(t)
    if is_monotone(t) is not Monotonicity.NOT_MONOTONE:
        return EsscherResult(
            EsscherStatus.ARBITRAGE_MARKET, None, None, None, None, None,
            "monotone price process admits no equivalent martingale measure")
    iv = exp_moment_interval(t)
    lo, hi = iv.a, iv.b - 1.0

    def finish(k0: float) -> EsscherResult:
        try:
            ent = _entropy(t, horizon, k0)
        except KappaOutsideI:
            ent = None
        status = (EsscherStatus.P_IS_ALREADY_EMM if k0 == 0.0
                  else EsscherStatus.EMM_EXISTS)
        return EsscherResult(
            status, k0, ent, None, _tilted(t, k0), None,
            "root of the unit-shift cumulant difference")

    def no_emm(diagnostic: str) -> EsscherResult:
        return EsscherResult(EsscherStatus.NO_EMM, None, None, None, None,
                             None, diagnostic)

    def g_of(k: float) -> float:
        return cumulant(t, k + 1.0) - cumulant(t, k)

    if lo > hi:
        return no_emm("no tilt keeps both kappa and kappa+1 inside the "
                      "moment interval")
    if not (lo < hi):  # single candidate needs both interval endpoints closed
        if iv.a_in_I and iv.b_in_I:
            v = g_of(lo)
            if math.isfinite(v) and abs(v) <= _ROOT_ATOL:
                return finish(lo)
        return no_emm("the single admissible tilt does not solve the root equation")

    found = search_increasing_root(g_of, lo, hi, iv.a_in_I, iv.b_in_I)
    if found.side:
        v = found.end_value
        if v is not None and math.isfinite(v) and abs(v) <= _ROOT_ATOL:
            return finish(found.lo)
        side = "negative" if found.side > 0 else "positive"
        return no_emm(f"cumulant difference stays {side} on the candidate set")
    if found.lo == found.hi:
        return finish(found.lo)
    return finish(brentq(g_of, found.lo, found.hi))


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

_CLASS_NOTE = ("the infimum of relative entropy is the same over the "
               "equivalent-martingale, absolutely-continuous and "
               "tilt-generated measure classes")
_ONE_STEP_NOTE = ("the entropy minimization depends on the horizon only "
                  "through the factor T: it is effectively a one-step "
                  "problem at the terminal date")


def _verdict(res: EsscherResult) -> str:
    if res.status is EsscherStatus.EMM_EXISTS:
        return (f"minimal-entropy martingale measure = tilt by "
                f"kappa0={res.kappa0:.10g}; entropy {res.entropy:.10g} nats")
    if res.status is EsscherStatus.P_IS_ALREADY_EMM:
        return "the original measure is already the martingale measure (kappa0 = 0)"
    if res.status is EsscherStatus.NO_EMM:
        inf_part = ("" if res.infimum_entropy is None
                    else f"; infimum entropy {res.infimum_entropy:.10g} nats "
                         f"is approached but not attained")
        return "no equivalent martingale measure in the tilt family" + inf_part
    return ARBITRAGE_VERDICT


def memm_report(t: LevyTriplet, horizon: float,
                market: str = "linear") -> dict:
    """One structured verdict for a market model.

    For the linear market this is the minimal-entropy identification; for
    the geometric market it reports the geometric root alongside the
    linear solve of the converted triplet, keeping the minimality claim on
    the linear side only.  The two statuses can disagree on a valid model:
    the geometric tilt needs ``e^{κX}`` moments, the tilt of the
    stochastic logarithm moments of its price jumps, so on a stable law
    only the second exists.  ``statuses_consistent`` reports whether they
    agree.
    """
    if market not in ("linear", "geometric"):
        raise ValueError(f"unknown market {market!r}")
    validate_triplet(t)
    if market == "linear":
        res = solve_linear_emm(t, horizon)
        report = {
            "market": "linear",
            "units": "nats",
            "status": res.status.value,
            "verdict": _verdict(res),
            "kappa0": res.kappa0,
            "entropy": res.entropy,
            "infimum_entropy": res.infimum_entropy,
            "existence_case": (res.parameter_status.case.value
                               if res.parameter_status and res.parameter_status.case
                               else None),
            "interval": (res.parameter_status.interval.describe()
                         if res.parameter_status else None),
            "diagnostic": res.diagnostic,
            "transformed": (res.transformed.describe()
                            if res.transformed else None),
            "notes": [_CLASS_NOTE, _ONE_STEP_NOTE],
        }
        return report

    res_g = solve_geometric_emm(t, horizon)
    linear_t = geometric_to_linear(t)
    res_l = solve_linear_emm(linear_t, horizon)
    exists_g = res_g.status in (EsscherStatus.EMM_EXISTS,
                                EsscherStatus.P_IS_ALREADY_EMM)
    exists_l = res_l.status in (EsscherStatus.EMM_EXISTS,
                                EsscherStatus.P_IS_ALREADY_EMM)
    return {
        "market": "geometric",
        "units": "nats",
        "status": res_g.status.value,
        "verdict": _verdict(res_g),
        "kappa0": res_g.kappa0,
        "entropy": res_g.entropy,
        "infimum_entropy": None,
        "diagnostic": res_g.diagnostic,
        "transformed": (res_g.transformed.describe()
                        if res_g.transformed else None),
        "linear_equivalent": {
            "status": res_l.status.value,
            "verdict": _verdict(res_l),
            "kappa0": res_l.kappa0,
            "entropy": res_l.entropy,
            "infimum_entropy": res_l.infimum_entropy,
        },
        "statuses_consistent": exists_g == exists_l,
        "notes": [_ONE_STEP_NOTE],
    }
