"""Where exponential moments live and where the mgf is minimized.

Three questions, three entry points:

* :func:`exp_moment_interval` -- the interval ``[a, b]`` on which
  ``E[e^{κL_T}]`` is finite, with endpoint membership for both the moment
  set ``I`` and the derivative set ``E`` decided from tail metadata, not
  from sampling integrals near a blow-up;
* :func:`minimize_mgf` -- the unique minimizer of ``φ_T`` over ``I``,
  located as the root of the increasing derivative function or, failing a
  sign change, at an endpoint;
* :func:`classify_esscher_parameter` -- whether the minimizer is an actual
  zero of ``ψ_T`` (so the Esscher martingale measure exists) and which
  shape of ``E`` makes it so.

:func:`search_increasing_root` is the one root routine, for ``c'`` on
``I`` here and ``c(κ+1) - c(κ)`` in :mod:`levy_emm.esscher`: it probes a
closed end before walking, so a root-free closed end costs one evaluation,
and returns a bracket (each caller polishes it with :func:`brentq`) or an
endpoint verdict.
"""

from __future__ import annotations

import enum
import math
from typing import Optional, Tuple

from .errors import ArbitrageMarketError, NoFiniteMinimizer
from .levy_core.record import Record
from .levy_core.triplets import (LevyTriplet, Monotonicity, cumulant,
                                 cumulant_derivative, is_monotone,
                                 validate_triplet)

__all__ = [
    "ExpMomentInterval",
    "exp_moment_interval",
    "MinimumCase",
    "MinimumPoint",
    "RootSearch",
    "search_increasing_root",
    "brentq",
    "minimize_mgf",
    "EsscherCase",
    "EsscherParameterStatus",
    "classify_esscher_parameter",
]

_KAPPA_TOL = 1e-12
_M_ATOL = 1e-12
_MAX_DOUBLINGS = 60
_BRENT_RTOL = 4 * 2.3e-16
_BRENT_MAXITER = 300


class ExpMomentInterval(Record):
    """``I = {κ : E[e^{κ L_T}] < inf} = [a, b]`` with ``a <= 0 <= b``, plus
    endpoint membership in ``I`` and in the derivative-moment set ``E``.

    An unbounded side has the end ``±inf``, with ``False`` membership
    flags (membership of an ideal point is vacuous).  ``a_in_E`` implies
    ``a_in_I`` and likewise on the right.
    """

    a: float
    b: float
    a_in_I: bool
    b_in_I: bool
    a_in_E: bool
    b_in_E: bool

    @property
    def is_degenerate(self) -> bool:
        """True when I = {0}."""
        return self.a == 0.0 and self.b == 0.0

    def contains_interior(self, kappa: float) -> bool:
        return self.a < kappa < self.b

    def contains(self, kappa: float) -> bool:
        if kappa == self.a:
            return self.a_in_I
        if kappa == self.b:
            return self.b_in_I
        return self.contains_interior(kappa)

    def describe(self) -> dict:
        def end(v: float):
            return v if math.isfinite(v) else ("-inf" if v < 0 else "inf")
        return {"a": end(self.a), "b": end(self.b),
                "a_in_I": self.a_in_I, "b_in_I": self.b_in_I,
                "a_in_E": self.a_in_E, "b_in_E": self.b_in_E}


def exp_moment_interval(t: LevyTriplet) -> ExpMomentInterval:
    """Decide ``I`` and the endpoint memberships from tail decay alone.

    The right endpoint is set by the right tail (a tilt ``κ > 0`` always
    integrates the left tail) and symmetrically for the left.
    """
    validate_triplet(t)
    right, left = t.nu.side(1), t.nu.side(-1)

    b_sup = right.tilt_sup()
    a_inf = -left.tilt_sup() + 0.0  # never -0.0

    b_in_I = b_in_E = a_in_I = a_in_E = False
    if math.isfinite(b_sup):
        b_in_I = right.moment_finite(0, b_sup)
        b_in_E = (b_in_I and right.moment_finite(1, b_sup)
                  and left.moment_finite(1, -b_sup))
    if math.isfinite(a_inf):
        a_in_I = left.moment_finite(0, -a_inf)
        a_in_E = (a_in_I and left.moment_finite(1, -a_inf)
                  and right.moment_finite(1, a_inf))
    return ExpMomentInterval(a_inf, b_sup, a_in_I, b_in_I, a_in_E, b_in_E)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


class MinimumCase(enum.Enum):
    INTERIOR_ROOT = "interior_root"
    LEFT_ENDPOINT = "left_endpoint"
    RIGHT_ENDPOINT = "right_endpoint"
    DEGENERATE_ZERO = "degenerate_zero"


class MinimumPoint(Record):
    """Minimizer of the terminal mgf over the finite-moment interval."""

    kappa0: float
    case: MinimumCase
    #: ``log φ_T(κ0) = T min(c(κ0), 0)``, which stays finite where ``φ_T``
    #: underflows
    log_phi_at_min: float
    interval: ExpMomentInterval

    @property
    def phi_at_min(self) -> float:
        return math.exp(self.log_phi_at_min)

    def describe(self) -> dict:
        return {"kappa0": self.kappa0, "case": self.case.value,
                "phi_at_min": self.phi_at_min,
                "interval": self.interval.describe()}


class RootSearch(Record):
    """Outcome of :func:`search_increasing_root`.

    ``side == 0``: a root lies in ``[lo, hi]`` (exactly at ``lo`` when
    ``lo == hi``).  ``side == ±1``: the function keeps the start's sign, or
    vanishes, up to the right/left end ``lo == hi``; ``end_value`` is its
    value there, ``None`` for an open end that was only approached.
    """

    lo: float
    hi: float
    side: int = 0
    end_value: Optional[float] = None


def search_increasing_root(f, lo: float, hi: float, lo_closed: bool,
                           hi_closed: bool) -> RootSearch:
    """Bracket the root of an increasing ``f`` on the interval with ends
    ``lo < hi``, which may be infinite; ``*_closed`` says whether a finite
    end belongs to the domain.  ``f`` returns a float that may be ``±inf``
    or NaN (undefined), as :func:`cumulant_derivative` does.

    The search starts at 0 when 0 is interior, else at most half a unit
    inside the end nearest 0, and heads for the end where the root must
    lie.  A closed end is probed first: the start's sign or zero there
    decides the question, a finite opposite sign closes the bracket.  Only
    an open or infinite end, or one where ``f`` is not finite, is walked
    toward, halving the gap to a finite end or doubling the step toward an
    infinite one until the sign flips; an open end of a moment interval
    always forces the flip, as the cumulant tends to ``+inf`` there.
    Raises :class:`NoFiniteMinimizer` when the walk finds no finite bracket.
    """
    if lo < 0.0 < hi:
        start = 0.0
    elif hi <= 0.0:
        start = hi - min(hi - lo, 1.0) / 2.0
    else:
        start = lo + min(hi - lo, 1.0) / 2.0
    v0 = f(start)
    if not math.isfinite(v0):
        raise NoFiniteMinimizer(f"function not finite at interior point {start}")
    if v0 == 0.0:
        return RootSearch(start, start)
    direction = 1 if v0 < 0.0 else -1
    end, closed = (hi, hi_closed) if direction > 0 else (lo, lo_closed)
    v_end = f(end) if closed and math.isfinite(end) else None
    if v_end is not None and not math.isnan(v_end):
        if direction * v_end <= 0.0:
            return RootSearch(end, end, direction, v_end)
        if math.isfinite(v_end):
            return RootSearch(min(start, end), max(start, end))

    prev_k, prev_v = start, v0
    for k in range(_MAX_DOUBLINGS):
        if math.isfinite(end):
            if abs(end - prev_k) <= _KAPPA_TOL * max(1.0, abs(end)):
                return RootSearch(end, end, direction, v_end)
            nxt = prev_k + (end - prev_k) / 2.0
        else:
            nxt = prev_k + direction * max(1.0, abs(prev_k)) * (2.0 ** k)
        v = f(nxt)
        if math.isnan(v):
            raise NoFiniteMinimizer(f"function undefined at interior point {nxt}")
        if v == 0.0:
            return RootSearch(nxt, nxt)
        if (v > 0.0) != (prev_v > 0.0):
            # sign change; if the value blew past float range, pull the far
            # end back toward the last good point until it is finite again
            far_k, far_v = nxt, v
            for _ in range(200):
                if math.isfinite(far_v):
                    return RootSearch(min(prev_k, far_k), max(prev_k, far_k))
                far_k = 0.5 * (prev_k + far_k)
                far_v = f(far_k)
                if math.isfinite(far_v) and (far_v > 0.0) == (prev_v > 0.0):
                    prev_k, prev_v = far_k, far_v
                    far_k, far_v = nxt, v
            raise NoFiniteMinimizer("could not isolate a finite bracket for the root")
        if not math.isfinite(v):
            raise NoFiniteMinimizer(
                f"function jumped to {v} at {nxt} without crossing zero")
        prev_k, prev_v = nxt, v
    raise NoFiniteMinimizer("no sign change within the search range")


def brentq(f, a: float, b: float) -> float:
    """The root of a float-valued ``f`` that changes sign on ``[a, b]``, by
    Brent's method: an interpolation or extrapolation step when it is
    short enough, else bisection (the steps of scipy's ``Zeros/brentq.c``,
    so the same root from the same evaluations).  Stops when the far end
    of the bracket is within ``_KAPPA_TOL + _BRENT_RTOL |x|`` of ``x``.

    Raises :class:`NoFiniteMinimizer` on a value that is not finite, on
    ``f(a)`` and ``f(b)`` of the same sign, and after ``_BRENT_MAXITER``
    steps.
    """
    def value(x: float) -> float:
        fx = f(x)
        if not math.isfinite(fx):
            raise NoFiniteMinimizer(
                f"function value is not finite (NaN or inf) at {x!r}: {fx!r}")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NoFiniteMinimizer(
            f"no sign change on [{a!r}, {b!r}]: f = {fpre!r}, {fcur!r}")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_KAPPA_TOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # C divides an underflowed 0 into ±inf or NaN: a bisection
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoFiniteMinimizer(
        f"Brent's method did not converge in {_BRENT_MAXITER} steps")


def _minimum(t, horizon: float,
             iv: ExpMomentInterval) -> Tuple[MinimumPoint, Optional[float]]:
    """The minimizer of ``φ_T`` over ``I`` for a market known not to be
    monotone: the root of the increasing ``c'``, or the end of ``I`` up
    to which ``c'`` keeps one sign.  Also returns ``c'`` at that end when
    the search evaluated it there (``None`` otherwise)."""
    if iv.is_degenerate:
        return MinimumPoint(0.0, MinimumCase.DEGENERATE_ZERO, 0.0, iv), None

    def m_of(k: float) -> float:
        return cumulant_derivative(t, k)

    found = search_increasing_root(m_of, iv.a, iv.b, iv.a_in_I, iv.b_in_I)
    kappa0 = found.lo
    if found.side:
        case = (MinimumCase.RIGHT_ENDPOINT if found.side > 0
                else MinimumCase.LEFT_ENDPOINT)
    else:
        case = MinimumCase.INTERIOR_ROOT
        if found.lo < found.hi:
            kappa0 = brentq(m_of, found.lo, found.hi)
    c0 = cumulant(t, kappa0)
    if not math.isfinite(c0):
        raise NoFiniteMinimizer(f"cumulant is {c0} at the minimizer {kappa0}")
    mp = MinimumPoint(kappa0, case, horizon * min(c0, 0.0), iv)
    return mp, found.end_value


def minimize_mgf(t: LevyTriplet, horizon: float) -> MinimumPoint:
    """Locate ``argmin φ_T`` over the finite-moment interval.

    Monotone (arbitrage) markets are refused; the degenerate interval
    ``I = {0}`` returns the minimizer 0 with ``φ = 1``; otherwise
    :func:`search_increasing_root` looks for the root of the increasing
    derivative ``c'``, probing a closed end of ``I`` before it walks, and
    :func:`brentq` polishes the bracket it returns.  When ``c'`` keeps one
    sign up to an end of ``I``, the minimum sits at that end.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    validate_triplet(t)
    if is_monotone(t) is not Monotonicity.NOT_MONOTONE:
        raise ArbitrageMarketError("monotone price process")
    return _minimum(t, horizon, exp_moment_interval(t))[0]


# ---------------------------------------------------------------------------
# Esscher parameter classification
# ---------------------------------------------------------------------------


class EsscherCase(enum.Enum):
    INTERVAL_INTERIOR = "interval_interior"
    RIGHT_ENDPOINT_CLOSED = "right_endpoint_closed"
    LEFT_ENDPOINT_CLOSED = "left_endpoint_closed"
    BOTH_ENDPOINTS = "both_endpoints"
    DEGENERATE_ZERO_MEAN = "degenerate_zero_mean"


class EsscherParameterStatus(Record):
    """Existence (and location) of a zero of ``ψ_T`` on ``E``.

    ``minimum`` is the minimizer of ``φ_T`` the classification found; it is
    ``None`` exactly when the market is monotone, whose mgf has none.
    """

    exists: bool
    case: Optional[EsscherCase]
    kappa0: Optional[float]
    diagnostic: str
    interval: ExpMomentInterval
    minimum: Optional[MinimumPoint] = None

    def describe(self) -> dict:
        return {"exists": self.exists,
                "case": self.case.value if self.case else None,
                "kappa0": self.kappa0, "diagnostic": self.diagnostic,
                "interval": self.interval.describe()}


def _shape_case(iv: ExpMomentInterval) -> EsscherCase:
    if iv.a_in_E and iv.b_in_E:
        return EsscherCase.BOTH_ENDPOINTS
    if iv.b_in_E:
        return EsscherCase.RIGHT_ENDPOINT_CLOSED
    if iv.a_in_E:
        return EsscherCase.LEFT_ENDPOINT_CLOSED
    return EsscherCase.INTERVAL_INTERIOR


def classify_esscher_parameter(t: LevyTriplet,
                               horizon: float) -> EsscherParameterStatus:
    """Decide whether some tilt makes the tilted process driftless.

    Covers the degenerate interval (where everything hinges on whether the
    process mean exists and vanishes) and, on proper intervals, reduces to
    whether the increasing derivative function crosses zero inside the
    derivative-moment set ``E``.  The status carries the mgf minimizer
    found on the way, so a solver needs no second search.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    validate_triplet(t)
    iv = exp_moment_interval(t)
    mp, m_end = None, None
    if is_monotone(t) is Monotonicity.NOT_MONOTONE:
        mp, m_end = _minimum(t, horizon, iv)

    def status(exists: bool, case: Optional[EsscherCase],
               kappa0: Optional[float], diagnostic: str) -> EsscherParameterStatus:
        return EsscherParameterStatus(exists, case, kappa0, diagnostic, iv, mp)

    if iv.is_degenerate:
        mean = cumulant_derivative(t, 0.0)
        if not math.isfinite(mean):
            what = ("undefined" if math.isnan(mean)
                    else ("+inf" if mean > 0.0 else "-inf"))
            return status(False, None, None,
                          f"degenerate moment interval and the process mean is {what}")
        if abs(mean) <= _M_ATOL:
            return status(True, EsscherCase.DEGENERATE_ZERO_MEAN, 0.0,
                          "degenerate moment interval but the process is driftless")
        return status(False, None, None,
                      f"degenerate moment interval with nonzero mean {mean:.6g}")

    if mp is None:
        return status(False, None, None,
                      "monotone price process: the derivative function has constant sign")

    if mp.case is MinimumCase.INTERIOR_ROOT:
        return status(True, _shape_case(iv), mp.kappa0,
                      "interior zero of the derivative function")

    # endpoint minimum: the parameter exists only if the derivative
    # actually vanishes there (within tolerance) and the endpoint is in E
    v_end = m_end if m_end is not None else cumulant_derivative(t, mp.kappa0)
    if math.isfinite(v_end) and abs(v_end) <= _M_ATOL:
        return status(True, _shape_case(iv), mp.kappa0,
                      "derivative vanishes exactly at the interval endpoint")
    side = "negative" if mp.case is MinimumCase.RIGHT_ENDPOINT else "positive"
    return status(False, None, None,
                  f"derivative stays {side} on the whole moment interval")
