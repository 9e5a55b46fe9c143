"""Integration against jump measures: one kernel for every integral
``∫ g dν`` the package needs, and the only code that evaluates a jump
density.

Density integrals are split into four panels per the package-wide layout::

    (-inf, -1] | [-1, 0) | (0, 1] | [1, inf)

:func:`two_sided_integral` is the kernel.  Every integrand is given to it
in parts, one for the inner cut and one for each tail, and every part has
the same contract: the kernel calls it with the jump size ``x``, the
density ``ν(x)`` and ``log ν(x)``, and the part returns its own product
with the density; the kernel multiplies nothing.  :func:`exp_integrand`
builds every part the package uses.  It takes ``e^u ν`` in log space and
the factors ``e^u - 1``, ``e^u - 1 - u`` and ``e^u (u - 1) + 1`` as
``factor(u) ν`` where ``u <= 1`` and as ``e^{u + log ν}`` plus the
polynomial part beyond, so a density that underflows never meets a factor
that overflows and a small ``u`` keeps its digits.  Each region reads the
density its own way: a tail takes ``log ν`` from ``log_density`` and ``ν``
as its exponential; an inner panel takes ``ν`` from ``density``, so the
origin keeps the density's own digits, and ``log ν`` as its logarithm,
from ``log_density`` only where ``ν`` underflows.

Every part is array-in, array-out: the rules below rest on the 21-point
Gauss–Kronrod rule of :func:`_gk21`, which applies to many panels in one
call of the integrand with the nodes, weights and error estimate of
QUADPACK's ``qk21`` (Piessens et al. 1983).  Its sums are matrix
products, so it agrees with ``qk21`` to rel 1e-14, not bit for bit.  The
kind of each panel picks its rule:

* the two singular ends, out to infinity and down to the origin, are one
  geometric panel sum (:func:`_geometric_sum`): doubling panels ``[lo
  2^k, lo 2^(k+1)]`` for a tail, halving panels ``[b 2^-(k+1), b 2^-k]``
  with GK21 in ``u = ln x`` for ``∫_0^b``, where a power law is smooth.
  Panels are evaluated a chunk per call and summed until three in a row
  are negligible or the ratios of the last ones predict the rest as a
  geometric series, which sums a power law exactly; at the origin, ratios
  that settle at 1 or above mean divergence.  A panel that fails its
  error test is refined by bisection.  A tail that its decay hint calls
  divergent is a signed infinity without any quadrature;
* every bounded panel, ``(0, 1]`` down to its smallest breakpoint and the
  tail up to its last one, is split at its breakpoints.  Each piece gets
  one GK21 step in ``x``, all in one call, kept when QUADPACK's own
  first-step test accepts it; a piece that fails it is bisected adaptively
  in ``u = ln x``, all its intervals evaluated together, until QAGS's
  stopping rule holds.  A smooth integrand (finite activity) passes the
  first step with 21 evaluations.

No integral calls QUADPACK itself: the origin's halving panels decide
both the value and the divergence of the one-sided moments from 0.

Image measures (:class:`~.measures.ExpJumpImage`,
:class:`~.measures.LogJumpImage`, and an :class:`~.measures.ExpTilted`
over either) have no density of their own.  They are integrated by
pullback onto their base, ``∫ g dν_img = ∫ g(φ(t)) ν(dt)`` with
``φ = expm1`` or ``log1p``: each base point goes to the image's inner or
tail integrand by ``|φ(t)| <= INNER_CUT`` (the base is split where that
changes, at ``ln 2``, ``e - 1`` and ``e^{-1} - 1``), so the base's own
hints, panels and origin sum do the work.  Every part then gets the
base's ``ν`` and ``log ν`` with two more arguments: the image's own tilt,
which joins κ before it multiplies a price jump that can overflow, and
``log|φ(t)|``.

:func:`one_sided_integral` applies the two interval rules (geometric
panels at a singular end, a bounded panel elsewhere) to the moments
``∫ s^p dν`` of one side; the small-jump moments and tail masses, the
monotonicity test and the simulation rates all go through it.

Exactly symmetric measures are integrated by folding the negative axis
onto the positive one, so odd integrands cancel in IEEE arithmetic rather
than to quadrature tolerance.  That exactness is what downstream code
relies on to report "the mean is zero" for symmetric models without a
fudge factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import NonIntegrableLevyMeasure, QuadratureFailure
from .extreal import ExtReal, NEG_INF, POS_INF
from .measures import ExpJumpImage, ExpTilted, LevyMeasure, LogJumpImage

__all__ = [
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "INNER_CUT",
    "MAX_SUBDIVISIONS",
    "two_sided_integral",
    "SidePlan",
    "exp_integrand",
    "one_sided_integral",
    "small_jump_variation",
    "tail_mass",
    "expm1_minus_x",
    "exp_entropy_term",
]


#: jump size separating small (compensated) jumps from large ones; the
#: truncation ``h(x) = x 1_{|x| <= 1}``, the penalty families and the
#: market conversion are all stated against 1
INNER_CUT = 1.0
#: most intervals of one adaptive bisection
MAX_SUBDIVISIONS = 200

Fn = Callable[[np.ndarray], np.ndarray]
#: an integrand part: ``(x, ν(x), log ν(x)) -> g(x) ν(x)``, and for an image
#: measure also ``(..., tilt, log|x|)`` (see :func:`exp_integrand`)
Part = Callable[..., np.ndarray]


@dataclass(frozen=True)
class QuadratureSettings:
    """Absolute and relative tolerances shared by all integration routines."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


DEFAULT_SETTINGS = QuadratureSettings()


# ---------------------------------------------------------------------------
# cancellation-safe elementary integrand pieces
# ---------------------------------------------------------------------------


def expm1_minus_x(u: np.ndarray) -> np.ndarray:
    """``e^u - 1 - u`` without cancellation for small ``u``."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-4
    us = np.where(small, u, 0.0)
    series = us * us * (0.5 + us * (1.0 / 6.0 + us * (1.0 / 24.0 + us / 120.0)))
    with np.errstate(over="ignore"):
        direct = np.expm1(u) - u
    return np.where(small, series, direct)


def exp_entropy_term(u: np.ndarray) -> np.ndarray:
    """``e^u (u - 1) + 1``, the integrand of a relative-entropy rate,
    evaluated without cancellation for small ``u``.

    The Taylor expansion is ``u^2/2 + u^3/3 + u^4/8 + u^5/30 + ...``.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-4
    us = np.where(small, u, 0.0)
    series = us * us * (0.5 + us * (1.0 / 3.0 + us * (0.125 + us / 30.0)))
    with np.errstate(over="ignore"):
        direct = np.exp(u) * (u - 1.0) + 1.0
    return np.where(small, series, direct)


# ---------------------------------------------------------------------------
# the 21-point Gauss–Kronrod rule over many panels at once
# ---------------------------------------------------------------------------

# QUADPACK's qk21: Kronrod abscissae on [0, 1] in decreasing order (the
# entries 1, 3, ..., 9 are the 10-point Gauss nodes, the last the centre),
# their Kronrod weights, and the Gauss weights of entries 1, 3, ..., 9
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980430046, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the 21 nodes on [-1, 1] in the order centre, left, right; the columns of
# _W21 are their Kronrod weights and their Gauss weights, which are 0 off
# the Gauss nodes (entries 2, 4, ..., 20)
_XN21 = np.concatenate(([0.0], -_XGK[:10], _XGK[:10]))
_WK21 = np.concatenate((_WGK[10:], _WGK[:10], _WGK[:10]))
_WG21 = np.zeros(21)
_WG21[2:11:2] = _WG21[12::2] = _WG
_W21 = np.column_stack((_WK21, _WG21))
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _gk21(f: Fn, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """QUADPACK's ``qk21`` rule on the panels ``[a_i, b_i]``, in one call of
    ``f`` on a ``(panels, 21)`` array of nodes; returns the value and the
    error estimate of each panel.

    The nodes, the weights and the ``resasc``/roundoff correction of the
    error are qk21's; the sums are matrix products, so a panel agrees with
    QUADPACK's own first step to rounding (rel 1e-14), not bit for bit.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    x = centre[:, None] + half[:, None] * _XN21
    # an integrand that overflows makes an infinite panel, one that forms
    # an invalid value a NaN panel: the callers judge both
    with np.errstate(all="ignore"):
        fv = np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)
        resk, resg = (fv @ _W21).T
        dhlgth = np.abs(half)
        resabs = (np.abs(fv) @ _WK21) * dhlgth
        resasc = (np.abs(fv - 0.5 * resk[:, None]) @ _WK21) * dhlgth
        abserr = np.abs((resk - resg) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
        return resk * half, abserr


def _tolerances(q: QuadratureSettings) -> Tuple[float, float]:
    """QUADPACK's ``(epsabs, epsrel)``: a tenth of the kernel's tolerances."""
    return q.abs_tol * 0.1, max(q.rel_tol * 0.1, 5e-14)


def _bisect(f: Fn, a: float, b: float,
            tol: Tuple[float, float]) -> Tuple[float, float]:
    """``∫_a^b f`` for ``0 < a < b`` by adaptive GK21 bisection in
    ``u = ln x``, with QAGS's stopping rule ``Σ err <= max(epsabs, epsrel
    |Σ val|)`` for ``tol = (epsabs, epsrel)``.

    Each round halves, in one call of the integrand, every interval whose
    error is above an equal share of that bound, the largest first while
    there is room under ``MAX_SUBDIVISIONS`` intervals.  Raises
    :class:`QuadratureFailure` on a non-finite value or when the intervals
    run out.
    """
    epsabs, epsrel = tol

    def g(u: np.ndarray) -> np.ndarray:
        x = np.exp(u)
        return f(x) * x

    lo, hi = np.array([math.log(a)]), np.array([math.log(b)])
    val, err = _gk21(g, lo, hi)
    while True:
        total, errsum = float(val.sum()), float(err.sum())
        bound = max(epsabs, epsrel * abs(total))
        if errsum <= bound:
            return total, errsum
        room = MAX_SUBDIVISIONS - len(val)
        if room <= 0 or not np.all(np.isfinite(val)):
            raise QuadratureFailure(
                f"could not integrate the panel [{a:g}, {b:g}]")
        split = np.flatnonzero(err > bound / len(val))
        split = split[np.argsort(err[split])[::-1][:room]]
        keep = np.ones(len(val), dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        v, e = _gk21(g, new_lo, new_hi)
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        val = np.concatenate((val[keep], v))
        err = np.concatenate((err[keep], e))


def _panel(f: Fn, a: float, b: float, q: QuadratureSettings,
           pts: Sequence[float] = ()) -> Tuple[float, float]:
    """``∫_a^b f`` over a bounded panel ``0 < a < b``, split at ``pts``.

    Every piece gets one GK21 step in ``x``, all in one call of the
    integrand, kept when it passes QUADPACK's first-step test ``err <=
    max(epsabs, epsrel |val|)``; a piece that fails it is integrated by
    :func:`_bisect` in ``u = ln x``, where a power singularity just left
    of ``a`` is a smooth exponential.
    """
    epsabs, epsrel = _tolerances(q)
    ends = np.array([a] + sorted(p for p in pts if a < p < b) + [b])
    vals, errs = _gk21(f, ends[:-1], ends[1:])
    total = err = 0.0
    for lo, hi, val, e in zip(ends[:-1].tolist(), ends[1:].tolist(),
                              vals.tolist(), errs.tolist()):
        if not e <= max(epsabs, epsrel * abs(val)):
            val, e = _bisect(f, lo, hi, (epsabs, epsrel))
        total, err = total + val, err + e
    return total, err


# ---------------------------------------------------------------------------
# the singular ends: geometric panels towards infinity or the origin
# ---------------------------------------------------------------------------

_PANELS = 64
#: panels per integrand call: one call sums a finite-activity origin, which
#: stops after about 12 halving panels; more only grows the node arrays
_CHUNK = 16
_FLAT_LIMIT = 3
#: the origin's stopping test is relative: QUADPACK's relative floor, and
#: an absolute floor (a factor of ``abs_tol``) far below the kernel's, so
#: that a small inner integral, such as c(κ) near κ = 0, keeps its digits
_ORIGIN_REL, _ORIGIN_ABS = 5e-14, 1e-8
#: spread of the last three panel ratios below which they have settled
_SETTLED = 1e-9
#: spread at which the ratios are known to rounding: no later panel can
#: bound the geometric remainder better
_ROUNDOFF = 4.0 * _EPMACH
_LN2 = math.log(2.0)


def _geometric_sum(f: Fn, a: float, b: float,
                   q: QuadratureSettings) -> Tuple[float, float]:
    """``∫_a^b f`` with ``b = inf`` over the doubling panels ``[a 2^k,
    a 2^(k+1)]``, or with ``a = 0`` over the halving panels ``[b 2^-(k+1),
    b 2^-k]``, ``k < 64``.

    Every panel ``[s, 2s]`` is GK21 on fixed nodes scaled by ``s``: in
    ``x/s`` towards infinity, in ``u = ln(x/s)`` towards the origin, where
    a power law is smooth.  A power law then gives panel ratios exact to
    rounding.  Panels are evaluated a chunk per call of ``f`` and summed in
    order until three in a row are negligible and none larger than the one
    before, or until the last three ratios of consecutive panels, read as a
    geometric series, bound the error of its remainder ``piece r/(1 - r)``
    (``r`` the latest ratio) by ``|piece| spread/(1 - r̄)^2 <= tol/2`` or
    have settled to rounding.  Panels that underflow to exactly 0 before
    the first non-zero one are not negligible, since the mass may lie ahead
    (64 of them are a zero integral).  An infinite panel is an overflow: a
    signed infinity with error 0; a NaN panel raises, since no part forms
    ``inf * 0``.  Every summed panel that fails the
    kernel's error test is then refined by :func:`_bisect`.

    Towards infinity the sum stops on the kernel's tolerances; whether the
    tail converges is its decay hint's call.  At the origin it stops on a
    relative test, and ratios settled at ``r̄ >= 1`` mean divergence: a
    signed infinity with an infinite error.  Raises
    :class:`QuadratureFailure` when no rule stops the sum.
    """
    tol = _tolerances(q)
    origin = a == 0.0
    if origin:
        epsabs, epsrel = q.abs_tol * _ORIGIN_ABS, _ORIGIN_REL
        starts = b * 0.5 ** np.arange(1, _PANELS + 1)
        span = (0.0, _LN2)
    else:
        epsabs, epsrel = tol
        starts = a * 2.0 ** np.arange(_PANELS)
        span = (1.0, 2.0)

    def panels():
        for k in range(0, _PANELS, _CHUNK):
            s = starts[k:k + _CHUNK, None]

            def g(t: np.ndarray) -> np.ndarray:
                x = s * (np.exp(t) if origin else t)
                return f(x) * (x if origin else s)

            vals, errs = _gk21(g, np.full(len(s), span[0]),
                               np.full(len(s), span[1]))
            yield from zip(vals.tolist(), errs.tolist())

    pieces, errs = [], []
    total, flat, last_sign, seen = 0.0, 0, 1.0, False
    # the last three ratios of consecutive non-zero panels, oldest first
    prev, r1, r2, r3, n_ratios = math.inf, 0.0, 0.0, 0.0, 0
    for piece, e in panels():
        if not math.isfinite(piece):
            if piece != piece:
                raise QuadratureFailure(
                    f"integral over [{a:g}, {b:g}] has a NaN panel")
            return piece, 0.0
        size = abs(piece)
        if 0.0 < prev < math.inf and piece != 0.0:
            r1, r2, r3, n_ratios = r2, r3, size / prev, n_ratios + 1
        pieces.append(piece)
        errs.append(e)
        total += piece
        if piece != 0.0:
            last_sign, seen = math.copysign(1.0, piece), True
        bound_tol = max(epsabs, epsrel * abs(total))
        # a rising piece is not negligible: the tail's mass may lie ahead
        small = size <= 0.1 * bound_tol and size <= prev
        flat, prev = (flat + 1 if seen and small else 0), size
        if flat >= _FLAT_LIMIT:
            remainder = (0.0, 0.0)
            break
        if n_ratios >= 3:
            rbar = (r1 + r2 + r3) / 3.0
            spread = max(abs(r1 - rbar), abs(r2 - rbar), abs(r3 - rbar))
            if rbar >= 1.0:
                if origin and spread <= _SETTLED:
                    return last_sign * math.inf, math.inf
                continue
            bound = size * spread / (1.0 - rbar) ** 2
            if bound <= 0.5 * bound_tol or spread <= _ROUNDOFF:
                # the latest ratio: a drifting one is nearest its limit
                remainder = (piece * r3 / (1.0 - r3), bound)
                break
    else:
        if not seen:
            return 0.0, 0.0
        raise QuadratureFailure(
            f"integral over [{a:g}, {b:g}] not summed after {_PANELS} panels")
    total = err = 0.0
    for s, piece, e in zip(starts.tolist(), pieces, errs):
        if not (e <= tol[0] or e <= tol[1] * abs(piece)):
            piece, e = _bisect(f, s, 2.0 * s, tol)
        total, err = total + piece, err + e
    return total + remainder[0], err + remainder[1]


# ---------------------------------------------------------------------------
# integrand parts and image measures
# ---------------------------------------------------------------------------

#: the factors ``F(u) = e^u a(u) + p(u)`` a part may take, as ``(log a,
#: p)`` with ``log a = None`` for ``a = 1``
_EXP_SPLITS = {
    np.expm1: (None, lambda u: -1.0),
    expm1_minus_x: (None, lambda u: -1.0 - u),
    exp_entropy_term: (lambda u: np.log(u - 1.0), lambda u: 1.0),
}


def _times_density(factor: Fn, u: np.ndarray, nu: np.ndarray,
                   log_nu: np.ndarray) -> np.ndarray:
    """``factor(u) ν``: the product itself where ``u <= 1``, ``e^{u +
    log ν} a(u) + p(u) ν`` beyond, where ``e^u`` may overflow and ``ν``
    underflow."""
    if not u.max() > 1.0:
        return factor(u) * nu
    log_a, p = _EXP_SPLITS[factor]
    expo = u + log_nu
    big = np.exp(expo if log_a is None else expo + log_a(u)) + p(u) * nu
    return big if u.min() > 1.0 else np.where(u > 1.0, big, factor(u) * nu)


def exp_integrand(kappa: float, *, factor: Optional[Fn] = None,
                  power: int = 0, prefactor: Optional[Fn] = None,
                  log_weight: Optional[Fn] = None):
    """Integrand part ``(x, ν, log ν) -> x^power p(x) F(u) ν`` with ``u =
    κx + w(x)``, where ``F = exp`` or ``factor``: ``np.expm1``,
    :func:`expm1_minus_x` or :func:`exp_entropy_term`.

    ``F = exp`` is taken in log space, ``e^{u + log ν}``.  A factor is
    ``factor(u) ν`` where ``u <= 1``, which keeps the digits of a small
    ``u`` and of the density, and ``e^{u + log ν} a(u) + p(u) ν`` for
    ``factor = e^u a + p`` beyond: a density that underflows never meets a
    factor that overflows.  For image measures the kernel also passes
    ``tilt``, the image's own tilt, and ``log_abs_x``.  With ``F = exp``
    the tilt joins κ before it multiplies ``x`` and the power is taken in
    log space: a price jump ``x = e^t - 1`` overflows long before ``x^power
    ν`` does.  With a factor the tilt goes into ``ν``, and ``x`` must be
    finite.
    """

    def f(x, nu, log_nu, tilt=0.0, log_abs_x=None):
        with np.errstate(all="ignore"):
            w = None if log_weight is None else log_weight(x)
            if factor is not None:
                u = kappa * x if w is None else kappa * x + w
                if tilt:
                    log_nu = log_nu + tilt * x
                    nu = np.exp(log_nu)
                val = _times_density(factor, u, nu, log_nu)
                if power:
                    val = val * x ** power
            else:
                k = kappa + tilt
                expo = k * x + log_nu if k else log_nu
                if w is not None:
                    expo = expo + w
                if log_abs_x is not None and power:
                    val = np.exp(expo + power * log_abs_x) * np.sign(x) ** power
                else:
                    val = np.exp(expo) * x ** power if power else np.exp(expo)
            if prefactor is not None:
                val = val * prefactor(x)
        return val

    return f


class _Pullback(NamedTuple):
    """An image measure as ``e^{tilt φ(t)} base(dt)`` pushed through ``φ``."""

    base: LevyMeasure
    phi: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    tilt: float

    def log_abs_phi(self, t: np.ndarray) -> np.ndarray:
        """``log|φ(t)|``, finite where ``φ(t) = e^t - 1`` overflows."""
        if self.phi is np.expm1:
            return np.where(t > 0, t + np.log(-np.expm1(-t)),
                            np.log(np.abs(np.expm1(t))))
        return np.log(np.abs(self.phi(t)))

    def base_distance(self, side: int, s: float) -> float:
        """Distance from the origin of the base point over ``side * s``."""
        with np.errstate(all="ignore"):
            u = abs(float(self.inverse(side * s)))
        return math.inf if u != u else u  # beyond the image's support


def _pullback(nu: LevyMeasure) -> Optional[_Pullback]:
    tilt = 0.0
    if isinstance(nu, ExpTilted) and isinstance(nu.base, (ExpJumpImage,
                                                          LogJumpImage)):
        nu, tilt = nu.base, nu.kappa
    if isinstance(nu, ExpJumpImage):
        return _Pullback(nu.base, np.expm1, np.log1p, tilt)
    if isinstance(nu, LogJumpImage):
        return _Pullback(nu.base, np.log1p, np.expm1, tilt)
    return None


# ---------------------------------------------------------------------------
# one-sided integrals over jump distances
# ---------------------------------------------------------------------------


def _tail_upper_limit(nu: LevyMeasure, side: int) -> float:
    decay = nu.right_tail() if side > 0 else nu.left_tail()
    if decay.kind == "bounded" and math.isfinite(decay.cutoff):
        return decay.cutoff
    return math.inf


@lru_cache(maxsize=1024)
def one_sided_integral(nu: LevyMeasure, side: int, power: int,
                       lo: float, hi: float,
                       q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``∫_{lo < s < hi} s^power ν(side*s) ds`` for a density measure or
    an image of one, over jump distances ``s`` on one side.

    The interval is clipped to the side's support (an image measure's is
    then pulled back onto its base) and its kind picks the rule: from the
    origin (``lo == 0``), the halving panels of :func:`_geometric_sum`,
    whose settled ratios decide a divergence there; out to infinity, the
    tail-decay hint decides divergence and the doubling panels of the same
    sum the value; a bounded panel away from the origin, the panel rule of
    :func:`_panel`.  A divergent integral comes back as ``inf``; a panel
    that fails raises :class:`QuadratureFailure`.  Results are cached.
    """
    end = _tail_upper_limit(nu, side)
    if min(hi, end) <= lo:
        return 0.0
    hi = min(hi, end * (1.0 + 1e-12))
    decay = nu.right_tail() if side > 0 else nu.left_tail()
    pb = _pullback(nu)
    if pb is None:
        def f(s: np.ndarray) -> np.ndarray:
            s = np.asarray(s, dtype=float)
            with np.errstate(all="ignore"):
                # s*s, not s**2: pow rounds differently, and c(κ) uses x^2 mass
                v = math.prod((s,) * power) * nu.density(side * s)
            return np.where(np.isfinite(v), v, 0.0)
    else:
        base, moment = pb.base, exp_integrand(0.0, power=power)
        lo = pb.base_distance(side, lo)
        hi = min(pb.base_distance(side, hi),
                 _tail_upper_limit(base, side) * (1.0 + 1e-12))

        def f(s: np.ndarray) -> np.ndarray:
            t = side * np.asarray(s, dtype=float)
            with np.errstate(all="ignore"):
                log_nu = base.log_density(t)
                v = side ** power * moment(pb.phi(t), np.exp(log_nu), log_nu,
                                           pb.tilt, pb.log_abs_phi(t))
            return np.where(np.isfinite(v), v, 0.0)

    def piece(a: float, b: float) -> float:
        if math.isinf(b) and not decay.moment_finite(power, 0.0):
            return math.inf
        if a == 0.0 or math.isinf(b):
            return _geometric_sum(f, a, b, q)[0]
        return _panel(f, a, b, q)[0]

    if lo == 0.0 and hi > INNER_CUT:
        # an image side can run from the base's origin into its tail
        return piece(0.0, INNER_CUT) + piece(INNER_CUT, hi)
    return piece(lo, hi)


# ---------------------------------------------------------------------------
# small-jump moments and tail masses
# ---------------------------------------------------------------------------


def small_jump_variation(nu: LevyMeasure, q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``∫_{0 < |x| <= INNER_CUT} x^2 ν(dx)``; raises if infinite."""
    atoms = nu.atoms()
    if atoms is not None:
        return math.fsum(m * p * p for p, m in atoms if abs(p) <= INNER_CUT)
    vals = [one_sided_integral(nu, side, 2, 0.0, INNER_CUT, q)
            for side in ((+1,) if nu.is_symmetric() else (+1, -1))]
    if math.inf in vals:
        raise NonIntegrableLevyMeasure(
            "x^2 is not integrable near zero against this measure")
    if min(vals) < 0.0:
        raise QuadratureFailure("small-jump variation integration failed")
    return 2.0 * vals[0] if len(vals) == 1 else vals[0] + vals[1]


def tail_mass(nu: LevyMeasure, q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``ν({|x| > INNER_CUT})``."""
    atoms = nu.atoms()
    if atoms is not None:
        return math.fsum(m for p, m in atoms if abs(p) > INNER_CUT)
    vals = [one_sided_integral(nu, side, 0, INNER_CUT, math.inf, q)
            for side in ((+1,) if nu.is_symmetric() else (+1, -1))]
    if math.inf in vals:
        raise NonIntegrableLevyMeasure("infinite jump mass beyond the inner cut")
    if min(vals) < 0.0:
        raise QuadratureFailure("tail mass integration failed")
    return 2.0 * vals[0] if len(vals) == 1 else vals[0] + vals[1]


# ---------------------------------------------------------------------------
# two-sided integrals: the kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SidePlan:
    """Tail plan for one side of a structured integral.

    ``tail`` is the integrand part beyond the inner cut, called as
    ``tail(x, ν(x), log ν(x))`` (see :func:`exp_integrand`), or None where
    the integrand vanishes there.  ``converges`` is decided by the caller
    from tail-decay hints; a divergent side contributes ``div_sign * inf``.
    """

    tail: Optional[Part]
    converges: bool
    div_sign: int = 1


def _density_product(nu: LevyMeasure, side: int, part: Part,
                     inner: bool) -> Fn:
    """``s -> part(x, ν(x), log ν(x))`` at ``x = side*s``.

    Inside the cut ``ν`` is the density itself, so the origin keeps its
    digits, and ``log ν`` its logarithm, taken from ``log_density`` only
    where ``ν`` underflows; beyond the cut ``log ν`` is ``log_density`` and
    ``ν`` its exponential.
    """

    def f(s: np.ndarray) -> np.ndarray:
        x = side * np.asarray(s, dtype=float)
        if inner:
            lin = nu.density(x)
            log_lin = np.log(lin)
            if lin.min() < _UFLOW:
                log_lin = np.where(lin < _UFLOW, nu.log_density(x), log_lin)
        else:
            log_lin = nu.log_density(x)
            lin = np.exp(log_lin)
        return part(x, lin, log_lin)

    return f


def _tail_value(nu: LevyMeasure, side: int, part: Optional[Part],
                converges: bool, div_sign: int, q: QuadratureSettings,
                pts: Sequence[float]) -> Tuple[ExtReal, float]:
    """``∫`` over ``side*x > INNER_CUT``: bounded panels up to the last
    breakpoint there (or to the end of a bounded tail), then doubling
    panels; a hinted divergence is a signed infinity without quadrature."""
    if part is None:
        return ExtReal.finite(0.0), 0.0
    if not converges:
        return (POS_INF if div_sign > 0 else NEG_INF), 0.0
    hi = _tail_upper_limit(nu, side)
    if hi <= INNER_CUT:
        return ExtReal.finite(0.0), 0.0
    f = _density_product(nu, side, part, inner=False)
    if math.isfinite(hi):
        total, err = _panel(f, INNER_CUT, hi * (1.0 + 1e-12), q, pts)
        return ExtReal.finite(total), err
    lo = max((p for p in pts if INNER_CUT < p < hi), default=INNER_CUT)
    total, err = _geometric_sum(f, lo, math.inf, q)
    if lo > INNER_CUT and math.isfinite(total):
        v, e = _panel(f, INNER_CUT, lo, q, pts)
        total, err = total + v, err + e
    return ExtReal.finite(total), err


def _inner_value(nu: LevyMeasure, side: int, part: Optional[Part],
                 q: QuadratureSettings,
                 pts: Sequence[float]) -> Tuple[ExtReal, float]:
    """Integral over ``0 < side*x <= INNER_CUT``: bounded panels down to
    the smallest breakpoint, then the halving panels of
    :func:`_geometric_sum` from there to the origin.  An overflow is a
    signed infinity; a sum that diverges at the origin raises."""
    if part is None:
        return ExtReal.finite(0.0), 0.0
    f = _density_product(nu, side, part, inner=True)
    cut = min((p for p in pts if 0.0 < p < INNER_CUT), default=INNER_CUT)
    val, err = _geometric_sum(f, 0.0, cut, q)
    if math.isinf(err):
        raise NonIntegrableLevyMeasure(
            "the inner integral diverges at the origin")
    if cut < INNER_CUT and math.isfinite(val):
        v, e = _panel(f, cut, INNER_CUT, q, pts)
        val, err = val + v, err + e
    return ExtReal.finite(val), err


def _pulled_back(pb: _Pullback, q: QuadratureSettings,
                 inner_g: Optional[Part], right: SidePlan, left: SidePlan,
                 breakpoints: Sequence[float]) -> Tuple[ExtReal, float]:
    """:func:`two_sided_integral` of an image measure as one over its base:
    base points within ``u`` of the origin map into the image's inner cut
    and take ``inner_g``, the others take the image's side plans; every
    part gets the base's density with the image's tilt and ``log|φ|``."""
    u_r, u_l = pb.base_distance(+1, INNER_CUT), pb.base_distance(-1, INNER_CUT)

    def g(t: np.ndarray, nu: np.ndarray, log_nu: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            args = (pb.phi(t), nu, log_nu, pb.tilt, pb.log_abs_phi(t))

            def value(part: Optional[Part]):
                return 0.0 if part is None else part(*args)

            inside = np.where(t > 0, t <= u_r, -t <= u_l)
            val = np.where(t > 0, value(right.tail), value(left.tail))
            return np.where(inside, value(inner_g), val)

    def base_plan(plan: SidePlan, u: float) -> SidePlan:
        if ((inner_g is None or u <= INNER_CUT)
                and (plan.tail is None or u == math.inf)):
            return SidePlan(None, True)  # nothing to integrate beyond the cut
        return SidePlan(g, plan.converges, plan.div_sign)

    pts = [u_r, u_l] + [pb.base_distance(side, abs(b))
                        for b in breakpoints for side in (+1, -1)]
    return two_sided_integral(pb.base, q, inner_g=g,
                              right=base_plan(right, u_r),
                              left=base_plan(left, u_l),
                              breakpoints=pts)


def two_sided_integral(nu: LevyMeasure, q: QuadratureSettings, *,
                       inner_g: Optional[Part],
                       right: SidePlan, left: SidePlan,
                       breakpoints: Sequence[float] = ()) -> Tuple[ExtReal, float]:
    """Structured integral of ``g dν`` for a *density* measure or an image
    of one.

    ``inner_g`` is the integrand part on ``|x| <= INNER_CUT``, ``O(x^2)``
    at the origin (or None when it vanishes there); the tail parts live in
    the side plans.  Every part is called as ``part(x, ν(x), log ν(x))``
    and returns its own product with the density (see
    :func:`exp_integrand`).  Image measures are integrated against their
    base by pullback.  Purely atomic measures never reach this function,
    their sums are exact.
    """
    pb = _pullback(nu)
    if pb is not None:
        return _pulled_back(pb, q, inner_g, right, left, breakpoints)
    pts = [abs(b) for b in breakpoints]

    if (nu.is_symmetric() and (right.tail is None) == (left.tail is None)
            and right.converges and left.converges):
        # fold x -> -x, where ν(-x) = ν(x): odd parts cancel exactly; a side
        # that diverges on its own is not folded, so two opposite divergent
        # tails surface as "undefined" instead of cancelling
        folded_tail = folded_inner = None
        if right.tail is not None:
            rt, lt = right.tail, left.tail
            folded_tail = lambda x, n, ln: rt(x, n, ln) + lt(-x, n, ln)
        if inner_g is not None:
            gi = inner_g
            folded_inner = lambda x, n, ln: gi(x, n, ln) + gi(-x, n, ln)
        t, terr = _tail_value(nu, +1, folded_tail, True, 1, q, pts)
        inner, ierr = _inner_value(nu, +1, folded_inner, q, pts)
        return t + inner, terr + ierr

    tr, er = _tail_value(nu, +1, right.tail, right.converges,
                         right.div_sign, q, pts)
    tl, el = _tail_value(nu, -1, left.tail, left.converges,
                         left.div_sign, q, pts)
    total = tr + tl
    if not total.is_finite:
        return total, 0.0
    ir, eir = _inner_value(nu, +1, inner_g, q, pts)
    il, eil = _inner_value(nu, -1, inner_g, q, pts)
    return total + ir + il, er + el + eir + eil
