"""Integration against jump measures: one region rule for every integral
``∫ g dν`` the package needs, and the only code that evaluates a jump
density or sums over atoms.

Density integrals are split into four panels per the package-wide layout::

    (-inf, -1] | [-1, 0) | (0, 1] | [1, inf)

Every integral goes through one private rule, :func:`_region`: ``∫ part
dν`` over the jump sizes ``lo < side*x <= hi`` of one side.
:func:`two_sided_integral`, the kernel, is that rule over each side's tail
``side*x > INNER_CUT`` and over the inner cut ``0 < |x| <= INNER_CUT``,
with one integrand part for the inner cut and one for each tail.
:func:`one_sided_integral` is one region with the part ``x^p ν``: the
small-jump moments and tail masses, the monotonicity test, the market
conversion and the simulation rates all go through it.

Every part has the same contract: the rule calls it with the jump size
``x``, the density ``ν(x)`` and ``log ν(x)``, and the part returns its own
product with the density; the rule multiplies nothing.
:func:`exp_integrand` builds every part the package uses, a :class:`Part`
that carries its tilt κ and power, so the kernel itself reads from the
measure's decay hint whether each tail converges.  It takes ``e^u
ν`` in log space and the factors ``e^u - 1``, ``e^u - 1 - u`` and ``e^u (u
- 1) + 1`` as ``factor(u) ν`` where ``u <= 1`` and as ``e^{u + log ν}``
plus the polynomial part beyond, so a density that underflows never meets
a factor that overflows and a small ``u`` keeps its digits.  The rule
reads the density one way on each side of the cut: beyond it ``log ν``
comes from ``log_density`` and ``ν`` is its exponential; inside it ``ν``
comes from ``density``, so the origin keeps the density's own digits, and
``log ν`` is its logarithm, from ``log_density`` only where ``ν``
underflows.

Every part is array-in, array-out: the rule rests on the 21-point
Gauss–Kronrod rule of :func:`_gk21`, which applies to many panels in one
call of the integrand with the nodes, weights and error estimate of
QUADPACK's ``qk21`` (Piessens et al. 1983).  Its sums are matrix
products, so it agrees with ``qk21`` to rel 1e-14, not bit for bit.  A
region is clipped to its side's support and cut at ``INNER_CUT`` and at
the caller's breakpoints; the kind of each piece picks its rule:

* the two singular ends, from the last cut out to infinity and from the
  origin up to the first cut, are one geometric panel sum
  (:func:`_geometric_sum`): doubling panels ``[lo 2^k, lo 2^(k+1)]`` for
  a tail, halving panels ``[b 2^-(k+1), b 2^-k]`` with GK21 in ``u = ln
  x`` for ``∫_0^b``, where a power law is smooth.  Panels are evaluated a
  chunk per call and summed until three in a row are negligible or the
  ratios of the last ones predict the rest as a geometric series, which
  sums a power law exactly; at the origin, ratios that settle at 1 or
  above mean divergence, an infinite error the caller judges.  A panel
  that fails its error test is refined by bisection.  A tail that its
  decay hint calls divergent for the part's growth is a signed infinity
  without any quadrature;
* every bounded piece between the cuts gets one GK21 step in ``x``, all
  in one call, kept when QUADPACK's own first-step test accepts it; a
  piece that fails it is bisected adaptively in ``u = ln x``, all its
  intervals evaluated together, until QAGS's stopping rule holds.  A
  smooth integrand (finite activity) passes the first step with 21
  evaluations.

No integral calls QUADPACK itself, and a density that is not finite on a
panel raises :class:`~levy_emm.errors.QuadratureFailure` wherever it is
integrated.

Image measures (:class:`~.measures.ExpJumpImage`,
:class:`~.measures.LogJumpImage`, and an :class:`~.measures.ExpTilted`
over either) have no density of their own.  They are integrated by
pullback onto their base, ``∫ g dν_img = ∫ g(φ(t)) ν(dt)`` with ``φ =
expm1`` or ``log1p``: the rule maps a region's ends and breakpoints onto
base distances, so each base point meets only the part of its own image
region, and the base's own hints, panels and origin sum do the work.
The part then gets the base's ``ν`` and ``log ν`` with two more
arguments: the image's own tilt, which joins κ before it multiplies a
price jump that can overflow, and ``log|φ(t)|``.

Purely atomic measures (:class:`~.measures.FiniteAtomic`, and a tilt,
tempering or image of one) take the same parts: the rule calls the part
once on the atoms of its region, with each atom's mass as ``ν``, and sums
the terms exactly by ``math.fsum``.

Exactly symmetric measures, and images of them, are integrated by
folding the negative (base) axis onto the positive one, so odd integrands
cancel in IEEE arithmetic rather than to quadrature tolerance.  That
exactness is what downstream code relies on to report "the mean is zero"
for symmetric models without a fudge factor.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..errors import NonIntegrableLevyMeasure, QuadratureFailure
from .measures import ExpJumpImage, ExpTilted, LevyMeasure, LogJumpImage

__all__ = [
    "INNER_CUT",
    "MAX_SUBDIVISIONS",
    "two_sided_integral",
    "Part",
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
#: QUADPACK's ``(epsabs, epsrel)`` of every panel test: a tenth of the
#: kernel's tolerances, abs 1e-12 and rel 1e-11
_EPSABS, _EPSREL = 1e-13, 1e-12

Fn = Callable[[np.ndarray], np.ndarray]
#: what the rule calls: a :class:`Part`'s function, or a wrap of one
PartFn = Callable[..., np.ndarray]


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


def _bisect(f: Fn, a: float, b: float) -> Tuple[float, float]:
    """``∫_a^b f`` for ``0 < a < b`` by adaptive GK21 bisection in
    ``u = ln x``, with QAGS's stopping rule ``Σ err <= max(epsabs, epsrel
    |Σ val|)``.

    Each round halves, in one call of the integrand, every interval whose
    error is above an equal share of that bound, the largest first while
    there is room under ``MAX_SUBDIVISIONS`` intervals.  Raises
    :class:`QuadratureFailure` on a non-finite value or when the intervals
    run out.
    """
    def g(u: np.ndarray) -> np.ndarray:
        x = np.exp(u)
        return f(x) * x

    lo, hi = np.array([math.log(a)]), np.array([math.log(b)])
    val, err = _gk21(g, lo, hi)
    while True:
        total, errsum = float(val.sum()), float(err.sum())
        bound = max(_EPSABS, _EPSREL * abs(total))
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


def _panel(f: Fn, a: float, b: float,
           pts: Sequence[float] = ()) -> Tuple[float, float]:
    """``∫_a^b f`` over a bounded panel ``0 < a < b``, split at ``pts``.

    Every piece gets one GK21 step in ``x``, all in one call of the
    integrand, kept when it passes QUADPACK's first-step test ``err <=
    max(epsabs, epsrel |val|)``; a piece that fails it is integrated by
    :func:`_bisect` in ``u = ln x``, where a power singularity just left
    of ``a`` is a smooth exponential.
    """
    ends = np.array([a] + sorted(p for p in pts if a < p < b) + [b])
    vals, errs = _gk21(f, ends[:-1], ends[1:])
    total = err = 0.0
    for lo, hi, val, e in zip(ends[:-1].tolist(), ends[1:].tolist(),
                              vals.tolist(), errs.tolist()):
        if not e <= max(_EPSABS, _EPSREL * abs(val)):
            val, e = _bisect(f, lo, hi)
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
#: an absolute floor 1e-8 times the kernel's abs 1e-12, so that a small
#: inner integral, such as c(κ) near κ = 0, keeps its digits
_ORIGIN_REL, _ORIGIN_ABS = 5e-14, 1e-20
#: spread of the last three panel ratios below which they have settled
_SETTLED = 1e-9
#: spread at which the ratios are known to rounding: no later panel can
#: bound the geometric remainder better
_ROUNDOFF = 4.0 * _EPMACH
_LN2 = math.log(2.0)


def _geometric_sum(f: Fn, a: float, b: float) -> Tuple[float, float]:
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
    origin = a == 0.0
    if origin:
        epsabs, epsrel = _ORIGIN_ABS, _ORIGIN_REL
        starts = b * 0.5 ** np.arange(1, _PANELS + 1)
        span = (0.0, _LN2)
    else:
        epsabs, epsrel = _EPSABS, _EPSREL
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
        if not (e <= _EPSABS or e <= _EPSREL * abs(piece)):
            piece, e = _bisect(f, s, 2.0 * s)
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


class Part(NamedTuple):
    """An integrand part, called as its function ``fn`` (see
    :func:`exp_integrand`), and its growth in the tails: ``|x|^power
    e^{κx}``, or ``|x|^power`` when ``tempered`` by a log weight."""

    fn: PartFn
    kappa: float
    power: int
    tempered: bool

    def __call__(self, *args, **kwargs) -> np.ndarray:
        return self.fn(*args, **kwargs)

    def diverges(self, nu: LevyMeasure, side: int) -> int:
        """0 where ``nu``'s decay hint makes the part integrable over the
        tail ``side*x > 1``, else the sign of the divergence, ``side^power``
        (the factor and the prefactor stay positive there)."""
        tilt = 0.0 if self.tempered else side * self.kappa
        finite = nu.side(side).moment_finite(self.power, tilt)
        return 0 if finite else side ** self.power


def exp_integrand(kappa: float, *, factor: Optional[Fn] = None,
                  power: int = 0, prefactor: Optional[Fn] = None,
                  log_weight: Optional[Fn] = None) -> Part:
    """Integrand part ``(x, ν, log ν) -> x^power p(x) F(u) ν`` with ``u =
    κx + w(x)``, where ``F = exp`` or ``factor``: ``np.expm1``,
    :func:`expm1_minus_x` or :func:`exp_entropy_term`.

    The :class:`Part` carries κ and ``power``, from which the kernel reads
    where a tail converges.  A log weight ``w`` must be a penalty that
    beats every tilt (``|x|/w(x) -> 0``), and a prefactor must not change
    where a tail converges.

    ``F = exp`` is taken in log space, ``e^{u + log ν}``, except for a
    plain moment (``u = 0``), which is ``x^power ν`` with the ``ν`` the
    kernel passes, so it keeps the density's own digits inside the cut.
    A factor is ``factor(u) ν`` where ``u <= 1``, which keeps the digits
    of a small ``u`` and of the density, and ``e^{u + log ν} a(u) + p(u)
    ν`` for ``factor = e^u a + p`` beyond: a density that underflows never
    meets a factor that overflows.  For image measures the kernel also
    passes ``tilt``, the image's own tilt, and ``log_abs_x``.  With ``F =
    exp`` the tilt joins κ before it multiplies ``x`` and the power is
    taken in log space: a price jump ``x = e^t - 1`` overflows long before
    ``x^power ν`` does.  With a factor the tilt goes into ``ν``, and ``x``
    must be finite.
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
                    # a plain moment takes ν as the kernel passed it
                    val = nu if not k and w is None else np.exp(expo)
                    if power:
                        val = val * x ** power
            if prefactor is not None:
                val = val * prefactor(x)
        return val

    return Part(f, float(kappa), power, log_weight is not None)


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

    def wrap(self, part: Optional[PartFn]) -> Optional[PartFn]:
        """``part`` over base points: ``t -> part(φ(t), ν, log ν, tilt,
        log|φ(t)|)``."""
        if part is None:
            return None

        def f(t: np.ndarray, nu: np.ndarray, log_nu: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                return part(self.phi(t), nu, log_nu, self.tilt,
                            self.log_abs_phi(t))

        return f


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
# the region rule
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _atom_region(atoms: Tuple[Tuple[float, float], ...], sides: Tuple[int, ...],
                 lo: float, hi: float):
    """Read-only ``(x, ν, log ν)`` arrays, ``ν`` the masses, of the atoms
    with ``lo < side*x <= hi`` on one of ``sides`` (``lo >= 0``, so on at
    most one)."""
    rows = np.array([(x, m, math.log(m) if m else -math.inf)
                     for x, m in atoms for side in sides if lo < side * x <= hi],
                    dtype=float).reshape(-1, 3).T
    rows.flags.writeable = False
    return tuple(rows)


def _density_product(nu: LevyMeasure, side: int, part: PartFn,
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


def _region(nu: LevyMeasure, sides: Tuple[int, ...], part: Optional[PartFn],
            lo: float, hi: float, pts: Sequence[float] = (),
            diverges: int = 0, start: float = 0.0) -> Tuple[float, float]:
    """``start + ∫ part dν`` over ``lo < side*x <= hi`` for each side in
    ``sides``, each side's sum added to ``start`` in turn; the one rule of
    every integral, returned as ``(value, error)``.

    Atoms: ``part`` is called once on the region's atoms, their masses as
    ``ν``, and the terms are summed exactly by ``math.fsum`` with error 0.
    A density: the region is clipped to the side's support and cut at
    ``INNER_CUT`` and at the breakpoints ``pts``.  From the origin to the
    first cut it is the halving panels of :func:`_geometric_sum`, from the
    last cut to infinity its doubling panels (``diverges``, the sign of a
    divergence that :meth:`Part.diverges` read from the tail hint, makes
    that a signed infinity without quadrature), and between the cuts bounded
    :func:`_panel` pieces.  The density is read as
    :func:`_density_product` reads it, linear inside the cut.  The sum
    stops at the first infinite piece: an overflow has error 0, a
    divergence at the origin an infinite error, for the caller to judge.
    An image measure's region is mapped onto its base, where each base
    point meets the part as ``part(φ(t), ν, log ν, tilt, log|φ(t)|)``.
    """
    if part is None:
        return start, 0.0
    atoms = nu.atoms()
    if atoms is not None:
        x, m, log_m = _atom_region(atoms, sides, lo, hi)
        if x.size:
            start += math.fsum(part(x, m, log_m).tolist())
        return start, 0.0
    if diverges and hi == math.inf:
        return start + diverges * math.inf, 0.0
    pb = _pullback(nu)
    if pb is not None:
        nu, part = pb.base, pb.wrap(part)
    total, err = start, 0.0
    for side in sides:
        a, b, cuts = lo, hi, pts
        if pb is not None:
            a, b = pb.base_distance(side, lo), pb.base_distance(side, hi)
            cuts = [pb.base_distance(side, p) for p in pts]
        end = nu.side(side).cutoff
        if min(b, end) <= a:
            continue
        b = min(b, end * (1.0 + 1e-12))
        knots = [a, *sorted(c for c in {INNER_CUT, *cuts} if a < c < b), b]
        inner = _density_product(nu, side, part, inner=True)
        outer = _density_product(nu, side, part, inner=False)
        # the bounded panels lie between the cuts, off the singular ends
        bounded = knots[(a == 0.0):len(knots) - (b == math.inf)]

        def pieces():
            if a == 0.0:
                yield _geometric_sum(inner, 0.0, knots[1])
            if b == math.inf:
                yield _geometric_sum(outer, knots[-2], math.inf)
            for f, ends in ((inner, [k for k in bounded if k <= INNER_CUT]),
                            (outer, [k for k in bounded if k >= INNER_CUT])):
                if len(ends) > 1:
                    yield _panel(f, ends[0], ends[-1], ends[1:-1])

        side_total = 0.0
        for v, e in pieces():
            side_total, err = side_total + v, err + e
            if not math.isfinite(side_total):
                break
        total += side_total
        if not math.isfinite(total):
            break
    return total, err


# ---------------------------------------------------------------------------
# one-sided integrals over jump distances
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def one_sided_integral(nu: LevyMeasure, side: int, power: int,
                       lo: float, hi: float) -> float:
    """``∫_{lo < s <= hi} s^power ν(side*s) ds`` over jump distances ``s``
    on one side: the region rule of :func:`_region` on the part ``x^power
    ν``.

    Atoms are summed exactly over the half-open ``lo < s <= hi``, the
    convention of ``h(x) = x 1_{|x| <= INNER_CUT}``.  Out to infinity the
    tail-decay hint decides divergence; from the origin the settled ratios
    of the halving panels do.  A divergent integral comes back as ``inf``;
    a panel that fails, or that is not finite, raises
    :class:`QuadratureFailure`.  Results are cached.
    """
    part = exp_integrand(0.0, power=power)
    val, _ = _region(nu, (side,), part, lo, hi,
                     diverges=part.diverges(nu, side))
    return side ** power * val


# ---------------------------------------------------------------------------
# small-jump moments and tail masses
# ---------------------------------------------------------------------------


def _both_sides(nu: LevyMeasure, power: int, lo: float, hi: float,
                infinite: str, what: str) -> float:
    """``∫_{lo < |x| <= hi} |x|^power ν(dx)``, one side doubled for a
    symmetric measure; raises ``NonIntegrableLevyMeasure(infinite)`` if
    infinite and ``QuadratureFailure`` naming ``what`` if negative."""
    vals = [one_sided_integral(nu, side, power, lo, hi)
            for side in ((+1,) if nu.is_symmetric() else (+1, -1))]
    if math.inf in vals:
        raise NonIntegrableLevyMeasure(infinite)
    if min(vals) < 0.0:
        raise QuadratureFailure(f"{what} integration failed")
    return 2.0 * vals[0] if len(vals) == 1 else vals[0] + vals[1]


def small_jump_variation(nu: LevyMeasure) -> float:
    """``∫_{0 < |x| <= INNER_CUT} x^2 ν(dx)``; raises if infinite."""
    return _both_sides(nu, 2, 0.0, INNER_CUT,
                       "x^2 is not integrable near zero against this measure",
                       "small-jump variation")


def tail_mass(nu: LevyMeasure) -> float:
    """``ν({|x| > INNER_CUT})``."""
    return _both_sides(nu, 0, INNER_CUT, math.inf,
                       "infinite jump mass beyond the inner cut", "tail mass")


# ---------------------------------------------------------------------------
# two-sided integrals: the kernel
# ---------------------------------------------------------------------------


def two_sided_integral(nu: LevyMeasure, *,
                       inner_g: Optional[Part] = None,
                       right: Optional[Part] = None,
                       left: Optional[Part] = None,
                       breakpoints: Sequence[float] = ()) -> Tuple[float, float]:
    """Structured integral of ``g dν`` for a purely atomic measure, a
    density measure or an image of one: :func:`_region` over each side's
    tail ``side*x > INNER_CUT`` and the inner cut ``0 < |x| <= INNER_CUT``
    (:func:`_folded` where the density is exactly symmetric and both tails
    converge).

    ``inner_g`` is the integrand part on ``|x| <= INNER_CUT``, ``O(x^2)``
    at the origin, and ``right``/``left`` the parts of the tails; None
    where the integrand vanishes.  Every part is called as ``part(x, ν(x),
    log ν(x))`` and returns its own product with the density (see
    :func:`exp_integrand`).  Whether a tail converges is
    :meth:`Part.diverges`; a divergent tail is a signed infinity, and a
    finite sum of atoms needs no decay hint.  Divergent tails skip the
    inner cut; a divergence at the origin raises
    :class:`NonIntegrableLevyMeasure`.  Returns ``(value, error)`` as
    Python floats; the value is NaN where the two tails diverge with
    opposite signs.
    """
    pts = [abs(b) for b in breakpoints]
    sides = ((+1, right), (-1, left))
    div = [0 if part is None else part.diverges(nu, side)
           for side, part in sides]
    if nu.atoms() is None:
        pb = _pullback(nu)
        if ((nu if pb is None else pb.base).is_symmetric()
                and (right is None) == (left is None) and div == [0, 0]):
            return _folded(nu, pb, inner_g, right, left, pts)
    total = err = 0.0
    for (side, part), d in zip(sides, div):
        total, e = _region(nu, (side,), part, INNER_CUT, math.inf, pts, d,
                           total)
        err += e
    if not math.isfinite(total):
        return float(total), 0.0
    total, e = _region(nu, (+1, -1), inner_g, 0.0, INNER_CUT, pts,
                       start=total)
    if math.isinf(e):
        raise NonIntegrableLevyMeasure(
            "the inner integral diverges at the origin")
    return float(total), err + e


def _fold(r: Optional[PartFn], l: Optional[PartFn]) -> Optional[PartFn]:
    """The part ``x -> r(x) + l(-x)``, None where both vanish."""
    if r is None or l is None:
        return r if l is None else (lambda x, n, ln: l(-x, n, ln))
    return lambda x, n, ln: r(x, n, ln) + l(-x, n, ln)


def _folded(nu: LevyMeasure, pb: Optional[_Pullback],
            inner_g: Optional[PartFn], right: Optional[PartFn],
            left: Optional[PartFn], pts: Sequence[float]) -> Tuple[float, float]:
    """:func:`two_sided_integral` where the density is exactly symmetric,
    ``ν(-t) = ν(t)``, the base's for an image: the negative axis folds
    onto the positive one, where each piece of distance between the sides'
    inner cuts is one :func:`_region` of the sum of the part each side's
    region puts there.  Odd parts cancel exactly, and each point still
    meets only the part of its own region."""
    wrap = (lambda part: part) if pb is None else pb.wrap
    cut = {side: INNER_CUT if pb is None else pb.base_distance(side, INNER_CUT)
           for side in (+1, -1)}
    if pb is not None:
        nu, pts = pb.base, [pb.base_distance(side, p) for p in pts
                            for side in (+1, -1)]
    ends = sorted({0.0, *cut.values(), math.inf})
    total = err = 0.0
    # the tails first: a non-finite one skips the inner cut
    for a, b in reversed(list(zip(ends, ends[1:]))):
        part = _fold(wrap(inner_g if b <= cut[+1] else right),
                     wrap(inner_g if b <= cut[-1] else left))
        total, e = _region(nu, (+1,), part, a, b, pts, start=total)
        if math.isinf(e):
            raise NonIntegrableLevyMeasure(
                "the inner integral diverges at the origin")
        if not math.isfinite(total):
            return float(total), 0.0
        err += e
    return float(total), err
