"""Integration against jump measures: one kernel for every integral
``∫ g dν`` the package needs.

Density integrals are split into five panels per the package-wide layout::

    (-inf, -1] | [-1, -zw] | (-zw, zw) | [zw, 1] | [1, inf)

with ``zw = zero_window``.  :func:`two_sided_integral` is the kernel; the
public :func:`levy_integral` is a thin wrapper over it that adds exact atom
sums and tails without decay hints.  The kind of each panel picks its
QUADPACK policy (Piessens et al. 1983):

* a tail whose convergence a decay hint decides goes to QAGI, with a
  doubling-panel classifier as fallback; a hinted divergent tail is a
  signed infinity without any quadrature;
* a tail without a hint first passes a doubling-panel probe that rules out
  (signed) divergence — QAGI left alone would report the finite part of
  ``∫ x^{-p}, p < 1`` as a clean success — and only then QAGI, with full
  panel classification as the fallback;
* the bounded panel ``[zw, 1]`` goes to QAGS, retried in log space;
* the window ``(-zw, zw)`` is a second-order series for integrands that are
  O(x^2) by contract (``compensated``), otherwise a strict QAGS panel that
  falls back to halving-panel classification, so a non-integrable origin
  comes back as a signed infinity.

:func:`one_sided_integral` applies the same three interval policies
(origin, unbounded tail, bounded panel) to the moments ``∫ s^p dν`` of one
side; the small-jump moments and tail masses, the monotonicity test and
the simulation rates all go through it.

Exactly symmetric measures with hinted tails are integrated by folding the
negative axis onto the positive one, so odd integrands cancel in IEEE
arithmetic rather than to quadrature tolerance.  That exactness is what
downstream code relies on to report "the mean is zero" for symmetric models
without a fudge factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate

from ..errors import NonIntegrableLevyMeasure, QuadratureFailure
from .extreal import ExtReal, NEG_INF, POS_INF
from .measures import LevyMeasure

__all__ = [
    "QuadratureSettings",
    "DEFAULT_SETTINGS",
    "levy_integral",
    "two_sided_integral",
    "SidePlan",
    "one_sided_integral",
    "small_jump_variation",
    "tail_mass",
    "expm1_minus_x",
    "exp_entropy_term",
]


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and panel parameters shared by all integration routines.

    ``inner_cut`` is the jump size separating "small" (compensated) from
    "large" jumps and ``zero_window`` the half-width of the series window
    around the origin.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    inner_cut: float = 1.0
    zero_window: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not 0.0 < self.zero_window < self.inner_cut:
            raise ValueError("need 0 < zero_window < inner_cut")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions too small")


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


def _scalar(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[float], float]:
    """Adapt a vectorised integrand to the scalar signature quad expects."""

    def wrapped(x: float) -> float:
        return float(np.asarray(f(np.asarray(x, dtype=float))))

    return wrapped


# ---------------------------------------------------------------------------
# QUADPACK wrapper
# ---------------------------------------------------------------------------


def _quad(f: Callable[[float], float], a: float, b: float, q: QuadratureSettings,
          points: Optional[Sequence[float]] = None,
          epsabs: Optional[float] = None,
          sloppy: bool = True) -> Tuple[float, float, bool]:
    """One quad call; returns (value, error estimate, converged flag).

    Never raises: callers decide whether a sloppy result is fatal, a reason
    to fall back to panel classification, or acceptable.  ``sloppy=False``
    refuses warned results outright — required wherever the integrand may
    hide a non-integrable singularity, because the spurious "finite part"
    QUADPACK extrapolates there can be large enough to pass the relative
    error gate on its own scale.
    """
    kwargs = dict(
        full_output=1,
        epsabs=q.abs_tol * 0.1 if epsabs is None else epsabs,
        epsrel=max(q.rel_tol * 0.1, 5e-14),
        limit=q.max_subdivisions,
    )
    if points is not None and math.isfinite(a) and math.isfinite(b):
        pts = sorted(p for p in points if a < p < b)
        if pts:
            kwargs["points"] = pts
    with np.errstate(all="ignore"):
        res = integrate.quad(f, a, b, **kwargs)
    val, err = res[0], res[1]
    ok = len(res) == 3 and math.isfinite(val)
    if not ok and sloppy and math.isfinite(val):
        # quad complained; accept anyway when its own error estimate is
        # within an order of magnitude of the requested tolerance
        ok = err <= 10.0 * max(q.abs_tol, abs(val) * q.rel_tol)
    return val, err, ok


# ---------------------------------------------------------------------------
# divergence classification by doubling panels
# ---------------------------------------------------------------------------

_GROW_LIMIT = 4
_FLAT_LIMIT = 3


def _classify_geometric(piece_at: Callable[[int], float], q: QuadratureSettings,
                        max_panels: int, what: str) -> Tuple[str, float]:
    """Sum panel contributions ``piece_at(k)`` for geometrically scaled
    panels and classify the series.

    Returns ``("conv", value)`` or ``("div", signed_inf_sign)``.  Growth
    over several consecutive panels, a partial sum passing ``1/abs_tol``,
    or a non-finite panel all mean divergence; steadily shrinking panels
    are summed with a geometric remainder estimate.
    """
    total = 0.0
    prev = None
    grow = flat = 0
    ratios = []
    last_sign = 1.0
    for k in range(max_panels):
        piece = piece_at(k)
        if not math.isfinite(piece):
            return "div", math.copysign(1.0, piece) if piece == piece else last_sign
        total += piece
        if piece != 0.0:
            last_sign = math.copysign(1.0, piece)
        if abs(total) > 1.0 / q.abs_tol:
            return "div", math.copysign(1.0, total)
        if prev is not None:
            if abs(piece) > abs(prev) * (1.0 + 1e-9) and abs(piece) > q.abs_tol:
                grow += 1
            else:
                grow = 0
            if abs(prev) > 0 and abs(piece) > 0:
                ratios.append(abs(piece) / abs(prev))
            if grow >= _GROW_LIMIT:
                return "div", last_sign
        if abs(piece) <= max(q.abs_tol * 1e-2, abs(total) * q.rel_tol * 1e-2):
            flat += 1
            if flat >= _FLAT_LIMIT:
                return "conv", total
        else:
            flat = 0
        # geometric extrapolation once the ratio has stabilised below one
        if len(ratios) >= 3:
            r3 = ratios[-3:]
            rbar = sum(r3) / 3.0
            if rbar < 1.0 and max(abs(r - rbar) for r in r3) < 0.02 * (1.0 - rbar):
                remainder = piece * rbar / (1.0 - rbar)
                if abs(remainder) <= max(q.abs_tol, abs(total) * q.rel_tol) * 0.5:
                    return "conv", total + remainder
        prev = piece
    raise QuadratureFailure(f"could not classify {what} after {max_panels} panels")


def _classify_tail(f: Callable[[float], float], q: QuadratureSettings,
                   start: float = 1.0) -> Tuple[str, float]:
    """Classify ``∫_start^inf f`` via panels [start*2^k, start*2^(k+1)]."""

    def piece(k: int) -> float:
        a, b = start * 2.0 ** k, start * 2.0 ** (k + 1)
        val, _, _ = _quad(f, a, b, q)
        return val

    return _classify_geometric(piece, q, 64, "tail integral")


def _classify_origin(f: Callable[[float], float], q: QuadratureSettings,
                     start: float) -> Tuple[str, float]:
    """Classify ``∫_0^start f`` via panels [start*2^-(k+1), start*2^-k]."""

    def piece(k: int) -> float:
        b = start * 2.0 ** (-k)
        val, _, _ = _quad(f, b / 2.0, b, q)
        return val

    return _classify_geometric(piece, q, 4096, "integral near zero")


_PROBE_PANELS = 8


def _unhinted_tail(f: Callable[[float], float], q: QuadratureSettings,
                   start: float) -> Tuple[str, float, float]:
    """``∫_start^inf f`` when nothing is known about the tail's decay.

    QAGI alone cannot be trusted here: on a polynomially divergent tail it
    extrapolates the (negative!) finite part and reports a clean success.
    A short doubling-panel probe detects that growth first; a decaying
    prefix earns the direct QAGI evaluation, and if QAGI still complains
    the full panel classifier decides.  Returns ``(status, value, err)``
    with ``value`` the divergence sign when ``status == "div"``.
    """
    prev = None
    grow = 0
    for k in range(_PROBE_PANELS):
        a, b = start * 2.0 ** k, start * 2.0 ** (k + 1)
        piece, _, _ = _quad(f, a, b, q)
        if not math.isfinite(piece):
            sign = math.copysign(1.0, piece) if piece == piece else 1.0
            return "div", sign, 0.0
        if (prev is not None and abs(piece) > abs(prev) * (1.0 + 1e-9)
                and abs(piece) > q.abs_tol):
            grow += 1
            if grow >= _GROW_LIMIT:
                return "div", math.copysign(1.0, piece), 0.0
        else:
            grow = 0
        prev = piece
    val, err, ok = _quad(f, start, math.inf, q)
    if ok:
        return "conv", val, err
    status, out = _classify_tail(f, q, start)
    return status, out, q.abs_tol


# ---------------------------------------------------------------------------
# one-sided integrals over jump distances
# ---------------------------------------------------------------------------


def _tail_upper_limit(nu: LevyMeasure, side: int) -> float:
    decay = nu.right_tail() if side > 0 else nu.left_tail()
    if decay.kind == "bounded" and math.isfinite(decay.cutoff):
        return decay.cutoff
    return math.inf


def _panel_with_log_retry(f: Callable[[float], float], a: float, b: float,
                          q: QuadratureSettings,
                          pts: Sequence[float]) -> Tuple[float, float, bool]:
    """Quad over ``[a, b] ⊂ (0, inf)``; on failure retry under ``x = e^u``.

    Integrable power singularities at the origin turn into smooth
    exponentials in log space, which sidesteps the extrapolation-table
    roundoff QAGS reports on panels spanning many decades.
    """
    val, err, ok = _quad(f, a, b, q, points=pts)
    if ok or a <= 0.0:
        return val, err, ok
    lo, hi = math.log(a), math.log(b)
    log_pts = [math.log(p) for p in pts if a < p < b]
    val2, err2, ok2 = _quad(lambda u: f(math.exp(u)) * math.exp(u),
                            lo, hi, q, points=log_pts)
    if ok2:
        return val2, err2, True
    # neither representation converged: keep the better error estimate
    return (val, err, False) if err <= err2 else (val2, err2, False)


@lru_cache(maxsize=1024)
def one_sided_integral(nu: LevyMeasure, side: int, power: int,
                       lo: float, hi: float,
                       q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``∫_{lo < s < hi} s^power ν(side*s) ds`` for a density measure, over
    jump distances ``s`` on one side.

    The interval is clipped to the side's support, and its kind picks the
    policy: from the origin (``lo == 0``), strict QUADPACK acceptance
    with the doubling-panel classifier as fallback, since a non-integrable
    origin would otherwise pass its spurious finite part; out to infinity,
    the divergence probe of an unhinted tail; a bounded panel away from
    the origin, QAGS with a log-space retry.  A divergent integral comes
    back as ``inf``; a panel that fails raises :class:`QuadratureFailure`.
    Results are cached.
    """
    end = _tail_upper_limit(nu, side)
    if min(hi, end) <= lo:
        return 0.0
    hi = min(hi, end * (1.0 + 1e-12))

    def f(s: float) -> float:
        with np.errstate(all="ignore"):
            d = np.asarray(nu.density(np.asarray(side * s, dtype=float)))
            # s*s, not s**2: pow rounds differently, and c(κ) uses x^2 mass
            v = float(math.prod((s,) * power) * d)
        return v if math.isfinite(v) else 0.0

    if lo == 0.0:
        val, _, ok = _quad(f, 0.0, hi, q, epsabs=q.abs_tol * 1e-4, sloppy=False)
        if ok and val >= 0.0:
            return val
        status, val = _classify_origin(f, q, hi)
    elif math.isinf(hi):
        status, val, _ = _unhinted_tail(f, q, lo)
    else:
        val, _, ok = _panel_with_log_retry(f, lo, hi, q, ())
        if not ok:
            raise QuadratureFailure(
                f"could not integrate the jump density on side {side:+d} "
                f"over [{lo:g}, {hi:g}]")
        return val
    return math.inf if status == "div" else val


# ---------------------------------------------------------------------------
# small-jump moments and tail masses
# ---------------------------------------------------------------------------


def _one_sided_x2_mass(nu: LevyMeasure, side: int, r: float,
                       q: QuadratureSettings) -> float:
    """``∫_{0 < side*x <= r} x^2 ν(dx)`` for a density measure."""
    val = one_sided_integral(nu, side, 2, 0.0, r, q)
    if math.isinf(val):
        raise NonIntegrableLevyMeasure(
            "x^2 is not integrable near zero against this measure")
    if val < 0.0:
        raise QuadratureFailure("small-jump variation integration failed")
    return val


def small_jump_variation(nu: LevyMeasure, q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``∫_{0 < |x| <= inner_cut} x^2 ν(dx)``; raises if infinite."""
    atoms = nu.atoms()
    if atoms is not None:
        return math.fsum(m * p * p for p, m in atoms if abs(p) <= q.inner_cut)
    if nu.is_symmetric():
        return 2.0 * _one_sided_x2_mass(nu, +1, q.inner_cut, q)
    return (_one_sided_x2_mass(nu, +1, q.inner_cut, q)
            + _one_sided_x2_mass(nu, -1, q.inner_cut, q))


def _one_sided_tail_mass(nu: LevyMeasure, side: int, q: QuadratureSettings) -> float:
    val = one_sided_integral(nu, side, 0, q.inner_cut, math.inf, q)
    if math.isinf(val):
        raise NonIntegrableLevyMeasure("infinite jump mass beyond the inner cut")
    if val < 0.0:
        raise QuadratureFailure("tail mass integration failed")
    return val


def tail_mass(nu: LevyMeasure, q: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """``ν({|x| > inner_cut})``."""
    atoms = nu.atoms()
    if atoms is not None:
        return math.fsum(m for p, m in atoms if abs(p) > q.inner_cut)
    if nu.is_symmetric():
        return 2.0 * _one_sided_tail_mass(nu, +1, q)
    return _one_sided_tail_mass(nu, +1, q) + _one_sided_tail_mass(nu, -1, q)


# ---------------------------------------------------------------------------
# two-sided integrals: the kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SidePlan:
    """Tail plan for one side of a structured integral.

    ``tail_f`` maps distances ``s > inner_cut`` (always positive; the left
    side is pre-mirrored) to integrand values ``g(±s) ν(±s)`` and must be
    overflow-safe.  ``converges`` is decided by the caller from tail-decay
    hints; a divergent side contributes ``div_sign * inf``, and ``None``
    (no hint) sends an unbounded tail through the divergence probe.
    """

    tail_f: Optional[Callable[[np.ndarray], np.ndarray]]
    converges: Optional[bool]
    div_sign: int = 1


def _tail_value(nu: LevyMeasure, side: int, plan: SidePlan,
                q: QuadratureSettings) -> Tuple[ExtReal, float]:
    if plan.tail_f is None:
        return ExtReal.finite(0.0), 0.0
    if plan.converges is False:
        return (POS_INF if plan.div_sign > 0 else NEG_INF), 0.0
    hi = _tail_upper_limit(nu, side)
    if hi <= q.inner_cut:
        return ExtReal.finite(0.0), 0.0
    f = _scalar(plan.tail_f)
    if plan.converges is None and math.isinf(hi):
        status, out, err = _unhinted_tail(f, q, q.inner_cut)
    else:
        out, err, ok = _quad(f, q.inner_cut, hi * (1.0 + 1e-12), q)
        status = "conv"
        if not ok:
            status, out = _classify_tail(f, q, q.inner_cut)
            err = q.abs_tol
    if status == "div":
        return (POS_INF if out > 0 else NEG_INF), 0.0
    return ExtReal.finite(out), err


def _inner_value(nu: LevyMeasure, side: int, inner_g, q: QuadratureSettings,
                 compensated: bool, breakpoints: Sequence[float]) -> Tuple[float, float]:
    """Integral over ``0 < side*x <= inner_cut``: the [zw, 1] panel plus the
    series window (compensated integrands) or a direct [0, zw] panel, which
    may come back as a signed infinity."""
    if inner_g is None:
        return 0.0, 0.0

    def f(x: float) -> float:
        xx = np.asarray(side * x, dtype=float)
        with np.errstate(all="ignore"):
            return float(np.asarray(inner_g(xx) * nu.density(xx)))

    zw = q.zero_window
    pts = [abs(b) for b in breakpoints]
    val, err, ok = _panel_with_log_retry(f, zw, q.inner_cut, q, pts)
    if not ok:
        raise QuadratureFailure(f"inner panel failed on side {side:+d}")
    if compensated:
        # series window: integrand is O(x^2) by contract, so approximate it
        # by (g(x)/x^2 at the window edge) * one-sided second moment of ν
        g_edge = float(np.asarray(inner_g(np.asarray(side * zw, dtype=float))))
        core = 0.0
        if g_edge != 0.0:
            core = (g_edge / (zw * zw)) * _one_sided_x2_mass(nu, side, zw, q)
        return val + core, err
    # strict acceptance: a non-integrable origin must not pass its
    # extrapolated finite part
    cval, cerr, ok = _quad(f, 0.0, zw, q, sloppy=False)
    if not ok:
        status, cval = _classify_origin(f, q, zw)
        if status == "div":
            cval = math.copysign(math.inf, cval)
        cerr = q.abs_tol
    return val + cval, err + cerr


def two_sided_integral(nu: LevyMeasure, q: QuadratureSettings, *,
                       inner_g: Optional[Callable[[np.ndarray], np.ndarray]],
                       right: SidePlan, left: SidePlan,
                       compensated: bool = True,
                       breakpoints: Sequence[float] = ()) -> Tuple[ExtReal, float]:
    """Structured integral of ``g dν`` for a *density* measure.

    ``inner_g`` is the raw integrand on ``|x| <= inner_cut`` (or None when
    it vanishes there); the tail integrands live in the side plans.  Purely
    atomic measures never reach this function, their sums are exact.
    """
    if (nu.is_symmetric() and (right.tail_f is None) == (left.tail_f is None)
            and right.converges is not None and left.converges is not None):
        # fold x -> -x: odd parts cancel exactly, provided neither side
        # diverges on its own (two opposite divergent tails must surface as
        # "undefined", not cancel)
        if not (right.converges and left.converges):
            total = ExtReal.finite(0.0)
            if not right.converges:
                total = total + (POS_INF if right.div_sign > 0 else NEG_INF)
            if not left.converges:
                total = total + (POS_INF if left.div_sign > 0 else NEG_INF)
            return total, 0.0
        folded_tail = None
        if right.tail_f is not None:
            rf, lf = right.tail_f, left.tail_f
            folded_tail = lambda s: rf(s) + lf(s)
        folded_inner = None
        if inner_g is not None:
            gi = inner_g
            folded_inner = lambda x: gi(x) + gi(-x)
        tail, terr = _tail_value(nu, +1, SidePlan(folded_tail, True), q)
        inner, ierr = _inner_value(nu, +1, folded_inner, q, compensated,
                                   breakpoints)
        return tail + ExtReal.finite(inner), terr + ierr

    tr, er = _tail_value(nu, +1, right, q)
    tl, el = _tail_value(nu, -1, left, q)
    total = tr + tl
    if not total.is_finite:
        return total, 0.0
    ir, eir = _inner_value(nu, +1, inner_g, q, compensated, breakpoints)
    il, eil = _inner_value(nu, -1, inner_g, q, compensated, breakpoints)
    return total + ExtReal.finite(ir + il), er + el + eir + eil


def levy_integral(nu: LevyMeasure, g: Callable[[np.ndarray], np.ndarray],
                  q: QuadratureSettings = DEFAULT_SETTINGS,
                  kind: str = "plain") -> ExtReal:
    """Integrate a user integrand against a jump measure.

    ``kind="plain"`` integrates ``g`` as given (``g`` piecewise smooth);
    ``kind="small_jump_compensated"`` asserts ``g(x) = O(x^2)`` at the
    origin and activates the series window there.  Atom sums are exact;
    divergent integrals come back as signed infinities; integrals that can
    be neither computed nor classified raise :class:`QuadratureFailure`.
    """
    if kind not in ("plain", "small_jump_compensated"):
        raise ValueError(f"unknown integral kind {kind!r}")

    atoms = nu.atoms()
    if atoms is not None:
        if not atoms:
            return ExtReal.finite(0.0)
        positions = np.array([p for p, _ in atoms], dtype=float)
        masses = np.array([m for _, m in atoms], dtype=float)
        values = np.asarray(g(positions), dtype=float)
        return ExtReal.finite(float(math.fsum(masses * values)))

    def tail(side: int) -> SidePlan:
        # an arbitrary integrand carries no decay hint; where the density
        # has underflowed to 0 the product is 0 even if g overflowed
        def f(s: np.ndarray) -> np.ndarray:
            x = side * np.asarray(s, dtype=float)
            with np.errstate(all="ignore"):
                d = nu.density(x)
                return np.where(d > 0, g(x) * d, 0.0)
        return SidePlan(f, None)

    val, _ = two_sided_integral(nu, q, inner_g=g, right=tail(+1),
                                left=tail(-1),
                                compensated=kind == "small_jump_compensated")
    return val
