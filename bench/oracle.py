"""An oracle for the benchmark's checks that shares no code with levy-emm.

The cumulant of a Levy triplet ``(b, sigma2, nu)`` under the truncation
``h(x) = x 1{|x| <= 1}`` is

    c(k)  = b k + sigma2 k^2 / 2 + int (e^{kx} - 1 - k h(x)) nu(dx)
    c'(k) = b + sigma2 k + int (x e^{kx} - h(x)) nu(dx).

Brownian, finite-atomic, Kou and Merton jumps have these in closed form.
Variance-gamma, CGMY and symmetric-stable jumps, and every integral of a
tempered or converted measure, go through this module's own
double-exponential quadrature (tanh-sinh on ``[0, 1]``, exp-sinh on
``[1, inf)``), which absorbs the algebraic singularity at the origin and
the algebraic tails without adaptivity; the benchmark's tests check it
against mpmath and closed forms.  Moment intervals and their endpoint
memberships are read off each family's parameters, and roots are found
by this module's own bracketing bisection.

Models are the decoded JSON spec files the benchmark hands the program.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import expit

INF = math.inf
_BISECT_STEPS = 200

# double-exponential nodes and weights: step 1/32 on t in [-6.5, 6.5]
_T = np.arange(-6.5, 6.5 + 1.0 / 64, 1.0 / 32)
_U = np.pi * np.sinh(_T)
_LOWER = _T < 0
_NEAR = np.where(_LOWER, expit(_U), expit(-_U))  # distance to nearer end
_UNIT_W = np.pi * np.cosh(_T) * expit(_U) * expit(-_U) / 32
_E = np.exp(0.5 * _U)
_TAIL_X = 1.0 + _E                               # exp-sinh on (1, inf)
_TAIL_W = 0.5 * np.pi * np.cosh(_T) * _E / 32


def _sum(w: np.ndarray, values: np.ndarray) -> float:
    values = np.where(np.isfinite(values), values, 0.0)
    return float(np.dot(w, values))


def integrate_between(f, a: float, b: float) -> float:
    """``int_a^b f`` for finite ``a < b`` by tanh-sinh, ``f`` vectorised.

    Nodes are placed from the nearer end, so an integrable singularity at
    either end keeps its full resolution in floating point.
    """
    x = np.where(_LOWER, a + (b - a) * _NEAR, b - (b - a) * _NEAR)
    with np.errstate(all="ignore"):
        return (b - a) * _sum(_UNIT_W, f(x))


def integrate_unit(f) -> float:
    """``int_0^1 f``."""
    return integrate_between(f, 0.0, 1.0)


def integrate_tail(f) -> float:
    """``int_1^inf f`` for ``f`` decaying exponentially or algebraically."""
    with np.errstate(all="ignore"):
        return _sum(_TAIL_W, f(_TAIL_X))


class OutsideDomain(ValueError):
    """A cumulant was asked for outside the exponential-moment interval."""


def _f(x) -> float:
    return float(x)


_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# moment intervals
# ---------------------------------------------------------------------------


def moment_interval(nu: dict) -> dict:
    """``I = {k : E e^{k L_1} < inf}`` as ``{a, b, a_in_I, b_in_I, a_in_E,
    b_in_E}``, ``E`` being where the first tilted moment is finite.

    Infinite endpoints carry ``False`` flags.  The shapes are ``R`` (no
    exponential tail), ``(-eta_minus, eta_plus)`` (Kou), ``(-G, M)``
    (variance gamma), ``[-G, M]`` (CGMY, in ``E`` only when ``Y > 1``)
    and ``{0}`` (symmetric stable, in ``E`` only when ``alpha > 1``).
    """
    kind = nu["kind"]
    if kind in ("zero", "finite_atomic"):
        return _interval(-INF, INF, False, False)
    if kind == "jump_diffusion":
        j = nu["jumps"]
        if j["kind"] == "gaussian":
            return _interval(-INF, INF, False, False)
        p = _f(j["p"])
        a = -_f(j["eta_minus"]) if p < 1.0 else -INF
        b = _f(j["eta_plus"]) if p > 0.0 else INF
        return _interval(a, b, False, False)
    if kind == "variance_gamma":
        return _interval(-_f(nu["G"]), _f(nu["M"]), False, False)
    if kind == "cgmy":
        in_e = _f(nu["Y"]) > 1.0
        return _interval(-_f(nu["G"]), _f(nu["M"]), True, in_e)
    if kind == "symmetric_alpha_stable":
        return _interval(0.0, 0.0, True, _f(nu["alpha"]) > 1.0)
    raise ValueError(f"no oracle for jump kind {kind!r}")


def _interval(a: float, b: float, closed: bool, in_e: bool) -> dict:
    return {"a": a, "b": b,
            "a_in_I": closed and math.isfinite(a),
            "b_in_I": closed and math.isfinite(b),
            "a_in_E": closed and in_e and math.isfinite(a),
            "b_in_E": closed and in_e and math.isfinite(b)}


def in_interval(iv: dict, k: float) -> bool:
    if iv["a"] < k < iv["b"]:
        return True
    return ((k == iv["a"] and iv["a_in_I"]) or (k == iv["b"] and iv["b_in_I"]))


# ---------------------------------------------------------------------------
# jump parts in closed form
# ---------------------------------------------------------------------------


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _atomic(atoms, k: float, deriv: bool) -> float:
    terms = []
    for atom in atoms:
        x, m = _f(atom["x"]), _f(atom["mass"])
        small = abs(x) <= 1.0
        if deriv:
            terms.append(m * (x * math.expm1(k * x) if small
                              else x * math.exp(k * x)))
        else:
            u = k * x
            terms.append(m * (math.expm1(u) - u if small else math.expm1(u)))
    return math.fsum(terms)


def _merton(lam: float, mu: float, s: float, k: float, deriv: bool) -> float:
    # E[X; |X| <= 1] for X ~ N(mu, s^2)
    lo, hi = (-1.0 - mu) / s, (1.0 - mu) / s
    partial = (mu * (_norm_cdf(hi) - _norm_cdf(lo))
               - s * (_norm_pdf(hi) - _norm_pdf(lo)))
    mgf = math.exp(mu * k + 0.5 * s * s * k * k)
    if deriv:
        return lam * (mgf * (mu + s * s * k) - partial)
    return lam * (mgf - 1.0 - k * partial)


def _kou(lam: float, p: float, ep: float, em: float, k: float,
         deriv: bool) -> float:
    if not (-em < k or p == 1.0) or not (k < ep or p == 0.0):
        raise OutsideDomain(f"k={k} outside (-{em}, {ep})")

    def unit_partial(eta: float) -> float:  # int_0^1 x eta e^{-eta x} dx
        return -math.expm1(-eta) / eta - math.exp(-eta)

    partial = p * unit_partial(ep) - (1.0 - p) * unit_partial(em)
    if deriv:
        moment = (p * ep / (ep - k) ** 2 if p > 0 else 0.0) - (
            (1.0 - p) * em / (em + k) ** 2 if p < 1 else 0.0)
        return lam * (moment - partial)
    mgf = ((p * ep / (ep - k) if p > 0 else 0.0)
           + ((1.0 - p) * em / (em + k) if p < 1 else 0.0))
    return lam * (mgf - 1.0 - k * partial)


# ---------------------------------------------------------------------------
# jump parts of the density families
# ---------------------------------------------------------------------------


def _density_params(nu: dict):
    """``(C, rate_right, rate_left, Y)`` of ``C e^{-rate |x|} |x|^{-1-Y}``."""
    kind = nu["kind"]
    if kind == "variance_gamma":
        return _f(nu["C"]), _f(nu["M"]), _f(nu["G"]), 0.0
    if kind == "cgmy":
        return _f(nu["C"]), _f(nu["M"]), _f(nu["G"]), _f(nu["Y"])
    scale = _f(nu.get("scale", 1.0))
    return scale, 0.0, 0.0, _f(nu["alpha"])


def _expm1_minus(u: np.ndarray) -> np.ndarray:
    """``e^u - 1 - u``, by its series where the difference cancels."""
    series = u * u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u / 120.0)))
    return np.where(np.abs(u) < 1e-3, series, np.expm1(u) - u)


@lru_cache(maxsize=4096)
def _side_integral(C: float, rate: float, Y: float, t: float,
                   deriv: bool) -> float:
    """One tail side of the jump part, with ``t = side * k`` the tilt along
    that side: ``int_0^inf g(s) C e^{-rate s} s^{-1-Y} ds`` where ``g`` is
    ``e^{ts} - 1 - ts 1{s<=1}`` (or ``s(e^{ts} - 1{s<=1})`` for ``c'``)."""
    p = -1.0 - Y

    def inner(s):
        dens = C * np.exp(-rate * s) * s ** p
        if deriv:
            return s * np.expm1(t * s) * dens
        return _expm1_minus(t * s) * dens

    def outer(s):
        dens = C * s ** p
        if deriv:
            return s * np.exp((t - rate) * s) * dens
        return (np.exp((t - rate) * s) - np.exp(-rate * s)) * dens

    return integrate_unit(inner) + integrate_tail(outer)


def _density_jumps(nu: dict, k: float, deriv: bool) -> float:
    C, r_right, r_left, Y = _density_params(nu)
    iv = moment_interval(nu)
    if not in_interval(iv, k):
        raise OutsideDomain(f"k={k} outside the moment interval")
    if deriv and k in (iv["a"], iv["b"]) and not (
            iv["a_in_E"] if k == iv["a"] else iv["b_in_E"]):
        raise OutsideDomain(f"c'({k}) diverges")
    if nu["kind"] == "symmetric_alpha_stable":
        if deriv and Y <= 1.0:
            raise OutsideDomain("the mean of a stable law with alpha <= 1 "
                                "does not exist")
        # k == 0: c(0) = 0 and the two tails of c'(0) cancel exactly
        return 0.0
    right = _side_integral(C, r_right, Y, k, deriv)
    left = _side_integral(C, r_left, Y, -k, deriv)
    return right - left if deriv else right + left


# ---------------------------------------------------------------------------
# the cumulant
# ---------------------------------------------------------------------------


def _jumps(nu: dict, k: float, deriv: bool) -> float:
    kind = nu["kind"]
    if kind == "zero":
        return 0.0
    if kind == "finite_atomic":
        return _atomic(nu["atoms"], k, deriv)
    if kind == "jump_diffusion":
        lam, j = _f(nu["intensity"]), nu["jumps"]
        if j["kind"] == "gaussian":
            return _merton(lam, _f(j["mean"]), _f(j["std"]), k, deriv)
        return _kou(lam, _f(j["p"]), _f(j["eta_plus"]), _f(j["eta_minus"]),
                    k, deriv)
    return _density_jumps(nu, k, deriv)


def cumulant(spec: dict, k: float) -> float:
    """``c(k)`` of the spec's triplet; raises :class:`OutsideDomain`."""
    k = float(k)
    if k == 0.0:
        return 0.0
    b, s2 = _f(spec["b"]), _f(spec["sigma2"])
    return b * k + 0.5 * s2 * k * k + _jumps(spec["nu"], k, False)


def cumulant_derivative(spec: dict, k: float) -> float:
    """``c'(k)`` of the spec's triplet; raises :class:`OutsideDomain`."""
    k = float(k)
    b, s2 = _f(spec["b"]), _f(spec["sigma2"])
    return b + s2 * k + _jumps(spec["nu"], k, True)


def esscher_entropy(spec: dict, k: float) -> float:
    """Relative entropy ``T (k c'(k) - c(k))`` of the ``k``-tilt."""
    if k == 0.0:
        return 0.0
    return _f(spec["T"]) * (k * cumulant_derivative(spec, k) - cumulant(spec, k))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def increasing_root(g, lo: float, hi: float, tol: float = 1e-13):
    """Root of an increasing ``g`` on ``[lo, hi]`` by bisection.

    Returns ``None`` when ``g`` keeps one sign on the closed interval.
    """
    g_lo, g_hi = g(lo), g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        return None
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)) or mid in (lo, hi):
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if g_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _search_range(iv: dict, shift: float = 0.0, within: str = "I"):
    """A closed sub-interval of ``{k : k, k + shift in I}`` (or of ``E``,
    with ``within="E"``) to bracket a root in.

    Open ends are approached to within ``1e-9`` relative, infinite ends
    are cut at +-40: every closed-form family the benchmark draws has its
    root well inside that.
    """
    lo, hi = iv["a"], iv["b"] - shift
    lo = -40.0 if math.isinf(lo) else (
        lo if iv[f"a_in_{within}"] else lo + 1e-9 * max(1.0, abs(lo)))
    hi = 40.0 if math.isinf(hi) else (
        hi if iv[f"b_in_{within}"] else hi - 1e-9 * max(1.0, abs(hi)))
    return lo, hi


def linear_root(spec: dict):
    """Root of ``c'`` on ``E``, or ``None``."""
    iv = moment_interval(spec["nu"])
    if iv["a"] == iv["b"]:
        return 0.0 if _degenerate_mean(spec) == 0.0 else None
    lo, hi = _search_range(iv, within="E")
    return increasing_root(lambda k: cumulant_derivative(spec, k), lo, hi)


def geometric_root(spec: dict):
    """Root of ``c(k+1) - c(k)`` on ``{k : k, k+1 in I}``, or ``None``."""
    iv = moment_interval(spec["nu"])
    lo, hi = _search_range(iv, 1.0)
    if lo > hi:
        return None
    return increasing_root(
        lambda k: cumulant(spec, k + 1.0) - cumulant(spec, k), lo, hi)


def _degenerate_mean(spec: dict):
    try:
        return cumulant_derivative(spec, 0.0)
    except OutsideDomain:
        return None


def min_cumulant(spec: dict):
    """``(argmin c, min c)`` over ``I`` for models whose minimiser is an
    endpoint or ``I = {0}``; ``None`` when ``c'`` changes sign inside."""
    iv = moment_interval(spec["nu"])
    if iv["a"] == iv["b"]:
        return 0.0, 0.0
    if iv["b_in_E"] and cumulant_derivative(spec, iv["b"]) <= 0.0:
        return iv["b"], cumulant(spec, iv["b"])
    if iv["a_in_E"] and cumulant_derivative(spec, iv["a"]) >= 0.0:
        return iv["a"], cumulant(spec, iv["a"])
    return None


# ---------------------------------------------------------------------------
# conversions, arbitrage and tempering
# ---------------------------------------------------------------------------


def _whole_line(f, cuts=()) -> float:
    """``int f`` over the real line, split at ``-1, 0, 1`` and ``cuts``."""
    inner = sorted({-1.0, 0.0, 1.0, *cuts})
    total = integrate_tail(lambda s: f(-s)) + integrate_tail(f)
    for a, b in zip(inner, inner[1:]):
        total += integrate_between(f, a, b)
    return total


def conversion_drift(spec: dict) -> float:
    """Drift of the stochastic-exponential driver of a log-price triplet:
    ``b + sigma2/2 + int [(e^x - 1) 1{|e^x - 1| <= 1} - h(x)] nu(dx)``."""
    nu = spec["nu"]
    b, s2 = _f(spec["b"]), _f(spec["sigma2"])

    def g(x):
        price = np.expm1(x)
        keep = np.where(np.abs(price) <= 1.0, price, 0.0)
        small = np.where(x <= _LN2, _expm1_minus(x), -x)  # |x| <= 1
        return np.where(np.abs(x) <= 1.0, small, keep)

    kind = nu["kind"]
    if kind == "zero":
        jump = 0.0
    elif kind == "finite_atomic":
        jump = math.fsum(_f(a["mass"]) * float(g(np.array(_f(a["x"]))))
                         for a in nu["atoms"])
    else:
        dens = density(nu)
        jump = _whole_line(lambda x: g(x) * dens(x), cuts=(_LN2,))
    return b + 0.5 * s2 + jump


def density(nu: dict):
    """The jump density of a density family, vectorised, at ``x != 0``."""
    kind = nu["kind"]
    if kind == "jump_diffusion":
        lam, j = _f(nu["intensity"]), nu["jumps"]
        if j["kind"] == "gaussian":
            mu, sd = _f(j["mean"]), _f(j["std"])
            return lambda x: lam * np.exp(-0.5 * ((x - mu) / sd) ** 2) / (
                sd * math.sqrt(2.0 * math.pi))
        p, ep, em = (_f(j[key]) for key in ("p", "eta_plus", "eta_minus"))
        return lambda x: lam * np.where(
            x > 0, p * ep * np.exp(-ep * np.abs(x)),
            (1 - p) * em * np.exp(-em * np.abs(x)))
    C, r_right, r_left, Y = _density_params(nu)
    return lambda x: C * np.exp(-np.where(x > 0, r_right, r_left)
                                * np.abs(x)) * np.abs(x) ** (-1.0 - Y)


def is_monotone(spec: dict) -> bool:
    """Whether the paths are a.s. monotone (an arbitrage market).  Only
    one-sided finite-atomic jumps without a Gaussian part can be."""
    nu = spec["nu"]
    if _f(spec["sigma2"]) > 0.0 or nu["kind"] not in ("zero", "finite_atomic"):
        return False
    atoms = [(_f(a["x"]), _f(a["mass"])) for a in nu.get("atoms", [])]
    pos = any(x > 0 for x, _ in atoms)
    neg = any(x < 0 for x, _ in atoms)
    drift = _f(spec["b"]) - math.fsum(x * m for x, m in atoms if abs(x) <= 1.0)
    if pos and neg:
        return False
    if not atoms:
        return drift != 0.0
    return drift >= 0.0 if pos else drift <= 0.0


def penalty(kind: str, n: int, x):
    """``rho_n(x)`` of the ``quadratic`` or ``power:P`` penalty family."""
    ax = np.abs(x)
    power = 2.0 if kind == "quadratic" else float(kind.split(":", 1)[1])
    return np.where(ax > 1.0, ax ** power / n, 0.0)


def tempered_derivative(spec: dict, kind: str, n: int, k: float) -> float:
    """``c_n'(k)`` of the spec tempered by ``e^{-rho_n}``:
    ``b + sigma2 k + int (x e^{kx - rho_n(x)} - h(x)) nu(dx)``."""
    nu = spec["nu"]
    base = _f(spec["b"]) + _f(spec["sigma2"]) * k
    if nu["kind"] == "finite_atomic":
        atoms = [{"x": _f(a["x"]), "mass": _f(a["mass"]) * math.exp(
            -float(penalty(kind, n, _f(a["x"]))))} for a in nu["atoms"]]
        return base + _atomic(atoms, k, True)
    dens = density(nu)

    def f(x):
        small = np.abs(x) <= 1.0
        return np.where(small, x * np.expm1(k * x),
                        x * np.exp(k * x - penalty(kind, n, x))) * dens(x)

    return base + _whole_line(f)


def removed_mass(spec: dict, kind: str, n: int) -> float:
    """``int (1 - e^{-rho_n}) dnu``, the jump mass tempering removes."""
    nu = spec["nu"]
    if nu["kind"] == "finite_atomic":
        return math.fsum(-_f(a["mass"]) * math.expm1(
            -float(penalty(kind, n, _f(a["x"])))) for a in nu["atoms"])
    dens = density(nu)

    def f(s):
        return -np.expm1(-penalty(kind, n, s)) * (dens(s) + dens(-s))

    return integrate_tail(f)
