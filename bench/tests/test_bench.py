"""Tests of the benchmark's own oracle and arithmetic.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import stats  # noqa: E402


def spec(nu: dict, b: float = 0.03, sigma2: float = 0.02) -> dict:
    return {"version": 1, "name": "t", "market": "linear", "b": b,
            "sigma2": sigma2, "T": 1.0, "nu": nu}


KOU = spec({"kind": "jump_diffusion", "intensity": 1.5,
            "jumps": {"kind": "double_exponential", "p": 0.4,
                      "eta_plus": 8.0, "eta_minus": 6.0}})
MERTON = spec({"kind": "jump_diffusion", "intensity": 1.0,
               "jumps": {"kind": "gaussian", "mean": -0.1, "std": 0.4}})
ATOMS = spec({"kind": "finite_atomic",
              "atoms": [{"x": 0.5, "mass": 1.0}, {"x": -1.7, "mass": 0.3}]})
VG = spec({"kind": "variance_gamma", "C": 1.0, "G": 6.0, "M": 9.0}, 0.01, 0.0)
CGMY = spec({"kind": "cgmy", "C": 0.5, "G": 4.0, "M": 5.0, "Y": 1.5}, 0.0, 0.0)


def mp_density(nu: dict):
    """The jump density as an mpmath function, written out here."""
    if nu["kind"] == "jump_diffusion":
        lam, j = mp.mpf(nu["intensity"]), nu["jumps"]
        if j["kind"] == "gaussian":
            return lambda x: lam * mp.npdf(x, j["mean"], j["std"])
        p, ep, em = j["p"], j["eta_plus"], j["eta_minus"]
        return lambda x: lam * (p * ep * mp.exp(-ep * x) if x > 0
                                else (1 - p) * em * mp.exp(em * x))
    C, G, M, Y = (mp.mpf(nu[key]) for key in ("C", "G", "M", "Y"))
    return lambda x: C * mp.exp(-(M if x > 0 else G) * abs(x)) \
        * abs(x) ** (-1 - Y)


def mp_cumulant(s: dict, k: float, deriv: bool) -> float:
    """``c`` or ``c'`` straight from the defining integral, by mpmath,
    with extra breakpoints toward the origin for its singularity."""
    dens = mp_density(s["nu"])
    b, s2 = s["b"], s["sigma2"]
    cuts = [mp.mpf(10) ** -e for e in range(12, 0, -1)]
    points = [-mp.inf, -1] + [-c for c in cuts] + [0] + cuts[::-1] + [1, mp.inf]
    points = sorted(set(points))
    with mp.workdps(30):
        def g(x):
            h = x if abs(x) <= 1 else 0
            return (x * mp.exp(k * x) - h) if deriv else (mp.expm1(k * x) - k * h)
        jump = mp.quad(lambda x: g(x) * dens(x), points)
    base = b + s2 * k if deriv else b * k + s2 * k * k / 2
    return base + float(jump)


@pytest.mark.parametrize("s", [KOU, MERTON], ids=["kou", "merton"])
@pytest.mark.parametrize("k", [-1.3, -0.2, 0.7, 2.5])
def test_closed_forms_match_mpmath(s, k):
    for deriv, fn in ((False, oracle.cumulant),
                      (True, oracle.cumulant_derivative)):
        assert fn(s, k) == pytest.approx(mp_cumulant(s, k, deriv),
                                         rel=1e-12, abs=1e-14)


def test_atomic_sum():
    k = 0.8
    expect = 0.03 * k + 0.01 * k * k + (math.exp(0.4) - 1 - 0.4) + 0.3 * (
        math.exp(-1.36) - 1)
    assert oracle.cumulant(ATOMS, k) == pytest.approx(expect, rel=1e-14)
    slope = 0.03 + 0.02 * k + 0.5 * (math.exp(0.4) - 1) - 0.3 * 1.7 * math.exp(-1.36)
    assert oracle.cumulant_derivative(ATOMS, k) == pytest.approx(slope, rel=1e-14)


@pytest.mark.parametrize("k", [-5.5, -1.0, 0.5, 8.9])
def test_variance_gamma_quadrature_matches_closed_form(k):
    C, G, M = 1.0, 6.0, 9.0
    closed = (0.01 * k - C * math.log1p(-k / M) - C * math.log1p(k / G)
              - k * C * (-math.expm1(-M) / M + math.expm1(-G) / G))
    assert oracle.cumulant(VG, k) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("k", [-3.0, -1.0, 0.5, 4.0])
def test_cgmy_derivative_is_the_slope(k):
    h = 1e-5
    slope = (oracle.cumulant(CGMY, k + h) - oracle.cumulant(CGMY, k - h)) / (2 * h)
    assert oracle.cumulant_derivative(CGMY, k) == pytest.approx(slope, rel=1e-8)


@pytest.mark.parametrize("k", [-4.0, 0.5, 5.0])
def test_cgmy_against_mpmath(k):
    assert oracle.cumulant(CGMY, k) == pytest.approx(
        mp_cumulant(CGMY, k, False), rel=1e-10)
    assert oracle.cumulant_derivative(CGMY, k) == pytest.approx(
        mp_cumulant(CGMY, k, True), rel=1e-10)


def test_quadrature_takes_strong_end_singularities():
    # int_0^1 x^{-0.9} (e^{0.2x} - 1) / x dx = sum 0.2^n / (n! (n - 0.9))
    exact = math.fsum(0.2 ** n / (math.factorial(n) * (n - 0.9))
                      for n in range(1, 30))
    got = oracle.integrate_unit(lambda x: np.expm1(0.2 * x) * x ** -1.9)
    assert got == pytest.approx(exact, rel=1e-9)
    assert oracle.integrate_tail(lambda x: x ** -1.3) == pytest.approx(
        1 / 0.3, rel=1e-12)


def test_tempered_quantities():
    atoms = spec({"kind": "finite_atomic",
                  "atoms": [{"x": 2.0, "mass": 0.5}, {"x": -0.5, "mass": 1.0}]},
                 0.1, 0.0)
    k = 0.3
    expect = 0.1 + 0.5 * 2.0 * math.exp(0.6 - 2.0) + (-0.5) * math.expm1(-0.15)
    assert oracle.tempered_derivative(atoms, "quadratic", 2, k) == \
        pytest.approx(expect, rel=1e-14)
    assert oracle.removed_mass(atoms, "power:3", 4) == pytest.approx(
        -0.5 * math.expm1(-2.0))
    # tempering that removes nothing leaves c' alone
    assert oracle.tempered_derivative(KOU, "quadratic", 10 ** 12, 0.4) == \
        pytest.approx(oracle.cumulant_derivative(KOU, 0.4), rel=1e-9)


def test_moment_intervals():
    assert oracle.moment_interval(KOU["nu"]) == {
        "a": -6.0, "b": 8.0, "a_in_I": False, "b_in_I": False,
        "a_in_E": False, "b_in_E": False}
    assert oracle.moment_interval(MERTON["nu"])["b"] == math.inf
    cgmy = oracle.moment_interval(CGMY["nu"])
    assert (cgmy["a"], cgmy["b"], cgmy["a_in_E"]) == (-4.0, 5.0, True)
    low_y = dict(CGMY["nu"], Y=0.5)
    assert oracle.moment_interval(low_y)["b_in_I"]
    assert not oracle.moment_interval(low_y)["b_in_E"]
    stable = {"kind": "symmetric_alpha_stable", "alpha": 0.8}
    assert oracle.moment_interval(stable) == {
        "a": 0.0, "b": 0.0, "a_in_I": True, "b_in_I": True,
        "a_in_E": False, "b_in_E": False}


def test_stable_mean_and_its_absence():
    stable = spec({"kind": "symmetric_alpha_stable", "alpha": 1.5}, 0.2, 0.0)
    assert oracle.cumulant_derivative(stable, 0.0) == 0.2
    with pytest.raises(oracle.OutsideDomain):
        oracle.cumulant_derivative(dict(stable, nu={
            "kind": "symmetric_alpha_stable", "alpha": 0.7}), 0.0)


def test_root_finders():
    assert oracle.increasing_root(lambda x: x ** 3 + x - 1, 0.0, 1.0) == \
        pytest.approx(0.6823278038280193, abs=1e-12)
    assert oracle.increasing_root(lambda x: x + 2.0, 0.0, 1.0) is None
    k0 = oracle.linear_root(KOU)
    assert abs(oracle.cumulant_derivative(KOU, k0)) < 1e-12
    g0 = oracle.geometric_root(KOU)
    assert abs(oracle.cumulant(KOU, g0 + 1) - oracle.cumulant(KOU, g0)) < 1e-12
    drifted = dict(CGMY, b=-oracle.cumulant_derivative(CGMY, 5.0) - 1.0)
    assert oracle.min_cumulant(drifted)[0] == 5.0


def test_conversion_drift():
    brownian = spec({"kind": "zero"}, 0.05, 0.09)
    assert oracle.conversion_drift(brownian) == pytest.approx(0.095)
    atoms = spec({"kind": "finite_atomic", "atoms": [{"x": 2.0, "mass": 0.5}]},
                 0.0, 0.0)
    # e^2 - 1 > 1, so the price jump is large and the log jump too
    assert oracle.conversion_drift(atoms) == pytest.approx(0.0, abs=1e-15)
    # near 0 the integrand is x^2/2 against |x|^{-2.5}: the cancellation in
    # e^x - 1 - x would lose its last 2e-8
    stable = spec({"kind": "symmetric_alpha_stable", "alpha": 1.5}, 0.0, 0.0)
    with mp.workdps(30):
        def g(x):
            price = mp.expm1(x)
            return ((price if abs(price) <= 1 else 0)
                    - (x if abs(x) <= 1 else 0)) * abs(x) ** mp.mpf(-2.5)
        cuts = [mp.mpf(10) ** -e for e in range(16, 0, -1)]
        points = sorted({-mp.inf, -1, 0, mp.log(2), 1, mp.inf, *cuts,
                         *(-c for c in cuts)})
        expect = float(mp.quad(g, points))
    assert oracle.conversion_drift(stable) == pytest.approx(expect, rel=1e-13)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    xs = list(rng.exponential(size=37))
    for p in (0, 12.5, 50, 75, 90, 100):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p))
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(100) == 90.0
    with pytest.raises(ValueError):
        stats.tail_percentile(39)


def test_span_self_and_inclusive_time():
    spans = [("a", 0.0, 10.0, -1),
             ("b", 1.0, 4.0, 0),
             ("a", 2.0, 3.0, 1),   # recursion through b
             ("c", 5.0, 9.0, 0)]
    totals = stats.span_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["ms"] == pytest.approx(10e3)      # outer a only
    assert totals["a"]["self_ms"] == pytest.approx(3e3 + 1e3)
    assert totals["b"]["self_ms"] == pytest.approx(2e3)
    assert totals["c"]["ms"] == totals["c"]["self_ms"] == pytest.approx(4e3)
