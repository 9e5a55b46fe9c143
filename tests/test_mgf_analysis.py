"""Moment intervals, mgf minimization and tilt-parameter classification.

The minimizer oracles are closed forms (Brownian, atomic, a one-sided
``x^{-3/2}`` subordinator whose root is exactly ``-pi/4``) or a
pure-python bisection of an independently derived derivative formula.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from scipy import integrate, optimize

from levy_emm import (
    CGMY,
    EsscherCase,
    FiniteAtomic,
    GenericDensity,
    LevyTriplet,
    MinimumCase,
    SymmetricAlphaStable,
    TailDecay,
    classify_esscher_parameter,
    cumulant,
    cumulant_derivative,
    exp_moment_interval,
    geometric_to_linear,
    minimize_mgf,
)
from levy_emm.errors import ArbitrageMarketError, NoFiniteMinimizer
from levy_emm.mgf_analysis import brentq, search_increasing_root


def _one_sided(power_right, power_left, scale_right=0.5, scale_left=1.0):
    """Two-sided polynomial density with independent tail powers."""

    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        return np.where(x > 0, scale_right * ax ** power_right,
                        scale_left * ax ** power_left)

    return GenericDensity(dens, right=TailDecay.polynomial(power_right),
                          left=TailDecay.polynomial(power_left),
                          symmetric=False)


@pytest.fixture
def pi4_subordinator():
    """Density ``x^{-3/2}/2`` on (0, inf), no drift: the tilted-drift root
    is exactly ``-pi/4`` and the cumulant there is ``-pi/4`` as well."""

    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        return np.where(x > 0, 0.5 * ax ** -1.5, 0.0)

    nu = GenericDensity(dens, right=TailDecay.polynomial(-1.5),
                        left=TailDecay.bounded(0.0), symmetric=False)
    return LevyTriplet(0.0, 0.0, nu)


def _asymmetric_exponential(flip=False):
    """Exponential rate 5 on both sides, but tail power -2.5 on one side
    and -1 on the other: the derivative set E is closed on one end only."""

    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        heavy = np.exp(-5.0 * ax) * ax ** -2.5
        light = np.exp(-5.0 * ax) * ax ** -1.0
        if flip:
            heavy, light = light, heavy
        return np.where(x > 0, heavy, light)

    right_power, left_power = (-1.0, -2.5) if flip else (-2.5, -1.0)
    return GenericDensity(dens, right=TailDecay.exponential(5.0, power=right_power),
                          left=TailDecay.exponential(5.0, power=left_power),
                          symmetric=False)


class TestExpMomentInterval:
    def test_light_tails_are_unbounded(self, brownian, two_atom):
        for t in (brownian, two_atom):
            iv = exp_moment_interval(t)
            assert iv.a == -math.inf and iv.b == math.inf
            assert not (iv.a_in_I or iv.b_in_I or iv.a_in_E or iv.b_in_E)
            assert iv.contains(1e9) and iv.contains(-1e9)
            assert not iv.is_degenerate

    def test_exponential_tails_are_open(self, kou, vg):
        for t, (lo, hi) in ((kou, (-6.0, 8.0)), (vg, (-6.0, 9.0))):
            iv = exp_moment_interval(t)
            assert iv.a == lo and iv.b == hi
            assert not (iv.a_in_I or iv.b_in_I or iv.a_in_E or iv.b_in_E)
            assert iv.contains(hi - 1e-9) and not iv.contains(hi)
            assert iv.contains(lo + 1e-9) and not iv.contains(lo)
            assert not iv.contains_interior(lo)

    def test_cgmy_endpoint_membership(self, cgmy_y05, cgmy_y15):
        iv = exp_moment_interval(cgmy_y05)
        assert (iv.a, iv.b) == (-4.0, 7.0)
        assert iv.a_in_I and iv.b_in_I
        assert not (iv.a_in_E or iv.b_in_E)
        assert iv.contains(7.0) and iv.contains(-4.0)

        iv = exp_moment_interval(cgmy_y15)
        assert (iv.a, iv.b) == (-5.0, 5.0)
        assert iv.a_in_I and iv.b_in_I and iv.a_in_E and iv.b_in_E

    def test_degenerate_stables(self, stable08, stable15):
        iv8 = exp_moment_interval(stable08)
        iv15 = exp_moment_interval(stable15)
        for iv in (iv8, iv15):
            assert iv.is_degenerate
            assert iv.a == 0.0 and iv.b == 0.0
            assert iv.a_in_I and iv.b_in_I
            d = iv.describe()
            # the left endpoint must serialize as a plain zero, not -0.0
            assert d["a"] == 0.0 and math.copysign(1.0, d["a"]) == 1.0
        assert not (iv8.a_in_E or iv8.b_in_E)
        assert iv15.a_in_E and iv15.b_in_E

    def test_half_line_interval(self, pi4_subordinator):
        iv = exp_moment_interval(pi4_subordinator)
        assert iv.a == -math.inf
        assert iv.b == 0.0
        assert iv.b_in_I and not iv.b_in_E
        assert iv.contains(0.0) and iv.contains(-50.0) and not iv.contains(0.1)
        assert not iv.is_degenerate

    def test_one_sided_membership(self):
        iv = exp_moment_interval(LevyTriplet(0.0, 0.0, _asymmetric_exponential()))
        assert (iv.a, iv.b) == (-5.0, 5.0)
        assert (iv.a_in_I, iv.b_in_I, iv.a_in_E, iv.b_in_E) \
            == (False, True, False, True)

    def test_price_jump_image_at_the_rate_edge(self):
        # log-jumps CGMY(1, 5, M=1, 0.5): the price jumps' first moment is
        # the base's e^x moment at its rate, finite by the x^{-1.5} factor
        lin = geometric_to_linear(LevyTriplet(0.05, 0.0, CGMY(1.0, 5.0, 1.0, 0.5)))
        iv = exp_moment_interval(lin)
        assert (iv.b, iv.b_in_I, iv.b_in_E) == (0.0, True, True)
        # ∫_{x > ln 2} (e^x - 1) e^{-x} x^{-1.5} dx, by mpmath
        assert math.isclose(cumulant_derivative(lin, 0.0),
                            lin.b + 2.0484684017643, rel_tol=1e-12)


def _kou_derivative(k):
    """Independent derivative formula for the shared Kou model."""
    tm, _ = integrate.quad(
        lambda x: x * (0.4 * 8 * math.exp(-8 * x) if x > 0
                       else 0.6 * 6 * math.exp(6 * x)), -1.0, 1.0,
        points=[0.0], limit=200)
    return 0.03 + 0.02 * k + 1.5 * (0.4 * 8.0 / (8.0 - k) ** 2
                                    - 0.6 * 6.0 / (6.0 + k) ** 2 - tm)


def _bisect(f, lo, hi, tol=1e-13):
    f_lo = f(lo)
    assert f_lo < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMinimizeMgf:
    def test_brownian_root(self, brownian):
        got = minimize_mgf(brownian, 1.0)
        assert got.case is MinimumCase.INTERIOR_ROOT
        assert abs(got.kappa0 - (-5.0 / 9.0)) <= 1e-11
        c_min = 0.05 * got.kappa0 + 0.045 * got.kappa0 ** 2
        assert math.isclose(got.phi_at_min, math.exp(c_min), rel_tol=1e-12)
        longer = minimize_mgf(brownian, 3.0)
        assert abs(longer.kappa0 - got.kappa0) <= 1e-11
        assert math.isclose(longer.phi_at_min, math.exp(3 * c_min), rel_tol=1e-12)

    def test_two_atom_root(self, two_atom):
        got = minimize_mgf(two_atom, 1.0)
        want = 2.0 * math.asinh(-0.1)
        assert abs(got.kappa0 - want) <= 1e-10
        c_min = 0.1 * want + 2.0 * (math.cosh(0.5 * want) - 1.0)
        assert math.isclose(got.phi_at_min, math.exp(c_min), rel_tol=1e-10)

    def test_kou_root_against_bisection(self, kou):
        want = _bisect(_kou_derivative, -5.9, 7.9)
        got = minimize_mgf(kou, 1.0)
        assert got.case is MinimumCase.INTERIOR_ROOT
        assert abs(got.kappa0 - want) <= 1e-9

    def test_symmetric_root_is_exactly_zero(self, cgmy_y15):
        got = minimize_mgf(cgmy_y15, 1.0)
        assert got.case is MinimumCase.INTERIOR_ROOT
        assert got.kappa0 == 0.0
        assert got.phi_at_min == 1.0

    def test_right_endpoint_minimum(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        t = LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu)
        got = minimize_mgf(t, 1.0)
        assert got.case is MinimumCase.RIGHT_ENDPOINT
        assert got.kappa0 == 5.0
        c_end = cumulant(t, 5.0)
        assert math.isclose(got.phi_at_min, math.exp(min(c_end, 0.0)), rel_tol=1e-10)

    def test_left_endpoint_minimum(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, -5.0)
        t = LevyTriplet(-shift + 1.0, 0.0, cgmy_y15.nu)
        got = minimize_mgf(t, 1.0)
        assert got.case is MinimumCase.LEFT_ENDPOINT
        assert got.kappa0 == -5.0

    def test_degenerate_interval(self, stable08, stable15):
        for t in (stable08, stable15):
            got = minimize_mgf(t, 1.0)
            assert got.case is MinimumCase.DEGENERATE_ZERO
            assert got.kappa0 == 0.0 and got.phi_at_min == 1.0

    def test_subordinator_root_is_quarter_pi(self, pi4_subordinator):
        got = minimize_mgf(pi4_subordinator, 1.0)
        assert got.case is MinimumCase.INTERIOR_ROOT
        assert abs(got.kappa0 - (-math.pi / 4.0)) <= 1e-10
        assert math.isclose(got.phi_at_min, math.exp(-math.pi / 4.0), rel_tol=1e-10)
        two = minimize_mgf(pi4_subordinator, 2.0)
        assert math.isclose(two.phi_at_min, math.exp(-math.pi / 2.0), rel_tol=1e-10)

    def test_monotone_market_refused(self):
        up = LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),)))
        down = LevyTriplet(-0.7, 0.0, FiniteAtomic(((-0.5, 1.0),)))
        for t in (up, down):
            with pytest.raises(ArbitrageMarketError):
                minimize_mgf(t, 1.0)

    def test_horizon_validated(self, brownian):
        with pytest.raises(ValueError):
            minimize_mgf(brownian, 0.0)


class TestClassifyEsscherParameter:
    def test_interior_zoo(self, brownian, two_atom, kou):
        for t in (brownian, two_atom, kou):
            st = classify_esscher_parameter(t, 1.0)
            assert st.exists
            assert st.case is EsscherCase.INTERVAL_INTERIOR
            assert math.isclose(st.kappa0, minimize_mgf(t, 1.0).kappa0,
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_symmetric_interior_zero_with_closed_shape(self, cgmy_y15):
        st = classify_esscher_parameter(cgmy_y15, 1.0)
        assert st.exists and st.kappa0 == 0.0
        # the case labels the shape of E, not where the zero landed
        assert st.case is EsscherCase.BOTH_ENDPOINTS

    def test_endpoint_minimum_without_zero(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        st = classify_esscher_parameter(
            LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu), 1.0)
        assert not st.exists and st.kappa0 is None
        assert "negative" in st.diagnostic
        st = classify_esscher_parameter(
            LevyTriplet(shift + 1.0, 0.0, cgmy_y15.nu), 1.0)
        assert not st.exists
        assert "positive" in st.diagnostic

    def test_exact_zero_at_endpoint(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        st = classify_esscher_parameter(
            LevyTriplet(-shift, 0.0, cgmy_y15.nu), 1.0)
        assert st.exists and st.kappa0 == 5.0
        assert st.case is EsscherCase.BOTH_ENDPOINTS
        assert "vanishes" in st.diagnostic

    def test_one_end_closed_shapes(self):
        right = _asymmetric_exponential()
        shift = cumulant_derivative(LevyTriplet(0.0, 0.0, right), 5.0)
        st = classify_esscher_parameter(LevyTriplet(-shift, 0.0, right), 1.0)
        assert st.exists and st.kappa0 == 5.0
        assert st.case is EsscherCase.RIGHT_ENDPOINT_CLOSED

        left = _asymmetric_exponential(flip=True)
        shift = cumulant_derivative(LevyTriplet(0.0, 0.0, left), -5.0)
        st = classify_esscher_parameter(LevyTriplet(-shift, 0.0, left), 1.0)
        assert st.exists and st.kappa0 == -5.0
        assert st.case is EsscherCase.LEFT_ENDPOINT_CLOSED

    def test_degenerate_driftless(self, stable15):
        st = classify_esscher_parameter(stable15, 1.0)
        assert st.exists and st.kappa0 == 0.0
        assert st.case is EsscherCase.DEGENERATE_ZERO_MEAN

    def test_degenerate_with_drift(self, stable15):
        st = classify_esscher_parameter(
            LevyTriplet(0.3, 0.0, stable15.nu), 1.0)
        assert not st.exists
        assert "nonzero mean" in st.diagnostic

    def test_degenerate_mean_undefined(self, stable08):
        st = classify_esscher_parameter(stable08, 1.0)
        assert not st.exists
        assert "undefined" in st.diagnostic

    def test_degenerate_mean_infinite(self):
        heavy_right = LevyTriplet(0.0, 0.0, _one_sided(-1.5, -2.5))
        st = classify_esscher_parameter(heavy_right, 1.0)
        assert not st.exists and "+inf" in st.diagnostic
        heavy_left = LevyTriplet(0.0, 0.0, _one_sided(-2.5, -1.5))
        st = classify_esscher_parameter(heavy_left, 1.0)
        assert not st.exists and "-inf" in st.diagnostic

    @pytest.mark.parametrize("t, exists, diagnostic", [
        (LevyTriplet(0.4, 0.0, SymmetricAlphaStable(alpha=0.8)), False,
         "degenerate moment interval and the process mean is undefined"),
        (LevyTriplet(0.0, 0.0, SymmetricAlphaStable(alpha=1.5)), True,
         "degenerate moment interval but the process is driftless"),
    ])
    def test_degenerate_mean_read_once(self, monkeypatch, t, exists,
                                       diagnostic):
        # one read of the mean, +-inf or undefined included, decides
        from levy_emm import mgf_analysis
        reads = []
        real = mgf_analysis.cumulant_derivative
        monkeypatch.setattr(mgf_analysis, "cumulant_derivative",
                            lambda vt, k: reads.append(k) or real(vt, k))
        st = classify_esscher_parameter(t, 1.0)
        assert (st.exists, st.diagnostic) == (exists, diagnostic)
        assert reads == [0.0]

    def test_monotone_market_reported(self):
        st = classify_esscher_parameter(
            LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),))), 1.0)
        assert not st.exists
        assert "monotone" in st.diagnostic

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_horizon_validated_on_every_interval(self, brownian, horizon):
        # a degenerate interval needs no minimizer, but the horizon is
        # checked before the interval is looked at, as in minimize_mgf
        degenerate = LevyTriplet(0.1, 0.0, SymmetricAlphaStable(0.8))
        for t in (degenerate, brownian):
            with pytest.raises(ValueError):
                classify_esscher_parameter(t, horizon)


# --- the monotone-root routine ---------------------------------------------


def _start(lo, hi):
    """The documented start: 0 if interior, else at most half a unit
    inside the end nearest 0."""
    if lo < 0.0 < hi:
        return 0.0
    return hi - min(hi - lo, 1.0) / 2.0 if hi <= 0.0 else lo + min(hi - lo, 1.0) / 2.0


@hs.composite
def _root_problems(draw):
    """An interval with closed, open or infinite ends and an increasing
    ``a u + b u^3`` with ``u = x - r``, its root ``r`` inside, at the
    start, at or within 1e-12 of a finite end, or beyond one."""
    lo = draw(hs.floats(-8.0, 4.0))
    hi = lo + draw(hs.floats(1e-3, 12.0))
    lo_kind = draw(hs.sampled_from(["closed", "open", "inf"]))
    hi_kind = draw(hs.sampled_from(["closed", "open", "inf"]))
    lo = -math.inf if lo_kind == "inf" else lo
    hi = math.inf if hi_kind == "inf" else hi
    finite_ends = [e for e in (lo, hi) if math.isfinite(e)]
    where = draw(hs.sampled_from(
        ["inside", "start"] + (["end", "near", "beyond"] if finite_ends else [])))
    if where == "inside":
        r = draw(hs.floats(max(lo, -50.0), min(hi, 50.0)))
    elif where == "start":
        r = _start(lo, hi)
    else:
        end = draw(hs.sampled_from(finite_ends))
        outward = 1.0 if end == hi else -1.0
        if where == "end":
            r = end
        elif where == "near":
            r = end + draw(hs.sampled_from([-1.0, 1.0])) * draw(hs.floats(0.0, 1e-12))
        else:
            r = end + outward * draw(hs.floats(1e-9, 5.0))
    blow_up = draw(hs.booleans())  # f = ±inf at a closed end
    return (lo, hi, lo_kind, hi_kind, r, draw(hs.floats(1e-3, 1e3)),
            draw(hs.floats(0.0, 1.0)), blow_up)


class TestSearchIncreasingRoot:
    @settings(max_examples=300, deadline=None)
    @given(_root_problems())
    # a zero at the start point
    @example((-2.0, 3.0, "open", "closed", 0.0, 1.0, 0.0, False))
    # a zero exactly at a closed end, and just inside it
    @example((-2.0, 3.0, "open", "closed", 3.0, 2.0, 0.5, False))
    @example((-2.0, 3.0, "closed", "open", -2.0 + 1e-12, 2.0, 0.0, False))
    # +inf at a closed end, with the root inside and beyond it
    @example((-2.0, 3.0, "open", "closed", 2.5, 1.0, 0.0, True))
    @example((-2.0, 3.0, "open", "closed", 4.0, 1.0, 0.0, True))
    # a root within 1e-12 of an open end, and a candidate set without 0
    @example((-6.0, 3.0, "open", "open", 3.0 - 1e-12, 1.0, 0.0, False))
    @example((-5.0, -0.5, "closed", "open", -0.5 + 1e-13, 1.0, 1.0, False))
    # a subnormal root: f(0) = a (0 - r) rounds to -0.0, an exact zero of
    # the computed f at the start and at a closed end
    @example((-math.inf, 1.0, "inf", "closed", 5e-324, 0.5, 0.0, False))
    @example((0.0, 1.0, "closed", "closed", 5e-324, 0.5, 0.0, False))
    def test_bracket_or_endpoint_verdict(self, problem):
        lo, hi, lo_kind, hi_kind, r, a, b, blow_up = problem
        calls = []

        def f(x):
            calls.append(x)
            if blow_up and x == hi and hi_kind == "closed":
                return math.inf
            if blow_up and x == lo and lo_kind == "closed":
                return -math.inf
            u = x - r
            return a * u + b * u ** 3

        def in_domain(x):
            return (lo < x < hi or (x == lo and lo_kind == "closed")
                    or (x == hi and hi_kind == "closed"))

        # the search sees the computed f, whose zero may round away from r
        def exact_zero(x):
            return f(x) == 0.0

        has_root = in_domain(r) and not (blow_up and r in (lo, hi))
        found = search_increasing_root(f, lo, hi, lo_kind == "closed",
                                       hi_kind == "closed")
        if (has_root and r in (lo, hi) and r != _start(lo, hi)):
            # a zero at a closed end is an endpoint verdict, not a bracket
            assert found.side != 0 and found.end_value == 0.0
        if found.side == 0:
            assert has_root
            assert in_domain(found.lo) and in_domain(found.hi)
            assert (found.lo <= r <= found.hi or exact_zero(found.lo)
                    or exact_zero(found.hi))
            assert f(found.lo) <= 0.0 <= f(found.hi)
            return
        end = hi if found.side > 0 else lo
        end_kind = hi_kind if found.side > 0 else lo_kind
        assert found.lo == found.hi == end
        assert (r - end) * found.side >= 0.0 or abs(r - end) <= 2e-12 * max(1.0, abs(end))
        if end_kind == "open":
            assert found.end_value is None
        elif not blow_up:
            # a closed end without a sign change is decided by one probe
            assert len(calls) <= 2
            assert found.end_value == f(end)
            if has_root:
                assert r == end or exact_zero(end)
                assert found.end_value == 0.0

    def test_zero_at_start_costs_one_evaluation(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5

        found = search_increasing_root(f, 0.0, 5.0, True, True)
        assert (found.lo, found.hi, found.side) == (0.5, 0.5, 0)
        assert calls == [0.5]

    def test_closed_end_without_root_costs_two_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 7.0

        found = search_increasing_root(f, -5.0, 4.0, True, True)
        assert (found.lo, found.side, found.end_value) == (4.0, 1, -3.0)
        assert calls == [0.0, 4.0]

    def test_undefined_on_the_way_raises(self):
        def f(x):
            return -1.0 if x < 1.0 else math.inf - math.inf

        with pytest.raises(NoFiniteMinimizer):
            search_increasing_root(f, -1.0, math.inf, False, False)


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


class TestBrentq:
    """The port against scipy's ``brentq`` at the tolerances it replaced."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: math.tanh(x - 0.3), -2.0, 5.0),
        (lambda x: math.expm1(x + 1.7), -9.0, 0.5),
        # brackets where a longer extrapolation step would be taken
        (lambda x: math.expm1(x - 3.09), 1.8, 4.06),
        (lambda x: math.expm1(x - 0.8), -3.19, 1.42),
        (lambda x: (x - 1.25) ** 3 + 0.1 * (x - 1.25), -4.0, 3.0),
        (lambda x: math.sinh(3.0 * (x - 2.0)), 1.9, 40.0),
        (lambda x: math.atan(x + 0.6) + (x + 0.6) ** 5, -3.0, 1e3),
        (lambda x: 1e-300 * (x - 1e-7), -1.0, 1.0),
        (lambda x: x - 0.5, 0.0, 2.0),   # the first step lands on the root
        (lambda x: x - 0.5, 0.5, 2.0),   # f(a) == 0
        (lambda x: x - 0.5, -1.0, 0.5),  # f(b) == 0
        (lambda x: x ** 2 - 2.0, 2.0, 0.0),  # a reversed bracket
    ])
    def test_same_root_from_the_same_evaluations_as_scipy(self, f, a, b):
        ours, theirs = _counted(f), _counted(f)
        root = brentq(ours, a, b)
        want = optimize.brentq(theirs, a, b, xtol=1e-12, rtol=4 * 2.3e-16,
                               maxiter=300)
        assert root == want
        assert ours.calls == theirs.calls

    def test_first_step_root_costs_three_evaluations(self):
        f = _counted(lambda x: x - 0.5)
        assert brentq(f, 0.0, 2.0) == 0.5 and f.calls == 3

    def test_nan_value_raises(self):
        with pytest.raises(NoFiniteMinimizer, match="NaN"):
            brentq(lambda x: math.nan if x > 0.1 else x - 0.5, -1.0, 1.0)

    @pytest.mark.parametrize("blow_up", [math.inf, -math.inf])
    def test_infinite_value_inside_the_bracket_raises(self, blow_up):
        # f(0) and f(1) are finite with a sign change; the first step lands
        # at 0.5, where f is infinite
        def f(x):
            return blow_up if 0.4 < x < 0.6 else x - 0.5

        with pytest.raises(NoFiniteMinimizer, match="not finite"):
            brentq(f, 0.0, 1.0)

    def test_same_sign_raises(self):
        with pytest.raises(NoFiniteMinimizer, match="no sign change"):
            brentq(lambda x: x + 10.0, 0.0, 1.0)

    def test_exhausted_steps_raise(self):
        # a step function defeats interpolation, and halving a bracket of
        # 2e300 down to 1e-12 takes more than 1000 bisections
        def step(x):
            return -1.0 if x < 1.0 else 1.0

        with pytest.raises(RuntimeError):
            optimize.brentq(step, -1e300, 1e300, xtol=1e-12,
                            rtol=4 * 2.3e-16, maxiter=300)
        with pytest.raises(NoFiniteMinimizer, match="300 steps"):
            brentq(step, -1e300, 1e300)
