"""Exponential tilting, relative entropy, and the martingale solvers.

Oracles: closed-form tilts for the parametric jump families, the cumulant
shift identity ``c_tilted(u) = c(u + k) - c(k)`` (the untilted cumulants
are verified elsewhere against analytic formulas), quadratic Gaussian
entropy, and pure-python bisections of independently derived root
equations.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from levy_emm import (
    CGMY,
    EsscherCase,
    EsscherStatus,
    FiniteAtomic,
    GenericDensity,
    LevyTriplet,
    TailDecay,
    VarianceGamma,
    classify_esscher_parameter,
    cumulant,
    cumulant_derivative,
    esscher_entropy,
    esscher_transform,
    geometric_to_linear,
    memm_report,
    solve_geometric_emm,
    solve_linear_emm,
)
from levy_emm.errors import KappaOutsideI, QuadratureFailure
from levy_emm.modelspec import load_model

_MODELS = Path(__file__).resolve().parent.parent / "docs" / "models"


# --- independent closed forms for the shared Kou model ---------------------

_KOU_TM, _ = integrate.quad(
    lambda x: x * (0.4 * 8 * math.exp(-8 * x) if x > 0
                   else 0.6 * 6 * math.exp(6 * x)), -1.0, 1.0,
    points=[0.0], limit=200)


def _kou_c(k):
    mgf_j = 0.4 * 8.0 / (8.0 - k) + 0.6 * 6.0 / (6.0 + k)
    return 0.03 * k + 0.01 * k * k + 1.5 * (mgf_j - 1.0) - k * 1.5 * _KOU_TM


def _kou_m(k):
    return 0.03 + 0.02 * k + 1.5 * (0.4 * 8.0 / (8.0 - k) ** 2
                                    - 0.6 * 6.0 / (6.0 + k) ** 2 - _KOU_TM)


@pytest.fixture
def pi4_subordinator():
    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        return np.where(x > 0, 0.5 * ax ** -1.5, 0.0)

    nu = GenericDensity(dens, right=TailDecay.polynomial(-1.5),
                        left=TailDecay.bounded(0.0), symmetric=False)
    return LevyTriplet(0.0, 0.0, nu)


class TestTransform:
    def test_zero_tilt_is_identity(self, kou):
        out = esscher_transform(kou, 0.0)
        assert out == kou

    def test_brownian_drift_shift(self, brownian):
        out = esscher_transform(brownian, 1.7)
        assert out.b == 0.05 + 0.09 * 1.7
        assert out.sigma2 == 0.09
        assert out.nu == brownian.nu

    def test_atomic_tilt_closed_form(self, two_atom):
        k = 0.8
        out = esscher_transform(two_atom, k)
        got = dict(out.nu.atoms())
        assert math.isclose(got[0.5], math.exp(0.5 * k), rel_tol=1e-14)
        assert math.isclose(got[-0.5], math.exp(-0.5 * k), rel_tol=1e-14)
        want_b = 0.1 + 0.5 * math.expm1(0.5 * k) - 0.5 * math.expm1(-0.5 * k)
        assert math.isclose(out.b, want_b, rel_tol=1e-12)

    def test_vg_parameter_shift(self, vg):
        out = esscher_transform(vg, -2.0)
        assert out.nu == VarianceGamma(1.0, 4.0, 11.0)
        assert out.sigma2 == 0.0

    def test_cgmy_endpoint_tilt(self, cgmy_y15):
        assert esscher_transform(cgmy_y15, 5.0).nu == CGMY(1.0, 10.0, 0.0, 1.5)
        assert esscher_transform(cgmy_y15, -5.0).nu == CGMY(1.0, 0.0, 10.0, 1.5)

    @pytest.mark.parametrize("k", [-2.0, -0.5, 0.7, 3.0])
    def test_shift_identity_kou(self, kou, k):
        tilted = esscher_transform(kou, k)
        c_k = cumulant(kou, k)
        for u in (-1.5, -0.3, 0.4, 2.0):
            lhs = cumulant(tilted, u)
            rhs = cumulant(kou, u + k) - c_k
            assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-12)

    def test_shift_identity_cgmy(self, cgmy_y05):
        tilted = esscher_transform(cgmy_y05, 1.3)
        c_k = cumulant(cgmy_y05, 1.3)
        for u in (-2.0, 0.8):
            lhs = cumulant(tilted, u)
            rhs = cumulant(cgmy_y05, u + 1.3) - c_k
            assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-12)

    def test_shift_identity_converted_kou(self, kou):
        # the price-jump image has I = (-inf, 0]: the tilted image is
        # integrated by pullback with the tilt in its log density, up to
        # the tilted interval's closed end u = -k
        lin = geometric_to_linear(kou)
        k = solve_linear_emm(lin, 1.0).kappa0
        assert k < 0
        tilted = esscher_transform(lin, k)
        c_k = cumulant(lin, k)
        for u in (-2.0, -0.5, 0.5 * -k, -k):
            lhs = cumulant(tilted, u)
            rhs = cumulant(lin, u + k) - c_k
            assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12), u

    def test_outside_interval_rejected(self, kou, vg):
        with pytest.raises(KappaOutsideI):
            esscher_transform(kou, 8.0)
        with pytest.raises(KappaOutsideI):
            esscher_transform(vg, -6.0)

    @pytest.mark.parametrize("atoms, kappa", [
        (((1.0, 1.0), (-0.5, 1.0)), 800.0),  # the drift correction
        (((2.0, 1.0), (-2.0, 1.0)), 400.0),  # the tilted masses
        (((2.0, 1e10), (-2.0, 1.0)), 354.0),  # a mass times e^{κx}
    ])
    def test_atomic_overflow_is_a_typed_failure(self, atoms, kappa):
        # atoms have every exponential moment, so the tilt lies in I, but
        # e^{κx} overflows a float
        t = LevyTriplet(0.0, 0.0, FiniteAtomic(atoms))
        with pytest.raises(QuadratureFailure, match=f"kappa={kappa}"):
            esscher_transform(t, kappa)


class TestEntropy:
    @pytest.mark.parametrize("horizon", [1.0, 2.5])
    def test_brownian_quadratic_formula(self, brownian, horizon):
        for k in (-1.2, 0.3, 4.0):
            got = esscher_entropy(brownian, horizon, k)
            assert math.isclose(got, horizon * 0.09 * k * k / 2.0, rel_tol=1e-12)

    def test_zero_tilt_is_zero(self, kou, stable15):
        assert esscher_entropy(kou, 1.0, 0.0) == 0.0
        assert esscher_entropy(stable15, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("k", [-3.0, 0.9, 4.0])
    def test_kou_against_closed_form(self, kou, k):
        want = 2.0 * (k * _kou_m(k) - _kou_c(k))
        assert math.isclose(esscher_entropy(kou, 2.0, k), want,
                            rel_tol=1e-8, abs_tol=1e-12)

    def test_nonnegative(self, kou):
        for k in (-5.0, -1.0, 0.5, 6.0):
            assert esscher_entropy(kou, 1.0, k) >= 0.0

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    def test_subordinator_root_entropy(self, pi4_subordinator, horizon):
        got = esscher_entropy(pi4_subordinator, horizon, -math.pi / 4.0)
        assert math.isclose(got, horizon * math.pi / 4.0, rel_tol=1e-9)

    def test_endpoint_with_infinite_moment_rejected(self, cgmy_y05):
        with pytest.raises(KappaOutsideI, match="first moment"):
            esscher_entropy(cgmy_y05, 1.0, 7.0)

    def test_outside_interval_rejected(self, stable15):
        with pytest.raises(KappaOutsideI):
            esscher_entropy(stable15, 1.0, 0.1)

    def test_horizon_validated(self, brownian):
        with pytest.raises(ValueError):
            esscher_entropy(brownian, 0.0, 1.0)


class TestLinearSolver:
    def test_brownian(self, brownian):
        res = solve_linear_emm(brownian, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert abs(res.kappa0 - (-5.0 / 9.0)) <= 1e-11
        # at the root the entropy collapses to b^2 T / (2 sigma^2)
        assert math.isclose(res.entropy, 0.05 ** 2 / (2 * 0.09), rel_tol=1e-10)
        assert res.infimum_entropy == res.entropy
        assert abs(res.transformed.b) <= 1e-11
        assert res.parameter_status.case is EsscherCase.INTERVAL_INTERIOR

    def test_two_atom(self, two_atom):
        res = solve_linear_emm(two_atom, 1.0)
        k0 = 2.0 * math.asinh(-0.1)
        assert abs(res.kappa0 - k0) <= 1e-10
        c_min = 0.1 * k0 + 2.0 * (math.sqrt(1.01) - 1.0)
        assert math.isclose(res.entropy, -c_min, rel_tol=1e-9)

    def test_kou_martingale_property(self, kou):
        res = solve_linear_emm(kou, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert abs(cumulant_derivative(res.transformed, 0.0)) <= 1e-9
        assert res.entropy >= 0.0

    def test_subordinator(self, pi4_subordinator):
        res = solve_linear_emm(pi4_subordinator, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert abs(res.kappa0 - (-math.pi / 4.0)) <= 1e-10
        assert math.isclose(res.entropy, math.pi / 4.0, rel_tol=1e-9)
        assert abs(cumulant_derivative(res.transformed, 0.0)) <= 1e-8

    def test_degenerate_zero_mean_needs_no_tilt(self, stable15):
        res = solve_linear_emm(stable15, 1.0)
        assert res.status is EsscherStatus.P_IS_ALREADY_EMM
        assert res.kappa0 == 0.0 and res.entropy == 0.0
        assert res.transformed == stable15

    def test_no_emm_still_reports_infimum(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        t = LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu)
        res = solve_linear_emm(t, 1.0)
        assert res.status is EsscherStatus.NO_EMM
        assert res.kappa0 is None and res.entropy is None
        assert math.isclose(res.infimum_entropy, -cumulant(t, 5.0),
                            rel_tol=1e-9)
        assert res.infimum_entropy > 0.0
        assert "approached but not attained" in res.diagnostic
        assert not res.parameter_status.exists

    def test_endpoint_zero_gives_emm(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        res = solve_linear_emm(LevyTriplet(-shift, 0.0, cgmy_y15.nu), 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert res.kappa0 == 5.0
        assert res.transformed.nu == CGMY(1.0, 10.0, 0.0, 1.5)
        assert abs(cumulant_derivative(res.transformed, 0.0)) <= 1e-9

    def test_monotone_market(self):
        res = solve_linear_emm(
            LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),))), 1.0)
        assert res.status is EsscherStatus.ARBITRAGE_MARKET
        assert res.kappa0 is None and res.infimum_entropy is None
        assert "monotone" in res.parameter_status.diagnostic

    def test_horizon_validated(self, brownian):
        with pytest.raises(ValueError):
            solve_linear_emm(brownian, -1.0)


class TestGeometricSolver:
    def test_geometric_brownian_root(self, brownian):
        res = solve_geometric_emm(brownian, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        k = -0.05 / 0.09 - 0.5
        assert abs(res.kappa0 - k) <= 1e-10
        assert math.isclose(res.entropy, 0.09 * k * k / 2.0, rel_tol=1e-9)
        assert res.infimum_entropy is None

    def test_compensated_drift_needs_no_tilt(self):
        res = solve_geometric_emm(LevyTriplet(-0.045, 0.09, FiniteAtomic(())), 1.0)
        assert res.status is EsscherStatus.P_IS_ALREADY_EMM
        assert res.kappa0 == 0.0 and res.entropy == 0.0

    def test_kou_root_vs_bisection(self, kou):
        lo, hi = -2.0, 0.0
        g = lambda k: _kou_c(k + 1.0) - _kou_c(k)
        assert g(lo) < 0 < g(hi)
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
        res = solve_geometric_emm(kou, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert abs(res.kappa0 - 0.5 * (lo + hi)) <= 1e-8

    def test_narrow_interval_has_no_candidates(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return np.exp(-0.4 * ax) * ax ** -0.5

        nu = GenericDensity(dens, right=TailDecay.exponential(0.4, power=-0.5),
                            left=TailDecay.exponential(0.4, power=-0.5),
                            symmetric=True)
        res = solve_geometric_emm(LevyTriplet(0.0, 0.0, nu), 1.0)
        assert res.status is EsscherStatus.NO_EMM
        assert "no tilt keeps both" in res.diagnostic

    def test_single_candidate_symmetric_solves(self):
        t = LevyTriplet(0.0, 0.0, CGMY(1.0, 0.5, 0.5, 1.5))
        res = solve_geometric_emm(t, 1.0)
        assert res.status is EsscherStatus.EMM_EXISTS
        assert res.kappa0 == -0.5
        assert res.transformed.nu == CGMY(1.0, 0.0, 1.0, 1.5)
        assert res.entropy is not None and res.entropy >= 0.0

    def test_single_candidate_with_drift_fails(self):
        t = LevyTriplet(0.3, 0.0, CGMY(1.0, 0.5, 0.5, 1.5))
        res = solve_geometric_emm(t, 1.0)
        assert res.status is EsscherStatus.NO_EMM
        assert "single admissible tilt" in res.diagnostic

    def test_difference_of_constant_sign(self, cgmy_y15, call_counts):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        # both ends of the candidate set [-5, 4] are closed, so the probe
        # of the end settles each verdict: c at the start, c at the end
        calls = call_counts("cumulant")
        res = solve_geometric_emm(
            LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu), 1.0)
        assert res.status is EsscherStatus.NO_EMM
        assert "stays negative" in res.diagnostic
        assert calls["cumulant"] <= 6
        calls["cumulant"] = 0
        res = solve_geometric_emm(
            LevyTriplet(shift + 1.0, 0.0, cgmy_y15.nu), 1.0)
        assert res.status is EsscherStatus.NO_EMM
        assert "stays positive" in res.diagnostic
        assert calls["cumulant"] <= 6

    def test_degenerate_interval(self, stable15):
        res = solve_geometric_emm(stable15, 1.0)
        assert res.status is EsscherStatus.NO_EMM

    def test_monotone_market(self):
        res = solve_geometric_emm(
            LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),))), 1.0)
        assert res.status is EsscherStatus.ARBITRAGE_MARKET


class TestSinglePass:
    """Each solve checks monotonicity and computes the moment interval
    once per triplet, and searches for the mgf minimizer once."""

    def test_linear_report(self, kou, call_counts):
        calls = call_counts("is_monotone", "exp_moment_interval")
        assert memm_report(kou, 1.0)["status"] == "emm_exists"
        assert calls == {"is_monotone": 1, "exp_moment_interval": 1}

    def test_geometric_report(self, call_counts):
        spec = load_model(_MODELS / "geometric_kou.json")
        calls = call_counts("is_monotone", "exp_moment_interval")
        rep = memm_report(spec.triplet, spec.T, market="geometric")
        assert rep["status"] == "emm_exists"
        assert calls == {"is_monotone": 2, "exp_moment_interval": 2}

    def test_no_emm_minimizes_once(self, cgmy_y15, call_counts):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        t = LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu)
        calls = call_counts("minimize_mgf", "search_increasing_root",
                            "is_monotone", "exp_moment_interval")
        assert solve_linear_emm(t, 1.0).status is EsscherStatus.NO_EMM
        assert calls == {"minimize_mgf": 0, "search_increasing_root": 1,
                         "is_monotone": 1, "exp_moment_interval": 1}

    def test_endpoint_minimum_reuses_the_probed_derivative(self, cgmy_y15,
                                                            call_counts):
        # c' is evaluated at the start 0 and at the closed end 5, once each
        shift = cumulant_derivative(cgmy_y15, 5.0)
        t = LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu)
        calls = call_counts("cumulant_derivative")
        status = classify_esscher_parameter(t, 1.0)
        assert not status.exists
        assert status.diagnostic == ("derivative stays negative on the "
                                     "whole moment interval")
        assert calls == {"cumulant_derivative": 2}


class TestReport:
    def test_linear_report_fields(self, kou):
        rep = memm_report(kou, 1.0)
        assert rep["market"] == "linear" and rep["units"] == "nats"
        assert rep["status"] == "emm_exists"
        assert rep["verdict"].startswith("minimal-entropy")
        assert rep["existence_case"] == "interval_interior"
        assert rep["interval"]["a"] == -6.0 and rep["interval"]["b"] == 8.0
        assert rep["entropy"] == rep["infimum_entropy"]
        assert set(rep["transformed"]) == {"b", "sigma2", "nu"}
        assert len(rep["notes"]) == 2

    def test_linear_report_no_emm(self, cgmy_y15):
        shift = cumulant_derivative(cgmy_y15, 5.0)
        rep = memm_report(LevyTriplet(-shift - 1.0, 0.0, cgmy_y15.nu), 1.0)
        assert rep["status"] == "no_emm"
        assert rep["kappa0"] is None and rep["entropy"] is None
        assert rep["infimum_entropy"] > 0.0
        assert "approached but not attained" in rep["verdict"]

    def test_geometric_report_matches_linear_equivalent(self, brownian):
        rep = memm_report(brownian, 1.0, market="geometric")
        assert rep["market"] == "geometric"
        assert rep["status"] == "emm_exists"
        # for a Gaussian model both parametrizations share the same root
        assert math.isclose(rep["kappa0"], rep["linear_equivalent"]["kappa0"],
                            rel_tol=1e-9)
        assert math.isclose(rep["entropy"],
                            rep["linear_equivalent"]["entropy"], rel_tol=1e-8)
        assert rep["infimum_entropy"] is None
        assert rep["statuses_consistent"] is True
        assert len(rep["notes"]) == 1

    def test_geometric_report_arbitrage(self):
        rep = memm_report(LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),))),
                          1.0, market="geometric")
        assert rep["status"] == "arbitrage_market"
        assert rep["statuses_consistent"] is True

    def test_unknown_market_rejected(self, brownian):
        with pytest.raises(ValueError, match="unknown market"):
            memm_report(brownian, 1.0, market="forward")
