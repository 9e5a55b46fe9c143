"""Tempering penalties, perturbed models, and the approximating sequence.

Closed forms cover the atomic cases; scipy quadratures of the raw
densities serve as independent oracles for the tempered integrals; the
entropy decomposition is an exact identity and is asserted near machine
precision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from levy_emm import (
    FiniteAtomic,
    GenericDensity,
    LevyTriplet,
    PenaltyFamily,
    SymmetricAlphaStable,
    TailDecay,
    approx_sequence,
    check_penalty,
    cumulant,
    default_schedule,
    exp_moment_interval,
    minimize_mgf,
    perturbed_triplet,
    solve_linear_emm,
)
from levy_emm import approximation
from levy_emm.errors import ArbitrageMarketError, PenaltyViolation

_SCHEDULE = (1, 4, 16, 64, 256, 1024, 4096, 16384)


def _lying_custom(rho):
    """Declare an invalid penalty as valid, to exercise the diagnostics."""
    return PenaltyFamily.custom(rho, superlinear=True)


def _outside(fn):
    def rho(n, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > 1.0, fn(n, x), 0.0)
    return rho


class TestPenaltyFamily:
    def test_quadratic_values(self):
        p = PenaltyFamily.default_quadratic()
        assert p.rho_at(2, 3.0) == 4.5
        assert p.rho_at(2, -3.0) == 4.5
        assert np.all(p.rho_at(1, np.array([-1.0, -0.3, 0.0, 0.7, 1.0])) == 0.0)

    def test_first_argument_is_the_index(self):
        # rho_4(2) = 2^2/4; swapping the arguments would give 4^2/2
        assert PenaltyFamily.default_quadratic().rho_at(4, 2.0) == 1.0

    def test_power_family(self):
        assert PenaltyFamily.power(4).rho_at(2, 3.0) == 40.5
        assert PenaltyFamily.power(1.5).superlinear
        assert not PenaltyFamily.power(1.0).superlinear
        assert not PenaltyFamily.power(0.8).superlinear


class TestCheckPenalty:
    def test_quadratic_passes(self, kou):
        d = check_penalty(PenaltyFamily.default_quadratic(), kou.nu)
        assert d.passed
        assert d.monotone_ok and d.superlinear_ok and d.integrable_ok
        assert 0.0 < d.witnesses["mass_gap_n1"] < math.inf
        assert "monotone_grid" in d.witnesses
        assert "superlinear_ray" in d.witnesses

    def test_quartic_passes(self, kou):
        assert check_penalty(PenaltyFamily.power(4), kou.nu).passed

    @pytest.mark.parametrize("exponent", [1.34, 1.5])
    def test_powers_the_gate_accepts_pass(self, kou, exponent):
        p = PenaltyFamily.power(exponent)
        p.validate(16)
        d = check_penalty(p, kou.nu)
        assert d.superlinear_ok and d.passed
        assert "superlinear_ray" in d.witnesses

    def test_powers_the_gate_rejects_fail(self, kou):
        p = PenaltyFamily.power(1.2)
        with pytest.raises(PenaltyViolation):
            p.validate(1)
        d = check_penalty(p, kou.nu)
        assert not d.superlinear_ok and not d.passed
        assert d.witnesses["superlinear_violation"]["n"] == 1

    def test_sublinear_growth_detected(self, kou):
        p = _lying_custom(_outside(lambda n, x: np.abs(x) ** 0.8 / n))
        d = check_penalty(p, kou.nu)
        assert not d.superlinear_ok and not d.passed
        assert "superlinear_violation" in d.witnesses

    def test_linear_growth_detected(self, kou):
        p = _lying_custom(_outside(lambda n, x: np.abs(x) / n))
        d = check_penalty(p, kou.nu)
        assert not d.superlinear_ok

    def test_growth_in_n_detected(self, kou):
        p = _lying_custom(_outside(lambda n, x: x * x * n))
        d = check_penalty(p, kou.nu)
        assert not d.monotone_ok and not d.passed
        w = d.witnesses["monotone_violation"]
        assert w["rho_n_plus_1"] > w["rho_n"]

    def test_infinite_outer_mass_detected(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return ax ** -0.8

        nu = GenericDensity(dens, right=TailDecay.polynomial(-0.8),
                            left=TailDecay.polynomial(-0.8), symmetric=True)
        d = check_penalty(PenaltyFamily.default_quadratic(), nu)
        assert not d.integrable_ok and not d.passed
        assert d.witnesses["mass_gap_n1"] == math.inf


class TestPerturbedTriplet:
    def test_index_validated(self, kou):
        p = PenaltyFamily.default_quadratic()
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                perturbed_triplet(kou, p, bad)

    def test_undeclared_superlinear_rejected(self, kou):
        with pytest.raises(PenaltyViolation, match="superlinear"):
            perturbed_triplet(kou, PenaltyFamily.power(0.8), 4)

    def test_false_vanishing_declaration_rejected(self, kou):
        p = PenaltyFamily.custom(lambda n, x: np.asarray(x, float) ** 2 / n)
        with pytest.raises(PenaltyViolation, match="vanish"):
            perturbed_triplet(kou, p, 4)

    def test_measures_inside_the_ball_are_untouched(self, two_atom, brownian):
        p = PenaltyFamily.default_quadratic()
        assert perturbed_triplet(two_atom, p, 1) == two_atom
        assert perturbed_triplet(brownian, p, 1) == brownian

    def test_atoms_tempered_exactly(self):
        t = LevyTriplet(0.1, 0.0, FiniteAtomic(((2.0, 3.0), (-0.5, 1.0))))
        out = perturbed_triplet(t, PenaltyFamily.default_quadratic(), 2)
        got = dict(out.nu.atoms())
        assert math.isclose(got[2.0], 3.0 * math.exp(-2.0), rel_tol=1e-15)
        assert got[-0.5] == 1.0
        assert (out.b, out.sigma2) == (0.1, 0.0)

    def test_density_cumulant_against_quadrature(self, kou):
        out = perturbed_triplet(kou, PenaltyFamily.default_quadratic(), 4)
        k = 2.0

        def inner(x):
            dens = 1.5 * (0.4 * 8 * math.exp(-8 * x) if x > 0
                          else 0.6 * 6 * math.exp(6 * x))
            return (math.expm1(k * x) - k * x) * dens

        def tail(x):
            # exponents grouped before exponentiating to dodge overflow
            rate, w = (-8.0, 1.5 * 3.2) if x > 0 else (6.0, 1.5 * 3.6)
            u = rate * x - x * x / 4.0
            return w * (math.exp(k * x + u) - math.exp(u))

        pieces = [integrate.quad(tail, 1, np.inf)[0],
                  integrate.quad(inner, 0, 1)[0],
                  integrate.quad(inner, -1, 0)[0],
                  integrate.quad(tail, -np.inf, -1)[0]]
        want = 0.03 * k + 0.02 * k * k / 2.0 + math.fsum(pieces)
        assert math.isclose(cumulant(out, k), want, rel_tol=1e-8)

    def test_perturbed_interval_is_the_whole_line(self, stable08):
        out = perturbed_triplet(stable08, PenaltyFamily.default_quadratic(), 4)
        iv = exp_moment_interval(out)
        assert iv.a == -math.inf and iv.b == math.inf
        assert math.isfinite(cumulant(out, 10.0))

    def test_cumulant_converges_to_original(self, kou):
        p = PenaltyFamily.default_quadratic()
        want = cumulant(kou, 0.5)
        diffs = [abs(cumulant(perturbed_triplet(kou, p, n), 0.5) - want)
                 for n in (16, 256, 65536)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= 1e-6


class TestApproxSequence:
    def test_limits_match_the_minimizer(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(), (1, 4))
        mp = minimize_mgf(kou, 1.0)
        assert tr.kappa_limit == mp.kappa0
        assert math.isclose(tr.entropy_limit, -math.log(mp.phi_at_min),
                            rel_tol=1e-12)
        assert tr.failures == ()

    @pytest.mark.parametrize("which, message", [
        ("correction", "penalty correction integral is inf"),
        ("entropy", "entropy integral against the base measure is nan"),
    ])
    def test_non_finite_stage_integral_is_a_recorded_failure(
            self, kou, monkeypatch, which, message):
        real = approximation.two_sided_integral

        def fake(nu, **parts):
            # the entropy integral alone has an inner part; the correction's
            # tails alone carry the penalty's log weight without one
            inner = parts.get("inner_g") is not None
            if which == "entropy" and inner:
                return math.nan, 0.0
            if which == "correction" and not inner and parts["right"].tempered:
                return math.inf, 0.0
            return real(nu, **parts)

        monkeypatch.setattr(approximation, "two_sided_integral", fake)
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 4))
        assert tr.steps == ()
        assert [n for n, _ in tr.failures] == [1, 4]
        for _, msg in tr.failures:
            assert msg.startswith("QuadratureFailure: ") and message in msg

    def test_tilt_converges(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             _SCHEDULE)
        gaps = [abs(s.kappa_n - tr.kappa_limit) for s in tr.steps]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] > 1e-2
        assert gaps[-1] <= 5e-6

    def test_entropy_decomposition_identity(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             _SCHEDULE)
        for s in tr.steps:
            assert abs(s.entropy_vs_P - (s.entropy_n + s.correction_n)) <= 1e-12

    def test_correction_bounded_by_removed_mass(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             _SCHEDULE)
        for s in tr.steps:
            assert abs(s.correction_n) <= s.mass_gap + 1e-15

    def test_entropy_decreases_to_the_limit(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             _SCHEDULE)
        vs = [s.entropy_vs_P for s in tr.steps]
        assert all(b < a for a, b in zip(vs, vs[1:]))
        assert all(v >= tr.entropy_limit - 1e-12 for v in vs)
        assert vs[-1] - tr.entropy_limit <= 1e-8

    def test_removed_mass_decreases(self, kou):
        tr = approx_sequence(kou, 1.0, PenaltyFamily.default_quadratic(),
                             _SCHEDULE)
        gaps = [s.mass_gap for s in tr.steps]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_steps_scale_linearly_with_horizon(self, kou):
        p = PenaltyFamily.default_quadratic()
        one = approx_sequence(kou, 1.0, p, (1, 4)).steps
        two = approx_sequence(kou, 2.0, p, (1, 4)).steps
        for s1, s2 in zip(one, two):
            assert math.isclose(s2.kappa_n, s1.kappa_n, rel_tol=1e-12)
            assert math.isclose(s2.entropy_n, 2 * s1.entropy_n, rel_tol=1e-12)
            assert math.isclose(s2.correction_n, 2 * s1.correction_n,
                                rel_tol=1e-12)
            assert math.isclose(s2.entropy_vs_P, 2 * s1.entropy_vs_P,
                                rel_tol=1e-12)
            assert s2.mass_gap == s1.mass_gap

    def test_inputs_validated(self, kou):
        p = PenaltyFamily.default_quadratic()
        for bad in ((), (4, 2), (2, 2), (0, 1)):
            with pytest.raises(ValueError):
                approx_sequence(kou, 1.0, p, bad)
        with pytest.raises(ValueError):
            approx_sequence(kou, 0.0, p, (1, 2))

    def test_monotone_market_raises(self):
        t = LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),)))
        with pytest.raises(ArbitrageMarketError):
            approx_sequence(t, 1.0, PenaltyFamily.default_quadratic(), (1, 2))

    def test_untouched_measure_is_a_fixed_point(self, two_atom):
        tr = approx_sequence(two_atom, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 4, 16))
        for s in tr.steps:
            assert abs(s.kappa_n - tr.kappa_limit) <= 1e-12
            assert s.mass_gap == 0.0 and s.correction_n == 0.0
            assert abs(s.entropy_vs_P - s.entropy_n) <= 1e-12
            assert abs(s.entropy_n - tr.entropy_limit) <= 1e-12

    def test_far_atom_tempered_to_zero_mass(self):
        """The atom at 40 keeps ``0.5 e^{-1600}``, which underflows to 0:
        every stage solves, and its tilt is the model's without that atom."""
        near = ((-0.5, 1.0),)
        t = LevyTriplet(0.1, 0.01, FiniteAtomic(((40.0, 0.5),) + near))
        tr = approx_sequence(t, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 2, 4, 8))
        k0 = solve_linear_emm(LevyTriplet(0.1, 0.01, FiniteAtomic(near)),
                              1.0).kappa0
        assert tr.failures == ()
        assert [s.n for s in tr.steps] == [1, 2, 4, 8]
        for s in tr.steps:
            assert s.kappa_n == pytest.approx(k0, rel=1e-15, abs=0.0)

    def test_default_schedule(self):
        assert default_schedule(3) == (1, 2, 4, 8)
        sched = default_schedule()
        assert sched[0] == 1 and sched[-1] == 4096 and len(sched) == 13


class TestHeavyTailSequence:
    """Symmetric alpha=0.8 jumps: the original model admits no tilt at all
    (degenerate moment interval), yet every tempered step solves."""

    def test_tilts_are_identically_zero(self, stable08):
        tr = approx_sequence(stable08, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 4, 16))
        assert tr.kappa_limit == 0.0 and tr.entropy_limit == 0.0
        for s in tr.steps:
            assert s.kappa_n == 0.0
            assert s.entropy_n == 0.0

    def test_mass_gap_and_correction_oracles(self, stable08):
        tr = approx_sequence(stable08, 1.0, PenaltyFamily.default_quadratic(),
                             (1,))
        gap, _ = integrate.quad(
            lambda s: (1 - math.exp(-s * s)) * s ** -1.8, 1, np.inf)
        pen_mean, _ = integrate.quad(
            lambda s: s * s * math.exp(-s * s) * s ** -1.8, 1, np.inf)
        step = tr.steps[0]
        assert math.isclose(step.mass_gap, 2 * gap, rel_tol=1e-9)
        assert math.isclose(step.correction_n, 2 * (gap - pen_mean),
                            rel_tol=1e-9)

    def test_identity_and_decrease(self, stable08):
        tr = approx_sequence(stable08, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 4, 16))
        vs = [s.entropy_vs_P for s in tr.steps]
        for s in tr.steps:
            assert abs(s.entropy_vs_P - (s.entropy_n + s.correction_n)) <= 1e-12
        assert vs[0] > vs[1] > vs[2] > 0.0

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.7, 1.9])
    def test_identity_with_drift(self, alpha):
        # with a drift every κ_n is nonzero, so the identity rests on the
        # inner integrals of c, c' and the entropy, each counting (0, zw)
        # once
        t = LevyTriplet(0.15, 0.0, SymmetricAlphaStable(alpha=alpha))
        tr = approx_sequence(t, 1.0, PenaltyFamily.default_quadratic(),
                             (1, 2, 4))
        assert not tr.failures and len(tr.steps) == 3
        for s in tr.steps:
            assert s.kappa_n != 0.0
            assert abs(s.entropy_vs_P - (s.entropy_n + s.correction_n)) <= 1e-10
