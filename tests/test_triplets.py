"""Cumulant, exponential-moment and market-conversion checks.

Every family is compared against an oracle that shares no code with the
package: algebraic closed forms where they exist (Brownian, atomic,
jump-diffusion, variance gamma), high-precision mpmath integration of the
raw density formulas for the families without one (CGMY).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    ExpJumpImage,
    FiniteAtomic,
    GenericDensity,
    JumpDiffusion,
    LevyTriplet,
    LogJumpImage,
    Monotonicity,
    PenaltyFamily,
    SimConfig,
    TailDecay,
    approx_sequence,
    classify_esscher_parameter,
    cumulant,
    cumulant_derivative,
    esscher_entropy,
    esscher_transform,
    exp_moment_interval,
    geometric_to_linear,
    is_monotone,
    linear_to_geometric,
    memm_report,
    mgf,
    mgf_derivative,
    minimize_mgf,
    perturbed_triplet,
    sample_terminal,
    small_jump_variation,
    solve_geometric_emm,
    solve_linear_emm,
    tail_mass,
    validate_triplet,
    zero_measure,
)
from levy_emm.approximation import mass_gap
from levy_emm.levy_core.quadrature import (exp_integrand, expm1_minus_x,
                                           two_sided_integral)
from levy_emm.errors import (
    JumpBelowMinusOne,
    NegativeVariance,
    NonIntegrableLevyMeasure,
    PsiUndefined,
    ValidationError,
)

KAPPAS = (-1.5, -0.3, 0.0, 0.4, 2.0)

# atomic measures with atoms on the boundaries of the integrand regions:
# the inner cut at |x| = 1 (inside) and just beyond it, the market
# conversion's price cut at ln 2 (inside) and its mirror ln 1/2, and atoms
# well beyond the cut on either side
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_EDGE_ATOMS = {
    "at-plus-minus-1": ((1.0, 0.4), (-1.0, 0.3)),
    "just-beyond-1": ((_ABOVE_ONE, 0.5), (-_ABOVE_ONE, 0.2), (0.5, 0.1)),
    "ln2-and-ln-half": ((math.log(2.0), 0.7), (math.log(0.5), 0.4)),
    "beyond-the-cut": ((2.5, 0.1), (-3.0, 0.2), (0.8, 0.5)),
    "mixed": ((1.0, 0.3), (_ABOVE_ONE, 0.3), (math.log(2.0), 0.5),
              (-1.0, 0.25), (-1.7, 0.2)),
}
_EDGE_B, _EDGE_SIGMA2 = 0.05, 0.04
_EDGE_KAPPAS = (-2.3, -0.4, 0.7, 1.9)
edge_atoms = pytest.mark.parametrize("atoms", list(_EDGE_ATOMS.values()),
                                     ids=list(_EDGE_ATOMS))


def _terms(atoms, term):
    """``term(x, m)`` of every atom, evaluated at 40 digits."""
    with mp.workdps(40):
        return [float(term(mp.mpf(x), mp.mpf(m))) for x, m in atoms]


def _assert_sum(got, terms):
    """``got`` equals ``fsum(terms)`` to rel 1e-13 of the terms' size."""
    want = math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    assert abs(got - want) <= 1e-13 * scale, (got, want)


def _h(x):
    """The truncation ``h(x) = x 1_{|x| <= 1}``."""
    return x if abs(x) <= 1 else 0


def _kou_pdf(x):
    """Double-exponential density with p=0.4, eta+ = 8, eta- = 6."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 0, 0.4 * 8.0 * np.exp(-8.0 * np.abs(x)),
                    0.6 * 6.0 * np.exp(-6.0 * np.abs(x)))


def _merton_pdf(x):
    """Gaussian jump density with mean -0.1, std 0.2."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x + 0.1) / 0.2) ** 2) / (0.2 * math.sqrt(2 * math.pi))


def _truncated_mean(pdf, lo=-1.0, hi=1.0):
    val, _ = integrate.quad(lambda x: x * float(pdf(x)), lo, hi, limit=200)
    return val


def _non_integrable_triplet():
    """Density ``|x|^{-3.5} e^{-|x|}``: ``x² ν`` is ``|x|^{-1.5}`` near
    zero, so the small jumps have infinite variation."""
    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        return ax ** -3.5 * np.exp(-ax)

    nu = GenericDensity(dens, right=TailDecay.exponential(1.0, power=-3.5),
                        left=TailDecay.exponential(1.0, power=-3.5),
                        symmetric=True)
    return LevyTriplet(0.0, 0.0, nu)


#: every public function that takes a triplet, applied to one
_TRIPLET_CALLS = {
    "cumulant": lambda t: cumulant(t, 0.5),
    "cumulant_derivative": lambda t: cumulant_derivative(t, 0.5),
    "mgf": lambda t: mgf(t, 1.0, 0.5),
    "mgf_derivative": lambda t: mgf_derivative(t, 1.0, 0.5),
    "is_monotone": is_monotone,
    "geometric_to_linear": geometric_to_linear,
    "linear_to_geometric": linear_to_geometric,
    "exp_moment_interval": exp_moment_interval,
    "minimize_mgf": lambda t: minimize_mgf(t, 1.0),
    "classify_esscher_parameter": lambda t: classify_esscher_parameter(t, 1.0),
    "esscher_transform": lambda t: esscher_transform(t, 0.5),
    "esscher_entropy": lambda t: esscher_entropy(t, 1.0, 0.5),
    "solve_linear_emm": lambda t: solve_linear_emm(t, 1.0),
    "solve_geometric_emm": lambda t: solve_geometric_emm(t, 1.0),
    "memm_report": lambda t: memm_report(t, 1.0),
    "perturbed_triplet": lambda t: perturbed_triplet(
        t, PenaltyFamily.default_quadratic(), 1),
    "approx_sequence": lambda t: approx_sequence(
        t, 1.0, PenaltyFamily.default_quadratic(), (1,)),
    "sample_terminal": lambda t: sample_terminal(t, SimConfig(1.0, 10)),
}


class TestConstructionAndValidation:
    def test_negative_variance_rejected(self):
        for bad in (-0.1, -1e-300, math.inf, math.nan):
            with pytest.raises(NegativeVariance):
                LevyTriplet(0.0, bad, zero_measure())

    def test_nonfinite_drift_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError):
                LevyTriplet(bad, 1.0, zero_measure())

    def test_measure_type_checked(self):
        with pytest.raises(TypeError):
            LevyTriplet(0.0, 1.0, "not a measure")

    def test_validated_facts_match_direct_quadrature(self, kou):
        # the two integrals validate_triplet checks for finiteness
        lam = 1.5
        sjv, _ = integrate.quad(lambda x: x * x * float(_kou_pdf(x)), -1.0, 1.0,
                                points=[0.0], limit=200)
        left, _ = integrate.quad(lambda x: float(_kou_pdf(x)), -np.inf, -1.0)
        right, _ = integrate.quad(lambda x: float(_kou_pdf(x)), 1.0, np.inf)
        assert math.isclose(small_jump_variation(kou.nu), lam * sjv, rel_tol=1e-9)
        assert math.isclose(tail_mass(kou.nu), lam * (left + right), rel_tol=1e-9)

    def test_validate_returns_the_triplet(self, kou):
        assert validate_triplet(kou) is kou

    def test_infinite_small_jump_variation_rejected(self):
        with pytest.raises(NonIntegrableLevyMeasure):
            validate_triplet(_non_integrable_triplet())

    @pytest.mark.parametrize("call", _TRIPLET_CALLS.values(),
                             ids=list(_TRIPLET_CALLS))
    def test_every_triplet_entry_point_validates(self, call):
        with pytest.raises(NonIntegrableLevyMeasure):
            call(_non_integrable_triplet())

    def test_declared_infinite_mass_rejected(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return ax ** -0.8

        nu = GenericDensity(dens, right=TailDecay.polynomial(-0.8),
                            left=TailDecay.polynomial(-0.8), symmetric=True)
        with pytest.raises(NonIntegrableLevyMeasure):
            validate_triplet(LevyTriplet(0.0, 0.0, nu))


class TestBrownian:
    def test_cumulant_closed_form(self, brownian):
        for k in KAPPAS:
            c = cumulant(brownian, k)
            assert math.isfinite(c)
            assert math.isclose(c, 0.05 * k + 0.045 * k * k,
                                rel_tol=1e-14, abs_tol=1e-15)

    def test_cumulant_at_zero_is_exactly_zero(self, brownian):
        assert cumulant(brownian, 0.0) == 0.0

    def test_derivative_closed_form(self, brownian):
        for k in KAPPAS:
            m = cumulant_derivative(brownian, k)
            assert math.isclose(m, 0.05 + 0.09 * k, rel_tol=1e-14)

    def test_mgf_and_derivative(self, brownian):
        T = 2.5
        for k in KAPPAS:
            c = 0.05 * k + 0.045 * k * k
            m = 0.05 + 0.09 * k
            assert math.isclose(mgf(brownian, T, k),
                                math.exp(T * c), rel_tol=1e-13)
            assert math.isclose(mgf_derivative(brownian, T, k),
                                math.exp(T * c) * T * m, rel_tol=1e-13)

    def test_mgf_rejects_nonpositive_horizon(self, brownian):
        with pytest.raises(ValueError):
            mgf(brownian, 0.0, 1.0)
        with pytest.raises(ValueError):
            mgf_derivative(brownian, -1.0, 1.0)


class TestFiniteAtomic:
    def test_symmetric_atoms_cumulant(self, two_atom):
        for k in KAPPAS:
            want = 0.1 * k + 2.0 * (math.cosh(0.5 * k) - 1.0)
            assert math.isclose(cumulant(two_atom, k), want,
                                rel_tol=1e-13, abs_tol=1e-15)

    def test_symmetric_atoms_derivative(self, two_atom):
        for k in KAPPAS:
            want = 0.1 + math.sinh(0.5 * k)
            assert math.isclose(cumulant_derivative(two_atom, k), want,
                                rel_tol=1e-13)

    def test_large_atom_is_uncompensated(self):
        t = LevyTriplet(0.0, 0.0, FiniteAtomic(((2.0, 0.3),)))
        for k in KAPPAS:
            assert math.isclose(cumulant(t, k), 0.3 * math.expm1(2.0 * k),
                                rel_tol=1e-13, abs_tol=1e-15)
            assert math.isclose(cumulant_derivative(t, k),
                                0.3 * 2.0 * math.exp(2.0 * k), rel_tol=1e-13)

    def test_mixed_atoms(self):
        atoms = ((0.5, 1.0), (2.0, 0.3), (-1.5, 0.2))
        t = LevyTriplet(-0.4, 0.01, FiniteAtomic(atoms))

        def oracle(k):
            jumps = (math.exp(0.5 * k) - 1.0 - 0.5 * k
                     + 0.3 * math.expm1(2.0 * k)
                     + 0.2 * math.expm1(-1.5 * k))
            return -0.4 * k + 0.005 * k * k + jumps

        for k in KAPPAS:
            assert math.isclose(cumulant(t, k), oracle(k),
                                rel_tol=1e-12, abs_tol=1e-15)


    @edge_atoms
    def test_edge_cumulant_and_derivative(self, atoms):
        t = LevyTriplet(_EDGE_B, _EDGE_SIGMA2, FiniteAtomic(atoms))
        for k in _EDGE_KAPPAS:
            base = [_EDGE_B * k, 0.5 * _EDGE_SIGMA2 * k * k]
            jumps = _terms(atoms, lambda x, m: m * (
                mp.expm1(k * x) - k * _h(x)))
            _assert_sum(cumulant(t, k), base + jumps)
            base = [_EDGE_B, _EDGE_SIGMA2 * k]
            jumps = _terms(atoms, lambda x, m: m * (
                x * mp.exp(k * x) - _h(x)))
            _assert_sum(cumulant_derivative(t, k), base + jumps)

    @edge_atoms
    def test_edge_small_jump_variation_and_tail_mass(self, atoms):
        nu = FiniteAtomic(atoms)
        _assert_sum(small_jump_variation(nu),
                    [m * x * x for x, m in atoms if abs(x) <= 1.0])
        _assert_sum(tail_mass(nu), [m for x, m in atoms if abs(x) > 1.0])

    @edge_atoms
    def test_edge_conversion_drift(self, atoms):
        # (e^x - 1) 1{|e^x - 1| <= 1} - h(x): the price cut keeps x = ln 2
        t = LevyTriplet(_EDGE_B, _EDGE_SIGMA2, FiniteAtomic(atoms))

        def term(x, m):
            price = mp.expm1(x)
            return m * ((price if abs(price) <= 1 else 0) - _h(x))

        _assert_sum(geometric_to_linear(t).b,
                    [_EDGE_B, 0.5 * _EDGE_SIGMA2] + _terms(atoms, term))

    @edge_atoms
    def test_edge_esscher_drift(self, atoms):
        t = LevyTriplet(_EDGE_B, _EDGE_SIGMA2, FiniteAtomic(atoms))
        for k in _EDGE_KAPPAS:
            shift = _terms(atoms, lambda x, m: m * x * mp.expm1(k * x)
                              if abs(x) <= 1 else 0)
            _assert_sum(esscher_transform(t, k).b,
                        [_EDGE_B, _EDGE_SIGMA2 * k] + shift)

    @staticmethod
    def _rho(n, x):
        """The default quadratic penalty ``x^2/n`` beyond the cut."""
        return x * x / n if abs(x) > 1 else 0

    @edge_atoms
    def test_edge_mass_gap(self, atoms):
        p = PenaltyFamily.default_quadratic()
        for n in (1, 4):
            gap = _terms(atoms, lambda x, m: -m * mp.expm1(-self._rho(n, x)))
            _assert_sum(mass_gap(FiniteAtomic(atoms), p, n), gap)

    @edge_atoms
    def test_edge_approx_step(self, atoms):
        t = LevyTriplet(_EDGE_B, _EDGE_SIGMA2, FiniteAtomic(atoms))
        n, horizon = 2, 1.5
        trace = approx_sequence(t, horizon, PenaltyFamily.default_quadratic(),
                                n_schedule=(n,))
        (step,) = trace.steps
        k = step.kappa_n

        def corr(x, m):
            r = self._rho(n, x)
            return horizon * m * (-mp.expm1(-r) - r * mp.exp(k * x - r))

        def entropy(x, m):
            u = k * x - self._rho(n, x)
            return horizon * m * (mp.exp(u) * (u - 1) + 1)

        _assert_sum(step.correction_n, _terms(atoms, corr))
        _assert_sum(step.entropy_vs_P,
                    [horizon * _EDGE_SIGMA2 * k * k / 2]
                    + _terms(atoms, entropy))


class TestJumpDiffusion:
    KOU_GRID = (-4.0, -0.7, 0.9, 5.0)

    @staticmethod
    def _kou_jump_mgf(k):
        return 0.4 * 8.0 / (8.0 - k) + 0.6 * 6.0 / (6.0 + k)

    @staticmethod
    def _kou_jump_mgf_prime(k):
        return 0.4 * 8.0 / (8.0 - k) ** 2 - 0.6 * 6.0 / (6.0 + k) ** 2

    def test_kou_cumulant(self, kou):
        tm = _truncated_mean(_kou_pdf)
        for k in self.KOU_GRID:
            want = (0.03 * k + 0.01 * k * k
                    + 1.5 * (self._kou_jump_mgf(k) - 1.0) - k * 1.5 * tm)
            assert math.isclose(cumulant(kou, k), want, rel_tol=1e-9)

    def test_kou_derivative(self, kou):
        tm = _truncated_mean(_kou_pdf)
        for k in self.KOU_GRID:
            want = 0.03 + 0.02 * k + 1.5 * (self._kou_jump_mgf_prime(k) - tm)
            assert math.isclose(cumulant_derivative(kou, k), want,
                                rel_tol=1e-9)

    def test_merton_cumulant_and_derivative(self, merton):
        tm = _truncated_mean(_merton_pdf)
        for k in (-3.0, -0.5, 1.2, 4.0):
            jump_mgf = math.exp(-0.1 * k + 0.02 * k * k)
            c_want = 0.02 * k + 0.02 * k * k + (jump_mgf - 1.0) - k * tm
            m_want = 0.02 + 0.04 * k + ((-0.1 + 0.04 * k) * jump_mgf - tm)
            assert math.isclose(cumulant(merton, k), c_want, rel_tol=1e-9)
            assert math.isclose(cumulant_derivative(merton, k), m_want,
                                rel_tol=1e-9)

    def test_mgf_identities(self, kou):
        T = 0.8
        for k in self.KOU_GRID:
            phi = mgf(kou, T, k)
            m = cumulant_derivative(kou, k)
            assert math.isclose(mgf_derivative(kou, T, k), phi * T * m,
                                rel_tol=1e-10)
            assert math.isclose(mgf(kou, 2 * T, k), phi * phi,
                                rel_tol=1e-10)


class TestVarianceGamma:
    C, G, M = 1.0, 6.0, 9.0
    GRID = (-5.5, -2.0, 1.0, 4.0, 8.5)

    def _truncation_term(self):
        # integral of x 1_{|x|<=1} against the VG density, in closed form
        return self.C * ((1.0 - math.exp(-self.M)) / self.M
                         - (1.0 - math.exp(-self.G)) / self.G)

    def test_cumulant_frullani(self, vg):
        tm = self._truncation_term()
        for k in self.GRID:
            want = (0.01 * k
                    + self.C * math.log(self.M * self.G
                                        / ((self.M - k) * (self.G + k)))
                    - k * tm)
            assert math.isclose(cumulant(vg, k), want, rel_tol=1e-9)

    def test_derivative(self, vg):
        tm = self._truncation_term()
        for k in self.GRID:
            want = (0.01 + self.C * (1.0 / (self.M - k) - 1.0 / (self.G + k))
                    - tm)
            assert math.isclose(cumulant_derivative(vg, k), want,
                                rel_tol=1e-9)

    def test_boundary_blows_up(self, vg):
        assert cumulant(vg, 9.0) == math.inf
        assert cumulant(vg, -6.0) == math.inf
        assert cumulant(vg, 12.0) == math.inf
        assert mgf(vg, 1.0, 9.0) == math.inf
        assert mgf_derivative(vg, 1.0, 9.0) == math.inf
        assert mgf_derivative(vg, 1.0, -6.0) == -math.inf


def _cgmy_cumulant_oracle(b, sigma2, C, G, M, Y, kappa):
    """Cumulant by mpmath quadrature of the raw density at 50 digits."""
    with mp.workdps(50):
        Cm, Gm, Mm, Ym, km = map(mp.mpf, (C, G, M, Y, kappa))

        def right_inner(x):
            return (mp.expm1(km * x) - km * x) * Cm * mp.e ** (-Mm * x) * x ** (-1 - Ym)

        def right_tail(x):
            return mp.expm1(km * x) * Cm * mp.e ** (-Mm * x) * x ** (-1 - Ym)

        def left_inner(s):
            return (mp.expm1(-km * s) + km * s) * Cm * mp.e ** (-Gm * s) * s ** (-1 - Ym)

        def left_tail(s):
            return mp.expm1(-km * s) * Cm * mp.e ** (-Gm * s) * s ** (-1 - Ym)

        jumps = (mp.quad(right_inner, [0, 1]) + mp.quad(right_tail, [1, mp.inf])
                 + mp.quad(left_inner, [0, 1]) + mp.quad(left_tail, [1, mp.inf]))
        return float(b * km + sigma2 * km * km / 2 + jumps)


def _cgmy_mean_oracle(b, sigma2, C, G, M, Y, kappa):
    """Cumulant derivative by mpmath quadrature of the raw density."""
    with mp.workdps(50):
        Cm, Gm, Mm, Ym, km = map(mp.mpf, (C, G, M, Y, kappa))

        def right_inner(x):
            return x * mp.expm1(km * x) * Cm * mp.e ** (-Mm * x) * x ** (-1 - Ym)

        def right_tail(x):
            return x * mp.e ** ((km - Mm) * x) * Cm * x ** (-1 - Ym)

        def left_inner(s):
            return -s * mp.expm1(-km * s) * Cm * mp.e ** (-Gm * s) * s ** (-1 - Ym)

        def left_tail(s):
            return -s * mp.e ** (-(km + Gm) * s) * Cm * s ** (-1 - Ym)

        jumps = (mp.quad(right_inner, [0, 1]) + mp.quad(right_tail, [1, mp.inf])
                 + mp.quad(left_inner, [0, 1]) + mp.quad(left_tail, [1, mp.inf]))
        return float(b + sigma2 * km + jumps)


class TestCGMY:
    def test_cumulant_y05(self, cgmy_y05):
        for k in (-3.5, -1.0, 0.8, 5.0):
            want = _cgmy_cumulant_oracle(0.0, 0.0, 0.5, 4.0, 7.0, 0.5, k)
            assert math.isclose(cumulant(cgmy_y05, k), want, rel_tol=5e-9)

    def test_cumulant_y15(self, cgmy_y15):
        for k in (-4.0, -1.5, 2.0, 4.5):
            want = _cgmy_cumulant_oracle(0.0, 0.0, 1.0, 5.0, 5.0, 1.5, k)
            assert math.isclose(cumulant(cgmy_y15, k), want, rel_tol=5e-9)

    def test_y05_endpoint_cumulant_finite_mean_infinite(self, cgmy_y05):
        # at kappa = M the tilted tail is x^{-1.5}: mass converges, the
        # first moment does not
        c = cumulant(cgmy_y05, 7.0)
        assert math.isfinite(c)
        want = _cgmy_cumulant_oracle(0.0, 0.0, 0.5, 4.0, 7.0, 0.5, 7.0)
        assert math.isclose(c, want, rel_tol=5e-9)
        assert cumulant_derivative(cgmy_y05, 7.0) == math.inf
        assert mgf_derivative(cgmy_y05, 1.0, 7.0) == math.inf

    def test_y15_endpoint_mean_finite(self, cgmy_y15):
        # tilted tail x^{-2.5}: both the mass and the first moment converge
        m = cumulant_derivative(cgmy_y15, 5.0)
        assert math.isfinite(m)
        want = _cgmy_mean_oracle(0.0, 0.0, 1.0, 5.0, 5.0, 1.5, 5.0)
        assert math.isclose(m, want, rel_tol=5e-9)

    def test_derivative_against_oracle(self, cgmy_y05, cgmy_y15):
        for t, params in ((cgmy_y05, (0.5, 4.0, 7.0, 0.5)),
                          (cgmy_y15, (1.0, 5.0, 5.0, 1.5))):
            for k in (-2.0, 0.0, 1.5):
                want = _cgmy_mean_oracle(0.0, 0.0, *params, k)
                assert math.isclose(cumulant_derivative(t, k), want,
                                    rel_tol=5e-9, abs_tol=1e-12)


class TestStableEdges:
    def test_no_exponential_moments(self, stable08, stable15):
        for t in (stable08, stable15):
            assert cumulant(t, 0.0) == 0.0
            for k in (-0.5, 0.01, 1.0):
                assert cumulant(t, k) == math.inf
                assert mgf(t, 1.0, k) == math.inf

    def test_mean_undefined_below_alpha_one(self, stable08):
        assert math.isnan(cumulant_derivative(stable08, 0.0))
        with pytest.raises(PsiUndefined):
            mgf_derivative(stable08, 1.0, 0.0)

    def test_mean_zero_above_alpha_one(self, stable15):
        m = cumulant_derivative(stable15, 0.0)
        assert m == 0.0
        psi = mgf_derivative(stable15, 1.0, 0.0)
        assert psi == 0.0


def _moment_values(t, kappa):
    """``c``, ``c'``, ``φ_1``, ``ψ_1`` and the kernel's value of the jump
    part of ``c`` at ``kappa``."""
    tail = exp_integrand(kappa, factor=np.expm1)
    jumps, _ = two_sided_integral(
        t.nu, inner_g=exp_integrand(kappa, factor=expm1_minus_x),
        right=tail, left=tail)
    return [cumulant(t, kappa), cumulant_derivative(t, kappa),
            mgf(t, 1.0, kappa), mgf_derivative(t, 1.0, kappa), jumps]


class TestFloatContract:
    """Every moment function returns a Python ``float``, not an
    ``np.float64``: finite inside the moment set, ``inf`` outside it and
    NaN where ``c'`` is undefined."""

    @pytest.mark.parametrize("name", ["vg", "two_atom", "kou", "brownian"])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, -1.5])
    def test_finite_inside_the_moment_set(self, request, name, kappa):
        values = _moment_values(request.getfixturevalue(name), kappa)
        assert [type(v) for v in values] == [float] * 5, values
        assert all(math.isfinite(v) for v in values), values

    def test_inf_outside_the_moment_set(self, vg):
        for kappa, sign in ((10.0, 1.0), (-7.0, -1.0)):
            values = _moment_values(vg, kappa)
            assert [type(v) for v in values] == [float] * 5, values
            assert values == [math.inf, sign * math.inf, math.inf,
                              sign * math.inf, math.inf]

    def test_nan_where_the_mean_is_undefined(self, stable08):
        tail = exp_integrand(0.0, power=1)
        jumps, _ = two_sided_integral(stable08.nu, right=tail, left=tail)
        for v in (cumulant_derivative(stable08, 0.0), jumps):
            assert type(v) is float and math.isnan(v)


class TestIsMonotone:
    def test_gaussian_part_never_monotone(self, brownian):
        assert is_monotone(brownian) is Monotonicity.NOT_MONOTONE

    def test_pure_drift(self):
        assert is_monotone(LevyTriplet(0.3, 0.0, zero_measure())) \
            is Monotonicity.INCREASING
        assert is_monotone(LevyTriplet(-0.3, 0.0, zero_measure())) \
            is Monotonicity.DECREASING
        assert is_monotone(LevyTriplet(0.0, 0.0, zero_measure())) \
            is Monotonicity.NOT_MONOTONE

    def test_two_sided_jumps(self, two_atom):
        assert is_monotone(two_atom) is Monotonicity.NOT_MONOTONE

    def test_one_sided_atoms(self):
        nu = FiniteAtomic(((0.5, 1.0),))
        # finite-variation drift is b - 0.5; the paths increase iff it is >= 0
        assert is_monotone(LevyTriplet(0.5, 0.0, nu)) is Monotonicity.INCREASING
        assert is_monotone(LevyTriplet(0.3, 0.0, nu)) is Monotonicity.NOT_MONOTONE
        mirror = FiniteAtomic(((-0.5, 1.0),))
        assert is_monotone(LevyTriplet(-0.5, 0.0, mirror)) is Monotonicity.DECREASING
        assert is_monotone(LevyTriplet(-0.3, 0.0, mirror)) is Monotonicity.NOT_MONOTONE

    def test_one_sided_finite_variation_density(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return np.where(x > 0, ax ** -1.5 * np.exp(-ax), 0.0)

        nu = GenericDensity(dens, right=TailDecay.exponential(1.0, power=-1.5),
                            left=TailDecay.bounded(0.0), symmetric=False)
        fv, _ = integrate.quad(lambda s: s ** -0.5 * math.exp(-s), 0.0, 1.0)
        assert is_monotone(LevyTriplet(fv + 0.01, 0.0, nu)) is Monotonicity.INCREASING
        assert is_monotone(LevyTriplet(fv - 0.01, 0.0, nu)) is Monotonicity.NOT_MONOTONE

    def test_one_sided_infinite_variation_density(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return np.where(x > 0, ax ** -2.2 * np.exp(-ax), 0.0)

        nu = GenericDensity(dens, right=TailDecay.exponential(1.0, power=-2.2),
                            left=TailDecay.bounded(0.0), symmetric=False)
        assert is_monotone(LevyTriplet(10.0, 0.0, nu)) is Monotonicity.NOT_MONOTONE


class TestConversions:
    def test_brownian_round_trip(self, brownian):
        lin = geometric_to_linear(brownian)
        assert lin.nu == zero_measure()
        assert math.isclose(lin.b, 0.05 + 0.5 * 0.09, rel_tol=1e-15)
        assert lin.sigma2 == brownian.sigma2
        back = linear_to_geometric(lin)
        assert math.isclose(back.b, brownian.b, rel_tol=1e-14)
        assert back.nu == zero_measure()

    def test_atomic_forward_map(self, two_atom):
        lin = geometric_to_linear(two_atom)
        got = dict(lin.nu.atoms())
        assert set(got) == {math.expm1(0.5), math.expm1(-0.5)}
        assert all(math.isclose(m, 1.0) for m in got.values())
        mismatch = sum((math.expm1(x) - x) for x in (0.5, -0.5))
        assert math.isclose(lin.b, 0.1 + mismatch, rel_tol=1e-13)

    def test_atomic_round_trip(self, two_atom):
        back = linear_to_geometric(geometric_to_linear(two_atom))
        assert math.isclose(back.b, two_atom.b, rel_tol=1e-12, abs_tol=1e-14)
        got = sorted(back.nu.atoms())
        for (bp, bm), (op, om) in zip(got, sorted(two_atom.nu.atoms())):
            assert math.isclose(bp, op, rel_tol=1e-13, abs_tol=1e-15)
            assert math.isclose(bm, om, rel_tol=1e-15)

    def test_density_round_trip_unwraps_base(self, kou):
        lin = geometric_to_linear(kou)
        assert isinstance(lin.nu, ExpJumpImage)
        assert lin.nu.base == kou.nu
        back = linear_to_geometric(lin)
        # the inverse unwraps the image instead of stacking a second wrapper
        assert back.nu == kou.nu
        assert not isinstance(back.nu, ExpJumpImage)
        assert math.isclose(back.b, kou.b, rel_tol=1e-12, abs_tol=1e-14)
        assert back.sigma2 == kou.sigma2

    def test_density_drift_against_quadrature(self, kou):
        lin = geometric_to_linear(kou)
        ln2 = math.log(2.0)

        def g_full(x):
            price = math.expm1(x)
            keep_price = price if abs(price) <= 1.0 else 0.0
            keep_log = x if abs(x) <= 1.0 else 0.0
            return keep_price - keep_log

        mismatch = 0.0
        for lo, hi in ((-np.inf, -1.0), (-1.0, 0.0), (0.0, ln2), (ln2, 1.0)):
            val, _ = integrate.quad(lambda x: g_full(x) * float(_kou_pdf(x)),
                                    lo, hi, limit=200)
            mismatch += val
        want = 0.03 + 0.5 * 0.02 + 1.5 * mismatch
        assert math.isclose(lin.b, want, rel_tol=1e-9)

    def test_log_jump_image_round_trip(self):
        # one-sided Kou price jumps: the log-price measure is their image
        # under log(1 + y), integrated against the price jumps by pullback
        price = JumpDiffusion(1.5, DoubleExponentialJumps(1.0, 3.0, 6.0))
        lin = LevyTriplet(0.02, 0.04, price)
        geo = linear_to_geometric(lin)
        assert isinstance(geo.nu, LogJumpImage) and geo.nu.base == price

        def dens(y):
            return 1.5 * 3.0 * math.exp(-3.0 * y)

        # b_G = b - σ²/2 - ∫ [y 1{y <= 1} - log(1+y) 1{log(1+y) <= 1}] ν(dy)
        mismatch = 0.0
        for lo, hi in ((0.0, 1.0), (1.0, math.e - 1.0)):
            val, _ = integrate.quad(
                lambda y: ((y if y <= 1.0 else 0.0) - math.log1p(y)) * dens(y),
                lo, hi, limit=200)
            mismatch += val
        assert math.isclose(geo.b, 0.02 - 0.02 - mismatch, rel_tol=1e-10)
        back = geometric_to_linear(geo)
        assert back.nu == price
        assert math.isclose(back.b, lin.b, rel_tol=1e-12)
        assert back.sigma2 == lin.sigma2

    def test_jump_to_minus_one_rejected(self):
        for pos in (-1.0, -1.5):
            t = LevyTriplet(0.0, 0.0, FiniteAtomic(((pos, 0.5),)))
            with pytest.raises(JumpBelowMinusOne):
                linear_to_geometric(t)

    def test_unbounded_negative_density_rejected(self, kou):
        # the linear-market reading of a two-sided exponential density has
        # mass below -1, so there is no geometric counterpart
        with pytest.raises(JumpBelowMinusOne):
            linear_to_geometric(kou)

    def test_atoms_above_minus_one_convert(self):
        t = LevyTriplet(0.2, 0.0, FiniteAtomic(((-0.9, 0.4), (0.3, 1.1))))
        geo = linear_to_geometric(t)
        got = sorted(geo.nu.atoms())
        assert math.isclose(got[0][0], math.log1p(-0.9), rel_tol=1e-15)
        assert math.isclose(got[1][0], math.log1p(0.3), rel_tol=1e-15)
        back = geometric_to_linear(geo)
        assert math.isclose(back.b, t.b, rel_tol=1e-12, abs_tol=1e-15)


class TestTailIntegrandHelper:
    def test_matches_naive_formula_at_moderate_arguments(self, vg):
        from levy_emm.levy_core import exp_integrand

        nu = vg.nu

        def at(x):
            x = np.asarray(x)
            return x, nu.density(x), nu.log_density(x)

        f = exp_integrand(2.0, prefactor=lambda x: x * x)
        for s in (1.0, 2.5, 4.0):
            naive = s * s * math.exp(2.0 * s) * float(nu.density(np.asarray(s)))
            assert math.isclose(float(f(*at(s))), naive, rel_tol=1e-12)

        g = exp_integrand(2.0, log_weight=lambda x: -x * x)
        for s in (1.0, 3.0):
            naive = (math.exp(2.0 * -s - s * s)
                     * float(nu.density(np.asarray(-s))))
            assert math.isclose(float(g(*at(-s))), naive, rel_tol=1e-12)

        # image measures: the kernel adds the image's tilt and takes the
        # power in log space, where the price jump itself may overflow
        h = exp_integrand(-0.5, power=1)
        assert math.isclose(
            float(h(*at(3.0), tilt=0.25, log_abs_x=math.log(3.0))),
            3.0 * math.exp(-0.25 * 3.0) * float(nu.density(np.asarray(3.0))),
            rel_tol=1e-12)
        t = 800.0  # e^t - 1 overflows; x e^{-x} e^{-t} is still a number
        x, dens, log_dens = np.asarray(math.inf), np.asarray(0.0), -t
        assert float(h(x, dens, log_dens, log_abs_x=t)) == 0.0
        assert math.isclose(
            float(exp_integrand(0.0, power=1)(x, dens, log_dens,
                                              log_abs_x=t)), 1.0)

    def test_no_nan_when_density_underflows(self, vg):
        from levy_emm.levy_core import exp_integrand
        from levy_emm.levy_core.quadrature import (exp_entropy_term,
                                                   expm1_minus_x)

        nu = vg.nu
        s = 9000.0
        with np.errstate(all="ignore"):
            naive = math.inf * float(nu.density(np.asarray(s)))  # 0 * inf
        assert math.isnan(naive)
        x = np.asarray(s)
        dens, log_dens = nu.density(x), nu.log_density(x)
        assert float(exp_integrand(8.9)(x, dens, log_dens)) == 0.0
        # a factor whose exponential overflows meets the underflowed density
        # in log space, as do its polynomial part and the entropy's e^u u
        for factor in (np.expm1, expm1_minus_x, exp_entropy_term):
            f = exp_integrand(8.9, factor=factor)
            assert float(f(x, dens, log_dens)) == 0.0, factor
