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
    QuadratureSettings,
    TailDecay,
    ValidatedTriplet,
    as_validated,
    cumulant,
    cumulant_derivative,
    geometric_to_linear,
    is_monotone,
    linear_to_geometric,
    mgf,
    mgf_derivative,
    validate_triplet,
    zero_measure,
)
from levy_emm.errors import (
    JumpBelowMinusOne,
    NegativeVariance,
    NonIntegrableLevyMeasure,
    PsiUndefined,
    ValidationError,
)

KAPPAS = (-1.5, -0.3, 0.0, 0.4, 2.0)


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
        vt = validate_triplet(kou)
        lam = 1.5
        sjv, _ = integrate.quad(lambda x: x * x * float(_kou_pdf(x)), -1.0, 1.0,
                                points=[0.0], limit=200)
        left, _ = integrate.quad(lambda x: float(_kou_pdf(x)), -np.inf, -1.0)
        right, _ = integrate.quad(lambda x: float(_kou_pdf(x)), 1.0, np.inf)
        assert math.isclose(vt.small_jump_variation, lam * sjv, rel_tol=1e-9)
        assert math.isclose(vt.large_jump_mass, lam * (left + right), rel_tol=1e-9)

    def test_as_validated_is_idempotent(self, kou):
        vt = validate_triplet(kou)
        assert as_validated(vt) is vt
        assert isinstance(as_validated(kou), ValidatedTriplet)

    def test_infinite_small_jump_variation_rejected(self):
        # density |x|^{-3.5} e^{-|x|}: x^2 nu is |x|^{-1.5} near zero
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return ax ** -3.5 * np.exp(-ax)

        nu = GenericDensity(dens, right=TailDecay.exponential(1.0, power=-3.5),
                            left=TailDecay.exponential(1.0, power=-3.5),
                            symmetric=True)
        with pytest.raises(NonIntegrableLevyMeasure):
            validate_triplet(LevyTriplet(0.0, 0.0, nu))

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
            assert c.is_finite
            assert math.isclose(c.value, 0.05 * k + 0.045 * k * k,
                                rel_tol=1e-14, abs_tol=1e-15)

    def test_cumulant_at_zero_is_exactly_zero(self, brownian):
        assert cumulant(brownian, 0.0).value == 0.0

    def test_derivative_closed_form(self, brownian):
        for k in KAPPAS:
            m = cumulant_derivative(brownian, k)
            assert math.isclose(m.value, 0.05 + 0.09 * k, rel_tol=1e-14)

    def test_mgf_and_derivative(self, brownian):
        T = 2.5
        for k in KAPPAS:
            c = 0.05 * k + 0.045 * k * k
            m = 0.05 + 0.09 * k
            assert math.isclose(mgf(brownian, T, k).value,
                                math.exp(T * c), rel_tol=1e-13)
            assert math.isclose(mgf_derivative(brownian, T, k).value,
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
            assert math.isclose(cumulant(two_atom, k).value, want,
                                rel_tol=1e-13, abs_tol=1e-15)

    def test_symmetric_atoms_derivative(self, two_atom):
        for k in KAPPAS:
            want = 0.1 + math.sinh(0.5 * k)
            assert math.isclose(cumulant_derivative(two_atom, k).value, want,
                                rel_tol=1e-13)

    def test_large_atom_is_uncompensated(self):
        t = LevyTriplet(0.0, 0.0, FiniteAtomic(((2.0, 0.3),)))
        for k in KAPPAS:
            assert math.isclose(cumulant(t, k).value, 0.3 * math.expm1(2.0 * k),
                                rel_tol=1e-13, abs_tol=1e-15)
            assert math.isclose(cumulant_derivative(t, k).value,
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
            assert math.isclose(cumulant(t, k).value, oracle(k),
                                rel_tol=1e-12, abs_tol=1e-15)


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
            assert math.isclose(cumulant(kou, k).value, want, rel_tol=1e-9)

    def test_kou_derivative(self, kou):
        tm = _truncated_mean(_kou_pdf)
        for k in self.KOU_GRID:
            want = 0.03 + 0.02 * k + 1.5 * (self._kou_jump_mgf_prime(k) - tm)
            assert math.isclose(cumulant_derivative(kou, k).value, want,
                                rel_tol=1e-9)

    def test_merton_cumulant_and_derivative(self, merton):
        tm = _truncated_mean(_merton_pdf)
        for k in (-3.0, -0.5, 1.2, 4.0):
            jump_mgf = math.exp(-0.1 * k + 0.02 * k * k)
            c_want = 0.02 * k + 0.02 * k * k + (jump_mgf - 1.0) - k * tm
            m_want = 0.02 + 0.04 * k + ((-0.1 + 0.04 * k) * jump_mgf - tm)
            assert math.isclose(cumulant(merton, k).value, c_want, rel_tol=1e-9)
            assert math.isclose(cumulant_derivative(merton, k).value, m_want,
                                rel_tol=1e-9)

    def test_mgf_identities(self, kou):
        T = 0.8
        for k in self.KOU_GRID:
            phi = mgf(kou, T, k).value
            m = cumulant_derivative(kou, k).value
            assert math.isclose(mgf_derivative(kou, T, k).value, phi * T * m,
                                rel_tol=1e-10)
            assert math.isclose(mgf(kou, 2 * T, k).value, phi * phi,
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
            assert math.isclose(cumulant(vg, k).value, want, rel_tol=1e-9)

    def test_derivative(self, vg):
        tm = self._truncation_term()
        for k in self.GRID:
            want = (0.01 + self.C * (1.0 / (self.M - k) - 1.0 / (self.G + k))
                    - tm)
            assert math.isclose(cumulant_derivative(vg, k).value, want,
                                rel_tol=1e-9)

    def test_boundary_blows_up(self, vg):
        assert cumulant(vg, 9.0).is_pos_inf
        assert cumulant(vg, -6.0).is_pos_inf
        assert cumulant(vg, 12.0).is_pos_inf
        assert mgf(vg, 1.0, 9.0).is_pos_inf
        assert mgf_derivative(vg, 1.0, 9.0).is_pos_inf
        assert mgf_derivative(vg, 1.0, -6.0).is_neg_inf


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
            assert math.isclose(cumulant(cgmy_y05, k).value, want, rel_tol=5e-9)

    def test_cumulant_y15(self, cgmy_y15):
        for k in (-4.0, -1.5, 2.0, 4.5):
            want = _cgmy_cumulant_oracle(0.0, 0.0, 1.0, 5.0, 5.0, 1.5, k)
            assert math.isclose(cumulant(cgmy_y15, k).value, want, rel_tol=5e-9)

    def test_y05_endpoint_cumulant_finite_mean_infinite(self, cgmy_y05):
        # at kappa = M the tilted tail is x^{-1.5}: mass converges, the
        # first moment does not
        c = cumulant(cgmy_y05, 7.0)
        assert c.is_finite
        want = _cgmy_cumulant_oracle(0.0, 0.0, 0.5, 4.0, 7.0, 0.5, 7.0)
        assert math.isclose(c.value, want, rel_tol=5e-9)
        assert cumulant_derivative(cgmy_y05, 7.0).is_pos_inf
        assert mgf_derivative(cgmy_y05, 1.0, 7.0).is_pos_inf

    def test_y15_endpoint_mean_finite(self, cgmy_y15):
        # tilted tail x^{-2.5}: both the mass and the first moment converge
        m = cumulant_derivative(cgmy_y15, 5.0)
        assert m.is_finite
        want = _cgmy_mean_oracle(0.0, 0.0, 1.0, 5.0, 5.0, 1.5, 5.0)
        assert math.isclose(m.value, want, rel_tol=5e-9)

    def test_derivative_against_oracle(self, cgmy_y05, cgmy_y15):
        for t, params in ((cgmy_y05, (0.5, 4.0, 7.0, 0.5)),
                          (cgmy_y15, (1.0, 5.0, 5.0, 1.5))):
            for k in (-2.0, 0.0, 1.5):
                want = _cgmy_mean_oracle(0.0, 0.0, *params, k)
                assert math.isclose(cumulant_derivative(t, k).value, want,
                                    rel_tol=5e-9, abs_tol=1e-12)


class TestStableEdges:
    def test_no_exponential_moments(self, stable08, stable15):
        for t in (stable08, stable15):
            assert cumulant(t, 0.0).value == 0.0
            for k in (-0.5, 0.01, 1.0):
                assert cumulant(t, k).is_pos_inf
                assert mgf(t, 1.0, k).is_pos_inf

    def test_mean_undefined_below_alpha_one(self, stable08):
        assert cumulant_derivative(stable08, 0.0).is_undefined
        with pytest.raises(PsiUndefined):
            mgf_derivative(stable08, 1.0, 0.0)

    def test_mean_zero_above_alpha_one(self, stable15):
        m = cumulant_derivative(stable15, 0.0)
        assert m.value == 0.0
        psi = mgf_derivative(stable15, 1.0, 0.0)
        assert psi.value == 0.0


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
                            left=TailDecay.bounded(1.0), symmetric=False,
                            positive_jumps=True, negative_jumps=False)
        fv, _ = integrate.quad(lambda s: s ** -0.5 * math.exp(-s), 0.0, 1.0)
        assert is_monotone(LevyTriplet(fv + 0.01, 0.0, nu)) is Monotonicity.INCREASING
        assert is_monotone(LevyTriplet(fv - 0.01, 0.0, nu)) is Monotonicity.NOT_MONOTONE

    def test_one_sided_infinite_variation_density(self):
        def dens(x):
            x = np.asarray(x, dtype=float)
            ax = np.where(x != 0.0, np.abs(x), 1.0)
            return np.where(x > 0, ax ** -2.2 * np.exp(-ax), 0.0)

        nu = GenericDensity(dens, right=TailDecay.exponential(1.0, power=-2.2),
                            left=TailDecay.bounded(1.0), symmetric=False,
                            positive_jumps=True, negative_jumps=False)
        assert is_monotone(LevyTriplet(10.0, 0.0, nu)) is Monotonicity.NOT_MONOTONE


class TestConversions:
    def test_brownian_round_trip(self, brownian):
        lin = geometric_to_linear(brownian)
        assert lin.nu.is_zero
        assert math.isclose(lin.b, 0.05 + 0.5 * 0.09, rel_tol=1e-15)
        assert lin.sigma2 == brownian.sigma2
        back = linear_to_geometric(lin)
        assert math.isclose(back.b, brownian.b, rel_tol=1e-14)
        assert back.nu.is_zero

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


class TestSettingsPropagation:
    def test_loose_settings_still_close(self, kou):
        q = QuadratureSettings(abs_tol=1e-9, rel_tol=1e-8)
        tm = _truncated_mean(_kou_pdf)
        k = 1.3
        want = (0.03 * k + 0.01 * k * k
                + 1.5 * (TestJumpDiffusion._kou_jump_mgf(k) - 1.0) - k * 1.5 * tm)
        assert math.isclose(cumulant(kou, k, q).value, want, rel_tol=1e-6)
