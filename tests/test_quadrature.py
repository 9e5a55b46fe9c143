"""Integration against jump measures: closed forms, exact symmetry,
divergence classification, and the cancellation-safe primitives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import exp1

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyTriplet,
    PenaltyFamily,
    QuadratureSettings,
    SymmetricAlphaStable,
    VarianceGamma,
    cumulant,
    levy_integral,
    perturbed_triplet,
    small_jump_variation,
    tail_mass,
)
from levy_emm.levy_core.extreal import POS_INF, UNDEFINED
from levy_emm.levy_core.quadrature import exp_entropy_term, expm1_minus_x


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(zero_window=2.0)  # >= inner_cut
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=3)

    def test_frozen_and_hashable(self):
        assert hash(QuadratureSettings()) == hash(QuadratureSettings())


class TestSafePrimitives:
    """The two series-windowed integrand pieces vs 50-digit arithmetic."""

    @pytest.mark.parametrize("u", [1e-12, 1e-8, 1e-6, 1e-4, 0.01, 1.0, -1e-9,
                                   -1e-5, -0.5, 30.0])
    def test_expm1_minus_x(self, u):
        with mpmath.workdps(50):
            exact = float(mpmath.expm1(u) - mpmath.mpf(u))
        got = float(expm1_minus_x(np.array(u)))
        assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("u", [1e-12, 1e-8, 1e-6, 1e-4, 0.01, 1.0, -1e-9,
                                   -1e-5, -0.5, 30.0])
    def test_exp_entropy_term(self, u):
        with mpmath.workdps(50):
            um = mpmath.mpf(u)
            exact = float(mpmath.exp(um) * (um - 1) + 1)
        got = float(exp_entropy_term(np.array(u)))
        assert got == pytest.approx(exact, rel=1e-13)

    def test_exp_entropy_term_nonnegative(self):
        u = np.linspace(-40, 40, 2001)
        assert np.all(exp_entropy_term(u) >= 0.0)


class TestMassFunctionals:
    def test_atom_sums_exact(self):
        nu = FiniteAtomic(((0.5, 2.0), (-2.0, 3.0), (1.5, 1.0)))
        assert small_jump_variation(nu) == 2.0 * 0.25
        assert tail_mass(nu) == 4.0

    def test_stable_closed_forms(self):
        alpha, scale = 0.8, 1.0
        nu = SymmetricAlphaStable(alpha=alpha, scale=scale)
        assert tail_mass(nu) == pytest.approx(2.0 * scale / alpha, rel=1e-10)
        assert small_jump_variation(nu) == pytest.approx(
            2.0 * scale / (2.0 - alpha), rel=1e-10)

    def test_vg_closed_forms(self):
        C, G, M = 1.0, 6.0, 9.0
        nu = VarianceGamma(C=C, G=G, M=M)
        assert tail_mass(nu) == pytest.approx(
            C * (exp1(M) + exp1(G)), rel=1e-10)

        def side_var(rate):
            # int_0^1 x e^{-rate x} dx
            return (1.0 - (1.0 + rate) * math.exp(-rate)) / rate ** 2

        assert small_jump_variation(nu) == pytest.approx(
            C * (side_var(M) + side_var(G)), rel=1e-10)

    def test_cgmy_tail_mass_vs_mpmath(self):
        C, G, M, Y = 0.5, 4.0, 7.0, 0.8
        nu = CGMY(C=C, G=G, M=M, Y=Y)
        with mpmath.workdps(40):
            right = C * mpmath.quad(
                lambda s: mpmath.exp(-M * s) * s ** (-1 - Y), [1, mpmath.inf])
            left = C * mpmath.quad(
                lambda s: mpmath.exp(-G * s) * s ** (-1 - Y), [1, mpmath.inf])
            exact = float(right + left)
        assert tail_mass(nu) == pytest.approx(exact, rel=1e-9)


def _half_stable():
    """One-sided density ``x^{-3/2}/2`` on (0, inf): unit tail mass, finite
    quadratic variation, infinite total mass."""
    from levy_emm import GenericDensity, TailDecay

    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x != 0.0, np.abs(x), 1.0)
        return np.where(x > 0, 0.5 * ax ** -1.5, 0.0)

    return GenericDensity(dens, right=TailDecay.polynomial(-1.5),
                          left=TailDecay.bounded(1.0), symmetric=False,
                          positive_jumps=True, negative_jumps=False)


class TestLevyIntegral:
    def test_atoms_exact(self):
        nu = FiniteAtomic(((1.0, 2.0), (-3.0, 0.5)))
        got = levy_integral(nu, lambda x: x * x)
        assert got.value == 2.0 * 1.0 + 0.5 * 9.0

    def test_symmetric_odd_integrand_is_exactly_zero(self):
        nu = SymmetricAlphaStable(alpha=1.5)
        got = levy_integral(nu, lambda x: np.where(np.abs(x) <= 1.0, x, 0.0),
                            kind="small_jump_compensated")
        assert got.is_finite and got.value == 0.0

    def test_divergent_integral_classified_positive(self):
        # |x| against a 0.8-stable: both tails diverge upward
        nu = SymmetricAlphaStable(alpha=0.8)
        got = levy_integral(nu, lambda x: np.abs(x))
        assert got is POS_INF

    def test_opposite_divergences_are_undefined(self):
        nu = SymmetricAlphaStable(alpha=0.8)
        got = levy_integral(nu, lambda x: x)
        assert got is UNDEFINED

    def test_slowly_decaying_convergent_tail(self):
        # one-sided density x^{-3/2}/2: the probe must hand this to QAGI
        # (64 doubling panels cannot reach tolerance on a 1/sqrt remainder)
        nu = _half_stable()
        assert tail_mass(nu) == pytest.approx(1.0, rel=1e-10)
        got = levy_integral(nu, lambda x: np.where(np.abs(x) > 1.0, 1.0, 0.0))
        assert got.value == pytest.approx(1.0, rel=1e-9)

    def test_origin_divergence_classified(self):
        # total mass of the same density diverges at the origin
        nu = _half_stable()
        got = levy_integral(nu, lambda x: np.ones_like(np.asarray(x)))
        assert got.is_pos_inf

    def test_vg_frullani(self):
        # int (e^{kx} - 1) nu(dx) = C ln(M/(M-k)) + C ln(G/(G+k))
        C, G, M, k = 1.0, 6.0, 9.0, 2.5
        nu = VarianceGamma(C=C, G=G, M=M)
        got = levy_integral(nu, lambda x: np.expm1(k * x))
        exact = C * math.log(M / (M - k)) + C * math.log(G / (G + k))
        assert got.value == pytest.approx(exact, rel=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            levy_integral(zero := FiniteAtomic(()), lambda x: x, kind="bad")
        assert zero.is_zero


def _cumulant_integrand(kappa):
    """``g_κ``: ``e^{κx} - 1 - κx`` on the unit ball, ``e^{κx} - 1`` beyond,
    so that ``∫ g_κ dν`` is ``c(κ)`` of the driftless pure-jump triplet."""

    def g(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(np.abs(x) <= 1.0, expm1_minus_x(kappa * x),
                            np.expm1(kappa * x))

    return g


def _generic_and_fast(nu, kappa):
    generic = levy_integral(nu, _cumulant_integrand(kappa),
                            kind="small_jump_compensated")
    return generic, cumulant(LevyTriplet(0.0, 0.0, nu), kappa)


_TEMPERED_STABLE = perturbed_triplet(
    LevyTriplet(0.0, 0.0, SymmetricAlphaStable(alpha=0.8)),
    PenaltyFamily.default_quadratic(), 2).nu

# measure, then the tilts drawn inside I = (lo_I, hi_I): up to 0.9 of the
# way to an exponential tail's rate, where both factors of g_κ ν still
# fit in a double (see test_known_limits_of_the_generic_path)
_INSIDE = {
    "merton": (JumpDiffusion(1.0, GaussianJumps(-0.1, 0.3)), -50.0, 50.0),
    "variance_gamma": (VarianceGamma(C=1.0, G=6.0, M=9.0), -5.4, 8.1),
    "kou": (JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)),
            -5.4, 7.2),
    "cgmy_y05": (CGMY(C=0.5, G=4.0, M=7.0, Y=0.5), -3.6, 6.3),
    "cgmy_y1": (CGMY(C=1.0, G=5.0, M=5.0, Y=1.0), -4.5, 4.5),
    "tempered_stable": (_TEMPERED_STABLE, -15.0, 15.0),
}
# measures with a bounded I, and its ends
_OUTSIDE = {
    "variance_gamma": (_INSIDE["variance_gamma"][0], -6.0, 9.0),
    "kou": (_INSIDE["kou"][0], -6.0, 8.0),
    "cgmy_y05": (_INSIDE["cgmy_y05"][0], -4.0, 7.0),
    "cgmy_y1": (_INSIDE["cgmy_y1"][0], -5.0, 5.0),
}


class TestGenericPathAgreesWithCumulant:
    """``levy_integral`` (no tail hints) against ``cumulant`` (hinted
    tails, tilted log-densities) on the cumulant integrand ``g_κ``."""

    @pytest.mark.parametrize("name", sorted(_INSIDE))
    @settings(max_examples=12, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_inside_I(self, name, u):
        nu, lo, hi = _INSIDE[name]
        kappa = lo + (hi - lo) * u
        generic, fast = _generic_and_fast(nu, kappa)
        assert generic.is_finite and fast.is_finite, (kappa, generic, fast)
        assert math.isclose(generic.value, fast.value, rel_tol=1e-9,
                            abs_tol=1e-300), kappa

    @pytest.mark.parametrize("name", sorted(_OUTSIDE))
    @settings(max_examples=6, deadline=None)
    @given(beyond=st.floats(0.5, 20.0), right=st.booleans())
    def test_outside_I(self, name, beyond, right):
        nu, a, b = _OUTSIDE[name]
        kappa = b + beyond if right else a - beyond
        generic, fast = _generic_and_fast(nu, kappa)
        assert generic.is_pos_inf and fast.is_pos_inf, (kappa, generic, fast)

    @pytest.mark.parametrize("nu,kappa", [
        (JumpDiffusion(1.0, GaussianJumps(-0.1, 0.3)), 4.0),
        (VarianceGamma(C=1.0, G=6.0, M=9.0), 4.0),
        (JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)), 4.0),
        (_TEMPERED_STABLE, 4.0),
    ], ids=["merton", "variance_gamma", "kou", "tempered_stable"])
    def test_overflow_where_the_density_underflows(self, nu, kappa):
        # e^{κx} overflows on the probe panel [128, 256] where the density
        # is already 0; the product there is 0, not a divergence
        generic, fast = _generic_and_fast(nu, kappa)
        assert generic.is_finite
        assert math.isclose(generic.value, fast.value, rel_tol=1e-9)

    @pytest.mark.xfail(strict=True, reason="known limit of the unhinted path")
    @pytest.mark.parametrize("nu,kappa", [
        # e^{κx} overflows while e^{-Mx} is still a positive subnormal
        (VarianceGamma(C=1.0, G=6.0, M=9.0), 8.91),
        (CGMY(C=0.5, G=4.0, M=7.0, Y=0.5), 7.0),  # closed end of I
        # the tilted bump peaks beyond the probe's four growing panels
        (_TEMPERED_STABLE, 17.5),
    ], ids=["vg_near_open_end", "cgmy_closed_end", "tempered_far_bump"])
    def test_known_limits_of_the_generic_path(self, nu, kappa):
        generic, fast = _generic_and_fast(nu, kappa)
        assert generic.is_finite and fast.is_finite
