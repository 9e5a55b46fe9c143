"""Integration against jump measures: closed forms, exact symmetry,
divergence classification, image measures against x-space oracles, and
the cancellation-safe primitives."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import exp1

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    ExpJumpImage,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyTriplet,
    LogJumpImage,
    PenaltyFamily,
    QuadratureSettings,
    SymmetricAlphaStable,
    VarianceGamma,
    cumulant,
    cumulant_derivative,
    perturbed_triplet,
    small_jump_variation,
    tail_mass,
)
from levy_emm.levy_core.extreal import POS_INF, UNDEFINED
from levy_emm.levy_core.quadrature import (DEFAULT_SETTINGS, SidePlan,
                                           exp_entropy_term, expm1_minus_x,
                                           one_sided_integral,
                                           two_sided_integral)


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)

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
    """Integrals against a Levy measure through the public functionals:
    exact atom sums, exact zeros from the symmetric fold, divergence signs,
    slowly decaying tails and non-integrable origins."""

    def test_atoms_exact(self):
        nu = FiniteAtomic(((1.0, 2.0), (-3.0, 0.5)))
        assert small_jump_variation(nu) == 2.0
        assert tail_mass(nu) == 0.5
        # inside the cut x e^{0x} - h(x) vanishes; beyond it only -3 * 0.5
        assert cumulant_derivative(LevyTriplet(0.0, 0.0, nu), 0.0).value == -1.5

    def test_symmetric_odd_integrand_is_exactly_zero(self):
        nu = SymmetricAlphaStable(alpha=1.5)
        got = cumulant_derivative(LevyTriplet(0.0, 0.0, nu), 0.0)
        assert got.is_finite and got.value == 0.0

    def test_divergent_integral_classified_positive(self):
        # e^{κx} - 1 against a 0.8-stable: the tail diverges upward on
        # whichever side the tilt points
        nu = SymmetricAlphaStable(alpha=0.8)
        for kappa in (-0.5, 0.5):
            assert cumulant(LevyTriplet(0.0, 0.0, nu), kappa) is POS_INF

    def test_opposite_divergences_are_undefined(self):
        nu = SymmetricAlphaStable(alpha=0.8)
        got = cumulant_derivative(LevyTriplet(0.0, 0.0, nu), 0.0)
        assert got is UNDEFINED

    def test_slowly_decaying_convergent_tail(self):
        # one-sided density x^{-3/2}/2: a 1/sqrt remainder, which QAGI
        # integrates once the hint has ruled out divergence
        nu = _half_stable()
        assert tail_mass(nu) == pytest.approx(1.0, rel=1e-10)
        kappa = -0.5
        with mpmath.workdps(30):
            def g(x):
                return (mpmath.expm1(kappa * x) - (kappa * x if x <= 1 else 0)
                        ) * 0.5 * x ** -1.5
            exact = float(mpmath.quad(g, [0, 1, mpmath.inf]))
        got = cumulant(LevyTriplet(0.0, 0.0, nu), kappa)
        assert got.value == pytest.approx(exact, rel=1e-9)

    def test_origin_divergence_classified(self):
        # total mass of the same density diverges at the origin
        nu = _half_stable()
        assert one_sided_integral(nu, +1, 0, 0.0, 1.0) == math.inf

    def test_vg_frullani(self):
        # with b = ∫_{|x|<=1} x ν(dx), c(k) = ∫ (e^{kx} - 1) ν(dx)
        # = C ln(M/(M-k)) + C ln(G/(G+k))
        C, G, M, k = 1.0, 6.0, 9.0, 2.5
        nu = VarianceGamma(C=C, G=G, M=M)
        b = C * (-math.expm1(-M) / M + math.expm1(-G) / G)
        got = cumulant(LevyTriplet(b, 0.0, nu), k)
        exact = C * math.log(M / (M - k)) + C * math.log(G / (G + k))
        assert got.value == pytest.approx(exact, rel=1e-10)


def _series_expm1_minus_x(z):
    """``e^z - 1 - z``, by its Taylor series where the difference cancels."""
    if abs(z) < 1e-3:
        return z * z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z / 120.0)))
    return math.expm1(z) - z


def _x_quad(f, pieces):
    """``∫ f`` over consecutive ``pieces``, each a pair of ends; a piece
    with an end at 0 is integrated in ``x = ±u^2`` so that the origin
    singularity of an infinite-activity density is smoothed away."""
    total = 0.0
    for a, b in pieces:
        if a == 0.0 or b == 0.0:
            sgn = 1.0 if a == 0.0 else -1.0
            end = math.sqrt(abs(b if a == 0.0 else a))
            val, _ = integrate.quad(lambda u: 2.0 * u * f(sgn * u * u), 0.0,
                                    end, epsabs=1e-15, epsrel=1e-13,
                                    limit=400)
        else:
            val, _ = integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13,
                                    limit=400)
        total += val
    return total


def _density_at(nu):
    def dens(x):
        with np.errstate(all="ignore"):
            return float(np.exp(nu.log_density(np.asarray(x, dtype=float))))
    return dens


def _cumulant_oracle(nu, kappa):
    """``c(κ)`` of the driftless pure-jump triplet by x-space quadrature."""
    d = _density_at(nu)

    def f(x):
        if abs(x) <= 1.0:
            return _series_expm1_minus_x(kappa * x) * d(x)
        if kappa * x < 700.0:
            return math.expm1(kappa * x) * d(x)
        with np.errstate(all="ignore"):  # e^{κx} overflows, ν(x) underflows
            lv = float(nu.log_density(np.asarray(x, dtype=float)))
        return math.exp(kappa * x + lv) - math.exp(lv)

    return _x_quad(f, ((-math.inf, -1.0), (-1.0, 0.0), (0.0, 1.0),
                       (1.0, math.inf)))


_TEMPERED_STABLE = perturbed_triplet(
    LevyTriplet(0.0, 0.0, SymmetricAlphaStable(alpha=0.8)),
    PenaltyFamily.default_quadratic(), 2).nu

# measure, then the tilts drawn inside I = (lo_I, hi_I): up to 0.9 of the
# way to an exponential tail's rate
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
    """``cumulant`` (hinted tails, tilted log-densities, series window)
    against a generic x-space quadrature of ``(e^{κx} - 1 - κh(x)) ν(x)``
    written here."""

    @pytest.mark.parametrize("name", sorted(_INSIDE))
    @settings(max_examples=12, deadline=None)
    @given(u=st.floats(0.0, 1.0))
    def test_inside_I(self, name, u):
        nu, lo, hi = _INSIDE[name]
        kappa = lo + (hi - lo) * u
        fast = cumulant(LevyTriplet(0.0, 0.0, nu), kappa)
        assert fast.is_finite, kappa
        # abs_tol is the kernel's: near κ = 0, c(κ) = O(κ^2) while the
        # tails' e^{κx} - 1 is a difference that keeps its absolute error
        assert math.isclose(fast.value, _cumulant_oracle(nu, kappa),
                            rel_tol=1e-9, abs_tol=1e-12), kappa

    @pytest.mark.parametrize("name", sorted(_OUTSIDE))
    @settings(max_examples=6, deadline=None)
    @given(beyond=st.floats(0.5, 20.0), right=st.booleans())
    def test_outside_I(self, name, beyond, right):
        nu, a, b = _OUTSIDE[name]
        kappa = b + beyond if right else a - beyond
        assert cumulant(LevyTriplet(0.0, 0.0, nu), kappa) is POS_INF, kappa

    @pytest.mark.parametrize("nu,kappa", [
        (JumpDiffusion(1.0, GaussianJumps(-0.1, 0.3)), 4.0),
        (VarianceGamma(C=1.0, G=6.0, M=9.0), 4.0),
        (JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)), 4.0),
        (_TEMPERED_STABLE, 4.0),
    ], ids=["merton", "variance_gamma", "kou", "tempered_stable"])
    def test_overflow_where_the_density_underflows(self, nu, kappa):
        # e^{κx} overflows far out where the density is already 0; the
        # product there is 0, not a divergence
        fast = cumulant(LevyTriplet(0.0, 0.0, nu), kappa)
        assert fast.is_finite
        assert math.isclose(fast.value, _cumulant_oracle(nu, kappa),
                            rel_tol=1e-9)


def _stable_inner_series(alpha, kappa, first):
    """``Σ_{j>=first} κ^j / (j! (j + 2 - first - α))`` at 30 digits: the
    integral over ``(0, 1]`` of ``(e^{κx} - 1 - κx) x^{-1-α}``
    (``first = 2``) or of ``x (e^{κx} - 1) x^{-1-α}`` (``first = 1``)."""
    with mpmath.workdps(30):
        k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
        # |κ| <= 3, so terms past j = 60 are below 1e-50
        return mpmath.fsum(k ** j / (mpmath.factorial(j) * (j + 2 - first - a))
                           for j in range(first, 60))


def _cgmy_oracle(C, G, M, Y, kappa):
    """``(c(κ), c'(κ))`` of the driftless CGMY triplet at 30 digits.

    On one side with rate ``r`` and tilt ``k``, the inner integrals over
    ``(0, 1]`` are power series from ``e^{-rs} = Σ (-rs)^j/j!``, and the
    tails over ``(1, inf)`` are upper incomplete gamma functions."""
    with mpmath.workdps(30):
        C, Y, k = mpmath.mpf(C), mpmath.mpf(Y), mpmath.mpf(kappa)

        def side(r, k):
            r, a = mpmath.mpf(r), mpmath.mpf(r) - k
            # |a|, r < 10, so terms past j = 90 are below 1e-40
            c = mpmath.fsum((a ** j - r ** j + j * k * r ** (j - 1))
                            * (-1) ** j / (mpmath.factorial(j) * (j - Y))
                            for j in range(2, 90))
            cp = mpmath.fsum((a ** j - r ** j) * (-1) ** j
                             / (mpmath.factorial(j) * (j + 1 - Y))
                             for j in range(1, 90))
            c += (a ** Y * mpmath.gammainc(-Y, a)
                  - r ** Y * mpmath.gammainc(-Y, r))
            cp += a ** (Y - 1) * mpmath.gammainc(1 - Y, a)
            return C * c, C * cp

        c_right, cp_right = side(M, k)
        c_left, cp_left = side(G, -k)
        return float(c_right + c_left), float(cp_right - cp_left)


def _one_sided_power(alpha, rate):
    """One-sided density ``x^{-1-α} e^{-rate x}`` on (0, inf)."""
    from levy_emm import GenericDensity, TailDecay

    def dens(x):
        x = np.asarray(x, dtype=float)
        ax = np.where(x > 0, x, 1.0)
        return np.where(x > 0, ax ** (-1.0 - alpha) * np.exp(-rate * ax), 0.0)

    right = (TailDecay.exponential(rate, -1.0 - alpha) if rate
             else TailDecay.polynomial(-1.0 - alpha))
    return GenericDensity(dens, right=right, left=TailDecay.bounded(1.0),
                          positive_jumps=True, negative_jumps=False)


class TestInfiniteVariationOrigin:
    """Integrals from the origin are summed over halving panels down to 0;
    checked against oracles that share no code with the kernel."""

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.1, 1.5, 1.7, 1.9, 1.99])
    def test_stable_inner_integrals_match_the_series(self, alpha):
        # mpmath.quad itself is off by about 2e-4 at α >= 1.9, the series
        # is exact
        nu = SymmetricAlphaStable(alpha=alpha)
        none = SidePlan(None, True)
        for kappa in np.linspace(-3.0, 3.0, 13):
            c_in, _ = two_sided_integral(
                nu, DEFAULT_SETTINGS, right=none, left=none,
                inner_g=lambda x, nu, log_nu: expm1_minus_x(kappa * x) * nu)
            cp_in, _ = two_sided_integral(
                nu, DEFAULT_SETTINGS, right=none, left=none,
                inner_g=lambda x, nu, log_nu: x * np.expm1(kappa * x) * nu)
            # the left side is the right side at -κ, with x -> -x
            want_c = float(_stable_inner_series(alpha, kappa, 2)
                           + _stable_inner_series(alpha, -kappa, 2))
            want_cp = float(_stable_inner_series(alpha, kappa, 1)
                            - _stable_inner_series(alpha, -kappa, 1))
            assert math.isclose(c_in.value, want_c, rel_tol=1e-12), (
                kappa, c_in, want_c)
            assert math.isclose(cp_in.value, want_cp, rel_tol=1e-12), (
                kappa, cp_in, want_cp)

    def test_cgmy_above_one_matches_mpmath(self):
        # Y > 1: the inner integrand is a power law x^{1-Y} over the eight
        # decades of [zw, 1], and |c'| is far from 0 across I = (-G, M)
        C, G, M, Y = 0.4357, 4.9045, 4.5985, 1.3593
        lin = LevyTriplet(0.0, 0.0, CGMY(C=C, G=G, M=M, Y=Y))
        for kappa in np.linspace(-4.5, 4.4, 48):
            want_c, want_cp = _cgmy_oracle(C, G, M, Y, kappa)
            assert math.isclose(cumulant(lin, kappa).value, want_c,
                                rel_tol=1e-12), kappa
            assert math.isclose(cumulant_derivative(lin, kappa).value,
                                want_cp, rel_tol=1e-12), kappa

    @pytest.mark.parametrize("alpha", [1.5, 1.99, 1.999, 1.9999])
    def test_near_critical_moments_match_mpmath(self, alpha):
        # ∫_0^1 s^2 s^{-1-α} e^{-s} ds = γ(2 - α, 1): each halving panel
        # shrinks by only 2^{α-2}, so the sum rests on its remainder
        got = one_sided_integral(_one_sided_power(alpha, 1.0), +1, 2, 0.0, 1.0)
        with mpmath.workdps(30):
            want = float(mpmath.gammainc(2 - mpmath.mpf(alpha), 0, 1))
        assert math.isclose(got, want, rel_tol=1e-11), (got, want)

    @pytest.mark.parametrize("power, alpha", [(1, 1.0), (1, 1.5), (1, 2.0),
                                              (2, 2.0), (2, 2.0001),
                                              (2, 2.5)])
    def test_divergent_moments_are_infinite(self, power, alpha):
        nu = _one_sided_power(alpha, 1.0)
        assert one_sided_integral(nu, +1, power, 0.0, 1.0) == math.inf

    @pytest.mark.parametrize("alpha", [1.5, 1.9, 1.99])
    def test_one_sided_inner_integral_matches_the_series(self, alpha):
        # an asymmetric measure is not folded: the origin's share of the
        # inner c integral is not helped by cancellation
        nu = _one_sided_power(alpha, 0.0)
        none = SidePlan(None, True)
        for kappa in (-3.0, 3.0):
            got, _ = two_sided_integral(
                nu, DEFAULT_SETTINGS, right=none, left=none,
                inner_g=lambda x, nu, log_nu: expm1_minus_x(kappa * x) * nu)
            want = float(_stable_inner_series(alpha, kappa, 2))
            assert math.isclose(got.value, want, rel_tol=1e-12), (
                kappa, got, want)


_LN2 = math.log(2.0)

# log-jump measures whose price-jump images ExpJumpImage(ν) are checked
_IMAGE_BASES = {
    "kou": JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)),
    "merton": JumpDiffusion(1.0, GaussianJumps(-0.1, 0.3)),
    "variance_gamma": VarianceGamma(C=1.0, G=6.0, M=9.0),
    "cgmy_y06": CGMY(C=0.5, G=4.0, M=7.0, Y=0.6),
    "cgmy_y15": CGMY(C=1.0, G=5.0, M=5.0, Y=1.5),
    "stable_08": SymmetricAlphaStable(alpha=0.8),
}


def _image_oracle(nu, what, kappa=0.0):
    """An integral against ``ExpJumpImage(ν)`` as the x-space integral of
    ``g(e^x - 1)`` against ``ν``; ``|e^x - 1| <= 1`` is ``x <= ln 2``.
    Beyond ``ln 2``, ``y e^{κy} ν`` is assembled in log space, since
    ``y = e^x - 1`` overflows where the product does not."""
    d = _density_at(nu)

    def log_nu(x):
        with np.errstate(all="ignore"):
            return float(nu.log_density(np.asarray(x, dtype=float)))

    def f(x):
        with np.errstate(over="ignore"):
            y = float(np.expm1(x))
        inside = x <= _LN2
        if what == "small_jump_variation":
            return y * y * d(x) if inside else 0.0
        if what == "tail_mass":
            return 0.0 if inside else d(x)
        if what == "c":
            if inside:
                return _series_expm1_minus_x(kappa * y) * d(x)
            return float(np.expm1(kappa * y)) * d(x)
        if inside:
            return y * math.expm1(kappa * y) * d(x)
        expo = x + math.log(-math.expm1(-x)) + log_nu(x)  # log(y ν(x))
        if kappa:
            expo += kappa * y
        return math.exp(expo)

    return _x_quad(f, ((-math.inf, -1.0), (-1.0, 0.0), (0.0, _LN2),
                       (_LN2, 1.0), (1.0, math.inf)))


_IMAGE_REL_TOL = 1e-10


class TestImageMeasures:
    """Integrals against an image measure are integrals against its base
    by pullback; the oracle is an x-space quadrature over the base."""

    @pytest.mark.parametrize("kappa", [-3.0, -1.0, -0.1])
    @pytest.mark.parametrize("name", sorted(_IMAGE_BASES))
    def test_cumulant(self, name, kappa):
        lin = LevyTriplet(0.0, 0.0, ExpJumpImage(_IMAGE_BASES[name]))
        got = cumulant(lin, kappa)
        want = _image_oracle(_IMAGE_BASES[name], "c", kappa)
        assert math.isclose(got.value, want, rel_tol=_IMAGE_REL_TOL), (got, want)

    @pytest.mark.parametrize("kappa", [-3.0, -1.0, -0.1, 0.0])
    @pytest.mark.parametrize("name", sorted(_IMAGE_BASES))
    def test_cumulant_derivative(self, name, kappa):
        base = _IMAGE_BASES[name]
        got = cumulant_derivative(LevyTriplet(0.0, 0.0, ExpJumpImage(base)),
                                  kappa)
        if kappa == 0.0 and name == "stable_08":
            # ∫ y ν_img(dy) needs the base's e^x moment, which a stable
            # law lacks
            assert got is POS_INF
            return
        want = _image_oracle(base, "c_prime", kappa)
        assert math.isclose(got.value, want, rel_tol=_IMAGE_REL_TOL), (got, want)

    @pytest.mark.parametrize("name", sorted(_IMAGE_BASES))
    def test_small_jump_variation_and_tail_mass(self, name):
        base = _IMAGE_BASES[name]
        img = ExpJumpImage(base)
        assert math.isclose(small_jump_variation(img),
                            _image_oracle(base, "small_jump_variation"),
                            rel_tol=1e-10)
        assert math.isclose(tail_mass(img), _image_oracle(base, "tail_mass"),
                            rel_tol=1e-10)

    def test_log_jump_image_against_price_jumps(self):
        # one-sided Kou as price jumps y > 0; its log-jumps x = log(1 + y)
        # leave the inner cut at y = e - 1
        price = JumpDiffusion(1.5, DoubleExponentialJumps(1.0, 3.0, 6.0))
        geo = LogJumpImage(price)
        d = _density_at(price)
        cut = math.e - 1.0

        def oracle(g):
            return _x_quad(lambda y: g(y) * d(y),
                           ((0.0, cut), (cut, math.inf)))

        assert math.isclose(small_jump_variation(geo),
                            oracle(lambda y: math.log1p(y) ** 2 * (y <= cut)),
                            rel_tol=1e-10)
        assert math.isclose(tail_mass(geo), oracle(lambda y: float(y > cut)),
                            rel_tol=1e-10)
        for kappa in (-2.0, 1.5, 4.0):
            want = oracle(lambda y: math.expm1(kappa * math.log1p(y))
                          - (kappa * math.log1p(y) if y <= cut else 0.0))
            got = cumulant(LevyTriplet(0.0, 0.0, geo), kappa)
            assert math.isclose(got.value, want, rel_tol=1e-9), kappa


def _qk21_cases():
    """Integrands for the GK21 differential test: ``(id, f, a, b)``."""
    return [
        ("smooth", lambda x: np.sin(x) + x * x, 0.3, 2.1),
        ("power_left_end", lambda x: (x + 1e-9) ** -0.9, 0.0, 0.5),
        ("exp_decay", lambda x: np.exp(-50.0 * x), 0.0, 1.0),
        ("narrow_bump", lambda x: np.exp(-((x - 0.37) / 0.01) ** 2), 0.0, 1.0),
        ("constant", lambda x: np.full_like(x, 2.5), -1.0, 3.0),
        ("zero", lambda x: np.zeros_like(x), 0.0, 1.0),
    ]


def _batch_cases():
    """Integrands for the batched GK21 test: ``(id, f)``."""
    return [
        ("mixed_sign", lambda x: np.sin(3.0 * x) + 0.2),
        ("zero", lambda x: np.zeros_like(x)),
        ("constant", lambda x: np.full_like(x, -1.5)),
        ("scalar", lambda x: 2.5),
    ]


#: ``_geometric_sum`` cases: ``(id, f, a, b)`` and where the sum stops,
#: one panel per call: panels summed, value, remainder, panels refined
_STOP_CASES = [
    ("power_tail", lambda x: x ** -1.8, 1.0, math.inf,
     (4, 1.25, 0.1360235255150195, 0)),
    ("drifting_tail", lambda x: x ** -1.8 * (1.0 + 1.0 / x), 1.0, math.inf,
     (24, 1.8055555555552514, 2.0755540348638135e-06, 0)),
    ("gauss_tail", lambda x: np.exp(-0.5 * x * x), 1.0, math.inf,
     (4, 0.3976897454233514, 0.0, 0)),
    ("fast_tail", lambda x: np.exp(-10.0 * x * x), 1.0, math.inf,
     (4, 2.1703132536943314e-06, 0.0, 0)),
    ("far_gauss", lambda x: np.exp(-0.5 * (x - 30.0) ** 2), 1.0, math.inf,
     (9, 2.506628274630998, 0.0, 2)),
    ("far_hump", lambda x: np.exp(x - x * x / 256.0 - 1.8 * np.log(x)),
     1.0, math.inf, (10, 2.906337052534001e+25, 0.0, 4)),
    ("origin_power", lambda x: x ** 0.5, 0.0, 1.0,
     (4, 0.6666666666666666, 0.01041666666666663, 0)),
    ("origin_near_critical", lambda x: x ** -0.9999, 0.0, 1.0,
     (4, 9999.999999973084, 9997.227795577735, 0)),
    ("origin_diverges", lambda x: x ** -1.5, 0.0, 1.0,
     (4, math.inf, math.inf, 0)),
    ("origin_diverges_drifting", lambda x: x ** -1.5 * (1.0 + x), 0.0, 1.0,
     (32, math.inf, math.inf, 0)),
]


def _geometric_stop(monkeypatch, f, a, b):
    """``_geometric_sum`` of ``f`` over ``[a, b]``, one panel per call of
    ``f``: ``(panels summed, value, remainder, panels refined)``, where the
    remainder is the value less its summed (and refined) panels."""
    from levy_emm.levy_core import quadrature as quad_mod

    gk21, bisect = quad_mod._gk21, quad_mod._bisect
    scanned, refined, refining = [], {}, []

    def recorded_gk21(g, lo, hi):
        val, err = gk21(g, lo, hi)
        if not refining:
            scanned.append(float(val[0]))
        return val, err

    def recorded_bisect(g, lo, hi, tol):
        refining.append(lo)
        refined[lo] = bisect(g, lo, hi, tol)
        refining.pop()
        return refined[lo]

    monkeypatch.setattr(quad_mod, "_CHUNK", 1)
    monkeypatch.setattr(quad_mod, "_gk21", recorded_gk21)
    monkeypatch.setattr(quad_mod, "_bisect", recorded_bisect)
    value, _ = quad_mod._geometric_sum(f, a, b, DEFAULT_SETTINGS)
    total = 0.0
    for k, piece in enumerate(scanned):
        start = b * 0.5 ** (k + 1) if a == 0.0 else a * 2.0 ** k
        total += refined.get(start, (piece,))[0]
    return len(scanned), value, value - total, len(refined)


class TestVectorisedKernel:
    """The GK21 rule against QUADPACK's own first step, one panel and many
    at once; the geometric sum's stop; power-law tails summed through the
    geometric remainder, a far tail hump against mpmath, and the number of
    density calls one cumulant costs."""

    @pytest.mark.parametrize("f", [c[1] for c in _batch_cases()],
                             ids=[c[0] for c in _batch_cases()])
    def test_gk21_batch_matches_single_panels(self, f):
        """Values to rounding; errors, which read the rounding of ``resk -
        resg``, to the single-panel test's tolerance."""
        from levy_emm.levy_core import quadrature as quad_mod

        a = np.linspace(-2.0, 5.0, 16)
        b = a + np.geomspace(1e-3, 2.0, 16)
        vals, errs = quad_mod._gk21(f, a, b)
        epsabs, epsrel = quad_mod._tolerances(DEFAULT_SETTINGS)
        for lo, hi, val, err in zip(a, b, vals, errs):
            one_val, one_err = quad_mod._gk21(f, np.array([lo]),
                                              np.array([hi]))
            assert val == pytest.approx(one_val[0], rel=1e-15, abs=0.0)
            assert err == pytest.approx(one_err[0], rel=1e-10, abs=0.0)
            assert ((err <= max(epsabs, epsrel * abs(val)))
                    == (one_err[0] <= max(epsabs, epsrel * abs(one_val[0]))))
            ref = integrate.quad(lambda x: float(f(np.asarray(x))), lo, hi,
                                 limit=1, full_output=1)
            assert val == pytest.approx(ref[0], rel=1e-14, abs=0.0)
            assert err == pytest.approx(ref[1], rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("f, a, b, stop", [c[1:] for c in _STOP_CASES],
                             ids=[c[0] for c in _STOP_CASES])
    def test_geometric_sum_stop(self, monkeypatch, f, a, b, stop):
        """Where the panel scan stops, what it adds as the remainder of a
        geometric series and which panels it refines.  The numbers are
        those of the scan that kept its ratios in a list and summed each
        panel in qk21's order.  Values agree to the kernel's ``rel_tol``,
        which the near-critical remainder ``r/(1 - r)`` needs: its ratio is
        ``2^-0.0001``."""
        n, value, remainder, refined = _geometric_stop(monkeypatch, f, a, b)
        want_n, want_value, want_remainder, want_refined = stop
        assert (n, refined) == (want_n, want_refined)
        assert value == pytest.approx(want_value, rel=1e-11, abs=0.0)
        if math.isinf(want_value):
            assert remainder == want_remainder
        else:
            assert remainder == pytest.approx(
                want_remainder, rel=1e-11, abs=1e-14 * abs(want_value))

    @pytest.mark.parametrize("f, a, b", [c[1:] for c in _qk21_cases()],
                             ids=[c[0] for c in _qk21_cases()])
    def test_gk21_matches_quadpack_first_step(self, f, a, b):
        from levy_emm.levy_core import quadrature as quad_mod

        val, err = quad_mod._gk21(f, np.array([a]), np.array([b]))
        ref = integrate.quad(lambda x: float(f(np.asarray(x))), a, b,
                             limit=1, full_output=1)
        assert val[0] == pytest.approx(ref[0], rel=1e-14, abs=0.0)
        assert err[0] == pytest.approx(ref[1], rel=1e-10, abs=0.0)
        epsabs, epsrel = quad_mod._tolerances(DEFAULT_SETTINGS)
        assert ((err[0] <= max(epsabs, epsrel * abs(val[0])))
                == (ref[1] <= max(epsabs, epsrel * abs(ref[0]))))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8, 1.5, 1.9])
    def test_power_law_tails(self, alpha):
        from levy_emm.approximation import mass_gap

        C = 1.7
        nu = SymmetricAlphaStable(alpha, C)
        assert tail_mass(nu) == pytest.approx(2.0 * C / alpha, rel=1e-12)
        if alpha > 1.0:
            assert one_sided_integral(nu, +1, 1, 1.0, math.inf) == \
                pytest.approx(C / (alpha - 1.0), rel=1e-12)
        p = PenaltyFamily.default_quadratic()
        for n in (1, 8, 64):
            with mpmath.workdps(30):
                exact = 2 * C * (1 / mpmath.mpf(alpha) - mpmath.mpf(n) ** (
                    -mpmath.mpf(alpha) / 2) / 2 * mpmath.gammainc(
                        -mpmath.mpf(alpha) / 2, mpmath.mpf(1) / n))
            assert mass_gap(nu, p, n, DEFAULT_SETTINGS) == pytest.approx(
                float(exact), rel=1e-12), n

    @pytest.mark.parametrize("n", [256, 512, 1024, 2048])
    def test_far_tail_hump(self, n):
        """``x e^{x - x^2/n}`` peaks at ``x = n/2`` with width ``√n``: the
        tempered 0.8-stable's ``c'(1)`` lives in that hump."""
        t = perturbed_triplet(LevyTriplet(0.1, 0.0, SymmetricAlphaStable(0.8)),
                              PenaltyFamily.default_quadratic(), n)
        with mpmath.workdps(30):
            h, w = mpmath.mpf(n) / 2, mpmath.sqrt(n)
            # symmetric: c'(1) = b + 2 ∫_0^inf x^{-0.8} e^{-ρ_n(x)} sinh x dx
            odd = lambda x: x ** mpmath.mpf(-0.8) * mpmath.sinh(x)
            inner = mpmath.quad(odd, [0, 1])
            cuts = sorted({mpmath.mpf(1), max(mpmath.mpf(2), h - 10 * w), h,
                           h + 10 * w})
            tail = mpmath.quad(lambda x: odd(x) * mpmath.exp(-x * x / n),
                               cuts + [mpmath.inf])
            exact = float(mpmath.mpf("0.1") + 2 * (inner + tail))
        assert cumulant_derivative(t, 1.0).value == pytest.approx(exact,
                                                                  rel=1e-10)
        assert cumulant_derivative(t, -1.0).value == pytest.approx(-exact,
                                                                   rel=1e-10)

    @pytest.mark.parametrize("mean", [20.0, 30.0, 60.0, 200.0])
    def test_far_jump_mass_is_not_skipped(self, mean):
        """The first doubling panels of a far Gaussian jump law underflow
        but rise: they are not negligible, the mass lies ahead.  Beyond a
        mean of about 47 the first three underflow to exactly 0."""
        nu = JumpDiffusion(1.5, GaussianJumps(mean, 1.0))
        kappa = 0.1
        exact = 1.5 * math.expm1(kappa * mean + 0.5 * kappa * kappa)
        assert cumulant(LevyTriplet(0.0, 0.0, nu), kappa).value == \
            pytest.approx(exact, rel=1e-12)
        assert tail_mass(nu) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("mean, std", [(0.0, 0.003), (-0.05, 0.0015)])
    def test_narrow_jump_law_at_the_origin(self, mean, std):
        """A jump law this narrow underflows to exactly 0 on the first
        halving panels below 1: they are not negligible, the mass lies
        ahead of them, towards the origin."""
        nu = JumpDiffusion(1.0, GaussianJumps(mean, std))
        for kappa in (1.0, -2.0, 5.0):
            exact = (math.expm1(kappa * mean + 0.5 * kappa * kappa * std * std)
                     - kappa * mean)
            assert cumulant(LevyTriplet(0.0, 0.0, nu), kappa).value == \
                pytest.approx(exact, rel=1e-12), kappa
        assert small_jump_variation(nu) == pytest.approx(mean * mean
                                                         + std * std, rel=1e-12)

    @pytest.mark.parametrize("nu, exact", [
        (JumpDiffusion(1.0, GaussianJumps(0.0, 1e6)),
         math.erfc(1.0 / (1e6 * math.sqrt(2.0)))),
        (JumpDiffusion(1.0, DoubleExponentialJumps(0.5, 1e-10, 1e-10)),
         math.exp(-1e-10)),
    ])
    def test_flat_convergent_tail_is_finite(self, nu, exact):
        """Doubling panels of a density that is nearly flat out to 1e6 or
        further have ratios settled near 2; the decay hint, not the
        ratios, decides that such a tail converges."""
        assert tail_mass(nu) == pytest.approx(exact, rel=1e-12)

    def test_inner_overflow_is_infinite(self):
        """``e^{κx}`` overflows on the inner cut of a measure with no
        tails: a signed infinity, not a divergence at the origin."""
        from levy_emm import GenericDensity, TailDecay
        nu = GenericDensity(
            lambda x: np.where(np.abs(np.asarray(x)) <= 1.0, 1.0, 0.0),
            right=TailDecay.bounded(1.0), left=TailDecay.bounded(1.0))
        t = LevyTriplet(0.0, 0.0, nu)
        assert cumulant(t, 5.0).value == pytest.approx(
            2.0 * math.sinh(5.0) / 5.0 - 2.0, rel=1e-12)
        assert cumulant(t, 800.0).is_pos_inf
        assert cumulant(t, -800.0).is_pos_inf
        assert cumulant_derivative(t, 800.0).is_pos_inf
        assert cumulant_derivative(t, -800.0).is_neg_inf

    def test_hump_overflow_is_infinite(self):
        t = perturbed_triplet(LevyTriplet(0.1, 0.0, SymmetricAlphaStable(0.8)),
                              PenaltyFamily.default_quadratic(), 4096)
        assert cumulant_derivative(t, 1.0).is_pos_inf
        assert cumulant_derivative(t, -1.0).is_neg_inf

    def test_density_calls_per_cumulant(self, monkeypatch):
        """Each call of the integrand evaluates whole panels: ``c`` and
        ``c'`` of a tempered CGMY take a few dozen density calls, not one
        per node."""
        t = perturbed_triplet(LevyTriplet(0.01, 0.0, CGMY(0.5, 4.0, 7.0, 0.8)),
                              PenaltyFamily.default_quadratic(), 2)
        cumulant(t, 0.5), cumulant_derivative(t, 0.5)  # warm the caches
        calls = []
        for name in ("density", "log_density"):
            original = getattr(CGMY, name)

            def counted(self, x, original=original):
                calls.append(name)
                return original(self, x)

            monkeypatch.setattr(CGMY, name, counted)
        cumulant(t, 0.5), cumulant_derivative(t, 0.5)
        assert 0 < len(calls) <= 40
