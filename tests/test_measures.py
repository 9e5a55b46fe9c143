"""Jump-measure variants: densities, tail metadata, tilts, validation."""

import math

import numpy as np
import pytest

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    ExpJumpImage,
    ExpTilted,
    FiniteAtomic,
    GaussianJumps,
    GenericDensity,
    JumpDiffusion,
    LevyTriplet,
    LogJumpImage,
    SymmetricAlphaStable,
    TailDecay,
    Tempered,
    VarianceGamma,
    cumulant,
    cumulant_derivative,
    zero_measure,
)
from levy_emm.errors import KappaOutsideI, ValidationError


# ---------------------------------------------------------------------------
# tail decay metadata
# ---------------------------------------------------------------------------


class TestTailDecay:
    def test_tilt_sup(self):
        assert TailDecay.bounded(2.0).tilt_sup() == math.inf
        assert TailDecay.superexp().tilt_sup() == math.inf
        assert TailDecay.exponential(3.0).tilt_sup() == 3.0
        assert TailDecay.polynomial(-2.5).tilt_sup() == 0.0

    def test_exp_moment_finite_below_at_above_rate(self):
        t = TailDecay.exponential(3.0, power=-1.0)
        assert t.moment_finite(0, 2.999)
        # at the rate the polynomial factor decides: s^{-1} diverges,
        # s^{-2.5} converges
        assert not t.moment_finite(0, 3.0)
        assert TailDecay.exponential(3.0, power=-2.5).moment_finite(0, 3.0)
        assert not t.moment_finite(0, 3.001)

    def test_exp_weight_power_shifts_boundary(self):
        # s^1 * s^{-2.5} = s^{-1.5} converges, s^2 * s^{-2.5} does not
        t = TailDecay.exponential(3.0, power=-2.5)
        assert t.moment_finite(1, 3.0)
        assert not t.moment_finite(2, 3.0)

    def test_poly_moments(self):
        t = TailDecay.polynomial(-2.5)
        assert t.moment_finite(0, -0.001)     # any true decay helps
        assert t.moment_finite(0, 0.0)        # s^{-2.5} integrable
        assert t.moment_finite(1, 0.0)        # s^{-1.5} integrable
        assert not t.moment_finite(2, 0.0)    # s^{-0.5} is not
        assert not t.moment_finite(0, 0.001)  # any growth kills it

    def test_bounded_and_superexp_always_finite(self):
        for t in (TailDecay.bounded(1.0), TailDecay.superexp()):
            assert t.moment_finite(5, 1e6)

    def test_tilted_exponential(self):
        t = TailDecay.exponential(3.0, power=-1.0)
        assert t.tilted(1.0) == TailDecay.exponential(2.0, power=-1.0)
        assert t.tilted(3.0) == TailDecay.polynomial(-1.0)
        with pytest.raises(KappaOutsideI):
            t.tilted(3.5)

    def test_tilted_polynomial(self):
        t = TailDecay.polynomial(-2.0)
        assert t.tilted(-1.5) == TailDecay.exponential(1.5, power=-2.0)
        with pytest.raises(KappaOutsideI):
            t.tilted(0.5)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TailDecay("weird")
        with pytest.raises(ValidationError):
            TailDecay.exponential(0.0)

    @pytest.mark.parametrize("kind, fields", [
        ("bounded", {}), ("bounded", {"cutoff": math.nan}),
        ("bounded", {"cutoff": math.inf}), ("superexp", {"cutoff": 2.0}),
        ("exp", {"rate": 1.0, "cutoff": 0.0}), ("poly", {"cutoff": 1.0}),
        ("exp_image", {"base": TailDecay.superexp(), "cutoff": 3.0}),
    ])
    def test_only_a_bounded_tail_has_a_finite_cutoff(self, kind, fields):
        with pytest.raises(ValidationError):
            TailDecay(kind, **fields)

    def test_cutoff_reads_the_kind(self):
        assert TailDecay.bounded(0.0).cutoff == 0.0
        for t in (TailDecay.superexp(), TailDecay.exponential(2.0),
                  TailDecay.polynomial(-2.0),
                  ExpJumpImage(VarianceGamma(1.0, 6.0, 9.0)).side(1)):
            assert t.cutoff == math.inf


# ---------------------------------------------------------------------------
# atomic measures
# ---------------------------------------------------------------------------


class TestFiniteAtomic:
    def test_zero_measure(self):
        nu = zero_measure()
        assert nu.atoms() == ()
        assert nu.total_mass() == 0.0
        assert nu.side(1).cutoff == 0.0 and nu.side(-1).cutoff == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            FiniteAtomic(((0.0, 1.0),))
        with pytest.raises(ValidationError):
            FiniteAtomic(((1.0, 0.0),))
        with pytest.raises(ValidationError):
            FiniteAtomic(((1.0, -2.0),))
        with pytest.raises(ValidationError):
            FiniteAtomic(((math.inf, 1.0),))

    def test_tails_are_bounded_by_extreme_atoms(self):
        nu = FiniteAtomic(((2.0, 1.0), (-0.5, 3.0)))
        assert nu.side(1) == TailDecay.bounded(2.0)
        assert nu.side(-1) == TailDecay.bounded(0.5)

    def test_symmetry_detection(self):
        assert FiniteAtomic(((0.5, 1.0), (-0.5, 1.0))).is_symmetric()
        assert not FiniteAtomic(((0.5, 1.0), (-0.5, 2.0))).is_symmetric()
        assert not FiniteAtomic(((0.5, 1.0),)).is_symmetric()

    def test_tilt_is_exact_reweighting(self):
        nu = FiniteAtomic(((1.0, 2.0), (-1.0, 3.0)))
        tilted = nu.tilted(0.7)
        expect = {1.0: 2.0 * math.exp(0.7), -1.0: 3.0 * math.exp(-0.7)}
        assert dict(tilted.atoms()) == pytest.approx(expect)

    def test_total_mass(self):
        assert FiniteAtomic(((1.0, 2.0), (3.0, 0.5))).total_mass() == 2.5


# ---------------------------------------------------------------------------
# jump diffusions
# ---------------------------------------------------------------------------


class TestJumpDiffusion:
    def test_density_is_intensity_times_pdf(self):
        j = GaussianJumps(-0.1, 0.2)
        nu = JumpDiffusion(1.5, j)
        x = np.array([-0.3, 0.2, 1.0])
        np.testing.assert_allclose(nu.density(x), 1.5 * j.pdf(x), rtol=1e-14)

    def test_gaussian_pdf_and_mgf(self):
        j = GaussianJumps(0.5, 2.0)
        assert float(j.pdf(np.array(0.5))) == pytest.approx(
            1.0 / (2.0 * math.sqrt(2 * math.pi)))
        assert j.mgf(0.3) == pytest.approx(
            math.exp(0.3 * 0.5 + 0.5 * 0.09 * 4.0))

    def test_double_exponential_pdf_normalizes(self):
        from scipy.integrate import quad
        j = DoubleExponentialJumps(0.4, 8.0, 6.0)
        total = (quad(lambda x: float(j.pdf(np.array(x))), -20, 0)[0]
                 + quad(lambda x: float(j.pdf(np.array(x))), 0, 20)[0])
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_double_exponential_mgf_domain(self):
        j = DoubleExponentialJumps(0.4, 8.0, 6.0)
        assert j.mgf(0.0) == pytest.approx(1.0)
        with pytest.raises(KappaOutsideI):
            j.mgf(8.0)
        with pytest.raises(KappaOutsideI):
            j.mgf(-6.0)

    def test_tails(self):
        g = JumpDiffusion(1.0, GaussianJumps(0.0, 1.0))
        assert g.side(1) == TailDecay.superexp()
        k = JumpDiffusion(1.0, DoubleExponentialJumps(0.4, 8.0, 6.0))
        assert k.side(1) == TailDecay.exponential(8.0)
        assert k.side(-1) == TailDecay.exponential(6.0)

    def test_one_sided_double_exponential(self):
        pos_only = JumpDiffusion(1.0, DoubleExponentialJumps(1.0, 2.0, 3.0))
        assert pos_only.side(-1) == TailDecay.bounded(0.0)

    def test_symmetry(self):
        assert JumpDiffusion(1.0, GaussianJumps(0.0, 1.0)).is_symmetric()
        assert not JumpDiffusion(1.0, GaussianJumps(0.1, 1.0)).is_symmetric()
        assert JumpDiffusion(
            1.0, DoubleExponentialJumps(0.5, 4.0, 4.0)).is_symmetric()

    def test_gaussian_tilt_closed_form(self):
        nu = JumpDiffusion(1.0, GaussianJumps(-0.1, 0.2))
        t = nu.tilted(1.3)
        assert isinstance(t, JumpDiffusion)
        assert t.intensity == pytest.approx(nu.jumps.mgf(1.3))
        assert t.jumps.mean == pytest.approx(-0.1 + 1.3 * 0.04)
        assert t.jumps.std == 0.2
        # pointwise: density_tilted(x) = e^{kx} density(x)
        x = np.array([-0.5, 0.3])
        np.testing.assert_allclose(
            t.density(x), np.exp(1.3 * x) * nu.density(x), rtol=1e-12)

    def test_double_exponential_tilt_closed_form(self):
        nu = JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0))
        t = nu.tilted(2.0)
        x = np.array([-0.7, 0.4, 1.2])
        np.testing.assert_allclose(
            t.density(x), np.exp(2.0 * x) * nu.density(x), rtol=1e-12)
        with pytest.raises(KappaOutsideI):
            nu.tilted(8.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            JumpDiffusion(0.0, GaussianJumps(0.0, 1.0))
        with pytest.raises(ValidationError):
            JumpDiffusion(1.0, "not a distribution")
        with pytest.raises(ValidationError):
            GaussianJumps(0.0, 0.0)
        with pytest.raises(ValidationError):
            DoubleExponentialJumps(1.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# infinite-activity parametric families
# ---------------------------------------------------------------------------


class TestParametricFamilies:
    def test_vg_density(self):
        nu = VarianceGamma(C=1.0, G=6.0, M=9.0)
        assert float(nu.density(np.array(0.5))) == pytest.approx(
            math.exp(-4.5) / 0.5)
        assert float(nu.density(np.array(-0.5))) == pytest.approx(
            math.exp(-3.0) / 0.5)

    def test_vg_tilt_shifts_rates(self):
        nu = VarianceGamma(C=1.0, G=6.0, M=9.0)
        t = nu.tilted(2.0)
        assert (t.G, t.M) == (8.0, 7.0)
        with pytest.raises(KappaOutsideI):
            nu.tilted(9.0)  # VG boundary tilt leaves 1/x: not integrable
        with pytest.raises(KappaOutsideI):
            CGMY(1.0, 6.0, 9.0, 0.0).tilted(-6.0)
        # the same ends are admissible once Y > 0
        assert CGMY(1.0, 6.0, 9.0, 0.5).tilted(9.0).M == 0.0
        assert CGMY(1.0, 6.0, 9.0, 0.5).tilted(-6.0).G == 0.0

    @pytest.mark.parametrize("kappa", [-5.4, 0.5, 8.1])
    def test_cgmy_tends_to_vg_as_y_vanishes(self, kappa):
        near = LevyTriplet(0.01, 0.0, CGMY(1.0, 6.0, 9.0, 1e-6))
        vg = LevyTriplet(0.01, 0.0, VarianceGamma(1.0, 6.0, 9.0))
        assert cumulant(near, kappa) == pytest.approx(
            cumulant(vg, kappa), rel=1e-5)
        assert cumulant_derivative(near, kappa) == pytest.approx(
            cumulant_derivative(vg, kappa), rel=1e-5)

    def test_cgmy_density(self):
        nu = CGMY(C=0.5, G=4.0, M=7.0, Y=0.8)
        assert float(nu.density(np.array(2.0))) == pytest.approx(
            0.5 * math.exp(-14.0) * 2.0 ** (-1.8))

    def test_cgmy_endpoint_tilt_allowed(self):
        nu = CGMY(C=0.5, G=4.0, M=7.0, Y=0.8)
        t = nu.tilted(7.0)  # boundary: |x|^{-1-Y} alone remains integrable
        assert (t.G, t.M) == (11.0, 0.0)
        assert t.side(1) == TailDecay.polynomial(-1.8)
        with pytest.raises(KappaOutsideI):
            nu.tilted(7.0001)

    def test_stable_density_and_tilt(self):
        nu = SymmetricAlphaStable(alpha=1.5, scale=2.0)
        assert float(nu.density(np.array(3.0))) == pytest.approx(
            2.0 * 3.0 ** (-2.5))
        assert nu.is_symmetric()
        assert nu.tilted(0.0) is nu
        with pytest.raises(KappaOutsideI):
            nu.tilted(1e-9)

    def test_log_density_matches_density(self):
        for nu in (VarianceGamma(1.0, 6.0, 9.0),
                   CGMY(0.5, 4.0, 7.0, 0.8),
                   SymmetricAlphaStable(1.2),
                   JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)),
                   JumpDiffusion(1.0, GaussianJumps(-0.1, 0.2))):
            x = np.array([-1.7, -0.2, 0.4, 2.3])
            np.testing.assert_allclose(
                np.exp(nu.log_density(x)), nu.density(x), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            VarianceGamma(-1.0, 2.0, 3.0)
        with pytest.raises(ValidationError, match="variance-gamma"):
            CGMY(1.0, 0.0, 9.0, 0.0)  # G = 0 is admissible only for Y > 0
        with pytest.raises(ValidationError, match="Y"):
            CGMY(1.0, 1.0, 1.0, -0.5)
        with pytest.raises(ValidationError):
            CGMY(1.0, 1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            CGMY(1.0, -1.0, 1.0, 0.5)
        with pytest.raises(ValidationError):
            SymmetricAlphaStable(alpha=2.0)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class TestWrappers:
    def test_tempered_density_and_atoms(self):
        base = FiniteAtomic(((2.0, 1.0), (0.5, 1.0)))
        w = Tempered(base, lambda x: -np.abs(x))
        atoms = dict(w.atoms())
        assert atoms[2.0] == pytest.approx(math.exp(-2.0))
        assert atoms[0.5] == pytest.approx(math.exp(-0.5))

        dens_base = SymmetricAlphaStable(1.5)
        wd = Tempered(dens_base, lambda x: -x * x, even=True)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(
            wd.density(x), dens_base.density(x) * np.exp(-x * x), rtol=1e-14)

    def test_tempered_tail_promotion(self):
        nu = Tempered(SymmetricAlphaStable(0.8), lambda x: -x * x, even=True)
        assert nu.side(1) == TailDecay.superexp()
        assert nu.is_symmetric()
        # without the evenness declaration symmetry is not claimed
        nu2 = Tempered(SymmetricAlphaStable(0.8), lambda x: -x * x)
        assert not nu2.is_symmetric()

    def test_exp_tilted_merges_nested_tilts(self):
        base = VarianceGamma(1.0, 6.0, 9.0)
        t = ExpTilted(ExpTilted(base, 1.0), 2.0)
        assert t.kappa == 3.0 and t.base is base

    def test_exp_tilted_rejects_divergent_tilt(self):
        with pytest.raises(KappaOutsideI):
            ExpTilted(SymmetricAlphaStable(1.5), 0.5)

    def test_exp_tilted_density(self):
        base = VarianceGamma(1.0, 6.0, 9.0)
        t = ExpTilted(base, 2.5)
        x = np.array([-0.4, 0.8])
        np.testing.assert_allclose(
            t.density(x), base.density(x) * np.exp(2.5 * x), rtol=1e-13)

    def test_generic_density_requires_tails(self):
        nu = GenericDensity(
            density_fn=lambda x: np.exp(-np.abs(x)) / np.abs(x),
            right=TailDecay.exponential(1.0, -1.0),
            left=TailDecay.exponential(1.0, -1.0),
            symmetric=True)
        assert nu.is_symmetric()
        assert float(nu.density(np.array(2.0))) == pytest.approx(
            math.exp(-2.0) / 2.0)

    def test_exp_jump_image_tail_is_exact(self):
        # at tilt 0 the weight-w moment of the price jumps is the base's
        # e^{wx} moment; below 0 every moment converges, above none does
        cgmy = ExpJumpImage(CGMY(1.0, 5.0, 1.0, 0.5)).side(1)
        assert cgmy.tilt_sup() == 0.0
        assert cgmy.moment_finite(1, 0.0)  # rate 1, power -1.5 < -1
        assert not cgmy.moment_finite(2, 0.0)
        assert cgmy.moment_finite(5, -1e-6) and not cgmy.moment_finite(0, 1e-6)
        stable = ExpJumpImage(SymmetricAlphaStable(1.5)).side(1)
        assert stable.moment_finite(0, 0.0) and not stable.moment_finite(1, 0.0)
        tilted = stable.tilted(-0.5)  # e^{-0.5 y} times the image tail
        assert tilted.tilt_sup() == 0.5 and tilted.moment_finite(0, 0.5)
        assert not tilted.moment_finite(1, 0.5)
        bounded = ExpJumpImage(FiniteAtomic(((0.5, 1.0),))).side(1)
        assert bounded == TailDecay.bounded(math.expm1(0.5))
        # the left side is the image of the base's left cutoff, 1 when the
        # base's left side is unbounded
        atoms = ExpJumpImage(FiniteAtomic(((0.5, 1.0), (-0.25, 1.0))))
        assert atoms.side(-1) == TailDecay.bounded(-math.expm1(-0.25))
        assert ExpJumpImage(VarianceGamma(1.0, 6.0, 9.0)).side(-1) == \
            TailDecay.bounded(1.0)

    def test_log_jump_image_rejects_mass_at_minus_one(self):
        from levy_emm.errors import UnsupportedMeasure
        with pytest.raises(UnsupportedMeasure):
            LogJumpImage(JumpDiffusion(
                1.0, DoubleExponentialJumps(0.4, 8.0, 6.0)))

    def test_atomic_jump_image(self):
        base = FiniteAtomic(((0.5, 2.0), (-0.25, 1.0)))
        img = ExpJumpImage(base)
        atoms = dict(img.atoms())
        assert atoms[math.expm1(0.5)] == pytest.approx(2.0)
        assert atoms[math.expm1(-0.25)] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# a side's cutoff says whether it has jumps
# ---------------------------------------------------------------------------

#: measures with their jumps ``(x > 0, x < 0)``, known from how they are built
_ONE_SIDED = {
    "kou_up": (JumpDiffusion(1.0, DoubleExponentialJumps(1.0, 8.0, 6.0)),
               (True, False)),
    "atoms_down": (FiniteAtomic(((-0.5, 1.0), (-0.2, 2.0))), (False, True)),
    "zero": (zero_measure(), (False, False)),
}
_TWO_SIDED = {
    "gaussian": JumpDiffusion(1.0, GaussianJumps(0.1, 0.3)),
    "vg": VarianceGamma(1.0, 6.0, 9.0),
    "cgmy": CGMY(1.0, 5.0, 4.0, 0.5),
    "stable": SymmetricAlphaStable(1.5),
    "generic": GenericDensity(np.exp, right=TailDecay.exponential(1.0),
                              left=TailDecay.exponential(1.0)),
}


def _side_cases():
    for name, (base, jumps) in _ONE_SIDED.items():
        # both markets' images keep the sign of every jump
        for label, nu in ((name, base),
                          (f"exp_image({name})", ExpJumpImage(base)),
                          (f"log_image({name})", LogJumpImage(base))):
            yield label, nu, jumps
            yield f"tempered({label})", Tempered(nu, lambda x: -x * x), jumps
            yield f"tilted({label})", ExpTilted(nu, -0.5), jumps
    yield ("generic_up", GenericDensity(np.exp, right=TailDecay.superexp(),
                                        left=TailDecay.bounded(0.0)),
           (True, False))
    for name, nu in _TWO_SIDED.items():
        yield name, nu, (True, True)


@pytest.mark.parametrize("nu, jumps", [case[1:] for case in _side_cases()],
                         ids=[case[0] for case in _side_cases()])
def test_a_side_is_bounded_by_zero_exactly_without_jumps(nu, jumps):
    atoms = nu.atoms()
    if atoms is not None:
        assert jumps == tuple(any(s * p > 0 for p, _ in atoms)
                              for s in (1, -1))
    for s, has_jumps in zip((1, -1), jumps):
        assert (nu.side(s).cutoff == 0.0) == (not has_jumps)
