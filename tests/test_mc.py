"""Terminal sampling, importance estimators, and pathwise tempering.

Statistical assertions compare against analytic values (cumulants are
verified elsewhere against closed forms) with bounds of five standard
errors, so spurious failures are one-in-millions events at the fixed
seeds.  The pathwise tempering density test is exact, not statistical.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from levy_emm import (
    DoubleExponentialJumps,
    FiniteAtomic,
    JumpDiffusion,
    JumpRecords,
    LevyTriplet,
    PenaltyFamily,
    SimConfig,
    SamplePack,
    cumulant,
    cumulant_derivative,
    entropy_estimate,
    esscher_entropy,
    martingale_defect,
    pathwise_log_zn,
    perturbed_triplet,
    sample_terminal,
    solve_linear_emm,
)
from levy_emm.approximation import mass_gap
from levy_emm.errors import DegenerateWeights, MissingJumpRecords
from levy_emm.mc_oracle import _exp1


def _mgf_z(pack, t, k):
    """z-score of the empirical mgf against ``exp(T c(k))``."""
    w = np.exp(k * pack.values)
    se = w.std(ddof=1) / math.sqrt(w.size)
    want = math.exp(pack.T * cumulant(t, k))
    return (w.mean() - want) / se


@pytest.fixture(scope="module")
def kou_pack(kou):
    return sample_terminal(kou, SimConfig(T=1.0, n_samples=200_000, seed=7))


@pytest.fixture(scope="module")
def outer_atom():
    return LevyTriplet(0.0, 0.0, FiniteAtomic(((2.0, 0.5), (-0.5, 1.0))))


@pytest.fixture(scope="module")
def outer_atom_pack(outer_atom):
    return sample_terminal(
        outer_atom, SimConfig(T=1.0, n_samples=20_000, seed=2,
                              record_jumps=True))


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(T=0.0, n_samples=10)
        with pytest.raises(ValueError):
            SimConfig(T=1.0, n_samples=0)
        with pytest.raises(ValueError):
            SimConfig(T=1.0, n_samples=10.5)
        with pytest.raises(ValueError):
            SimConfig(T=1.0, n_samples=10, epsilon=0.0)
        with pytest.raises(ValueError):
            SimConfig(T=1.0, n_samples=10, epsilon=1.5)
        with pytest.raises(ValueError):
            SimConfig(T=1.0, n_samples=10, small_jump_mode="exact")


class TestReproducibility:
    def test_worker_count_does_not_change_draws(self, kou, monkeypatch):
        cfg = SimConfig(T=1.0, n_samples=3 * 8192 + 100, seed=42,
                        record_jumps=True)
        monkeypatch.setenv("LEVY_EMM_THREADS", "1")
        serial = sample_terminal(kou, cfg)
        monkeypatch.setenv("LEVY_EMM_THREADS", "4")
        threaded = sample_terminal(kou, cfg)
        assert np.array_equal(serial.values, threaded.values)
        for field in ("offsets", "times", "sizes"):
            assert np.array_equal(getattr(serial.jump_records, field),
                                  getattr(threaded.jump_records, field))

    def test_seed_controls_the_draws(self, kou):
        a = sample_terminal(kou, SimConfig(T=1.0, n_samples=1000, seed=5))
        b = sample_terminal(kou, SimConfig(T=1.0, n_samples=1000, seed=5))
        c = sample_terminal(kou, SimConfig(T=1.0, n_samples=1000, seed=6))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_pack_shape(self, kou):
        pack = sample_terminal(kou, SimConfig(T=2.0, n_samples=300, seed=1,
                                              record_jumps=True))
        assert isinstance(pack, SamplePack)
        assert pack.n == 300 and pack.values.shape == (300,)
        assert pack.T == 2.0 and pack.seed == 1
        rec = pack.jump_records
        assert isinstance(rec, JumpRecords)
        assert rec.offsets.shape == (301,)
        assert rec.times.ndim == 1 and rec.sizes.shape == rec.times.shape


def _paths(rec):
    """Each path's ``(times, sizes)``, read off the flat records."""
    return [(rec.times[a:b], rec.sizes[a:b])
            for a, b in zip(rec.offsets[:-1], rec.offsets[1:])]


class TestJumpRecords:
    """The flat layout: one offsets array and two flat arrays per pack."""

    @pytest.mark.parametrize("model", ["kou", "vg", "cgmy_y05", "two_atom"])
    def test_recording_leaves_the_values_unchanged(self, model, request):
        t = request.getfixturevalue(model)
        cfg = dict(T=1.0, n_samples=2 * 8192 + 50, seed=8)
        plain = sample_terminal(t, SimConfig(**cfg))
        recorded = sample_terminal(t, SimConfig(record_jumps=True, **cfg))
        assert plain.jump_records is None
        assert np.array_equal(plain.values, recorded.values)

    # Kou's plan draws every jump, and the jumps below the cutoff go
    @pytest.mark.parametrize("model", ["kou", "vg", "two_atom"])
    def test_layout(self, model, request):
        t = request.getfixturevalue(model)
        eps = 0.05
        pack = sample_terminal(t, SimConfig(T=2.0, n_samples=3000, seed=4,
                                            epsilon=eps, record_jumps=True))
        rec = pack.jump_records
        assert rec.offsets.shape == (pack.n + 1,)
        assert rec.offsets[0] == 0
        assert np.all(np.diff(rec.offsets) >= 0)
        assert rec.offsets[-1] == rec.times.size == rec.sizes.size > 0
        assert np.all(np.abs(rec.sizes) > eps)
        for times, _ in _paths(rec):
            assert np.all((0.0 <= times) & (times <= 2.0))
            assert np.all(np.diff(times) >= 0.0)

    def test_exact_plan_sizes_sum_to_the_values(self, outer_atom,
                                                outer_atom_pack):
        # atoms and no Gaussian part: L_T is the drift plus the jumps, all
        # of them above the cutoff; the drift compensates the atom at -0.5
        drift = 1.0 * (0.0 - (-0.5 * 1.0))
        sums = np.array([np.sum(sizes)
                         for _, sizes in _paths(outer_atom_pack.jump_records)])
        assert np.max(np.abs(sums - (outer_atom_pack.values - drift))) <= 1e-12

    def test_pathwise_sum_matches_a_per_path_loop(self):
        t = LevyTriplet(0.0, 0.0, JumpDiffusion(
            6.0, DoubleExponentialJumps(0.4, 0.8, 0.6)))
        pack = sample_terminal(t, SimConfig(T=1.5, n_samples=2000, seed=5,
                                            record_jumps=True))
        p = PenaltyFamily.default_quadratic()
        out = pathwise_log_zn(pack, p, 3, t.nu)
        rec = pack.jump_records
        sums = np.array([np.sum(p.rho_at(3, sizes))
                         for _, sizes in _paths(rec)])
        want = 1.5 * mass_gap(t.nu, p, 3) - sums
        # numpy's pairwise sum changes its order from 8 terms up
        short = np.diff(rec.offsets) < 8
        assert short.any() and not short.all()
        assert np.array_equal(out.log_zn[short], want[short])
        ulps = (np.abs(out.log_zn - want)[~short]
                / np.spacing(np.maximum(np.abs(want), sums)[~short]))
        assert np.all(ulps <= 4.0), ulps.max()


class TestDistributions:
    def test_brownian_exact_moments(self):
        t = LevyTriplet(0.05, 0.09, FiniteAtomic(()))
        pack = sample_terminal(t, SimConfig(T=4.0, n_samples=200_000, seed=11))
        v = pack.values
        mean_se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 0.2) <= 5 * mean_se
        var_se = 0.36 * math.sqrt(2.0 / (v.size - 1))
        assert abs(v.var(ddof=1) - 0.36) <= 5 * var_se
        assert abs(_mgf_z(pack, t, 1.0)) <= 5

    def test_atom_jump_counts_and_sizes(self, two_atom):
        pack = sample_terminal(
            two_atom, SimConfig(T=1.5, n_samples=20_000, seed=3,
                                record_jumps=True))
        rec = pack.jump_records
        counts = np.diff(rec.offsets)
        lam = 2.0 * 1.5  # total atomic mass times horizon
        assert abs(counts.mean() - lam) <= 5 * math.sqrt(lam / counts.size)
        assert set(np.unique(np.abs(rec.sizes))) == {0.5}
        for i in range(50):
            times = rec.times[rec.offsets[i]:rec.offsets[i + 1]]
            assert np.all((0 <= times) & (times <= 1.5))
            assert np.all(np.diff(times) >= 0)

    def test_empirical_mgf_kou(self, kou):
        pack = sample_terminal(kou, SimConfig(T=1.0, n_samples=200_000, seed=7))
        for k in (0.5, 1.0):
            assert abs(_mgf_z(pack, kou, k)) <= 5

    def test_empirical_mgf_merton(self, merton):
        pack = sample_terminal(merton,
                               SimConfig(T=1.0, n_samples=150_000, seed=9))
        assert abs(_mgf_z(pack, merton, 1.0)) <= 5

    def test_empirical_mgf_vg_and_cgmy(self, vg, cgmy_y05):
        for t in (vg, cgmy_y05):
            pack = sample_terminal(t, SimConfig(T=1.0, n_samples=150_000,
                                                seed=5))
            assert abs(_mgf_z(pack, t, 1.0)) <= 5

    def test_empirical_mgf_tempered(self, stable08):
        pert = perturbed_triplet(stable08, PenaltyFamily.default_quadratic(), 4)
        pack = sample_terminal(pert, SimConfig(T=1.0, n_samples=150_000,
                                               seed=13))
        assert np.isfinite(pack.values).all()
        assert abs(_mgf_z(pack, pert, 0.5)) <= 5

    def test_small_jump_remainder_modes(self, vg):
        full_var = 1.0 / 81.0 + 1.0 / 36.0  # T * int x^2 nu for these rates
        removed = (integrate.quad(lambda x: x * math.exp(-9 * x), 0, 0.3)[0]
                   + integrate.quad(lambda x: x * math.exp(-6 * x), 0, 0.3)[0])
        shared = dict(T=1.0, n_samples=150_000, seed=3, epsilon=0.3)
        matched = sample_terminal(vg, SimConfig(**shared))
        dropped = sample_terminal(vg, SimConfig(small_jump_mode="drop",
                                                **shared))
        assert abs(matched.values.var(ddof=1) - full_var) <= 2e-3
        assert abs(dropped.values.var(ddof=1) - (full_var - removed)) <= 2e-3


class TestEstimators:
    def test_defect_vanishes_at_the_tilt_root(self, kou, kou_pack):
        k0 = solve_linear_emm(kou, 1.0).kappa0
        est, se = martingale_defect(kou_pack, k0)
        assert se > 0.0
        assert abs(est) <= 5 * se

    def test_defect_at_zero_is_the_mean_rate(self, kou, kou_pack):
        est, se = martingale_defect(kou_pack, 0.0)
        want = cumulant_derivative(kou, 0.0)  # times T = 1
        assert abs(est - want) <= 5 * se

    def test_entropy_estimate_matches_analytic(self, kou, kou_pack):
        k0 = solve_linear_emm(kou, 1.0).kappa0
        est, se = entropy_estimate(kou_pack, k0)
        want = esscher_entropy(kou, 1.0, k0)
        assert abs(est - want) <= 5 * se
        assert abs(est - want) <= 0.02 * want

    def test_entropy_at_zero_tilt(self, kou_pack):
        assert entropy_estimate(kou_pack, 0.0) == (0.0, 0.0)

    def test_degenerate_weights_guard(self, merton):
        pack = sample_terminal(merton,
                               SimConfig(T=1.0, n_samples=50_000, seed=1))
        with pytest.raises(DegenerateWeights):
            martingale_defect(pack, 50.0)
        with pytest.raises(DegenerateWeights):
            entropy_estimate(pack, 50.0)


class TestPathwiseZn:
    def test_exact_pathwise_values(self, outer_atom, outer_atom_pack):
        p = PenaltyFamily.default_quadratic()
        out = pathwise_log_zn(outer_atom_pack, p, 4, outer_atom.nu)
        # only the atom at 2 is penalized: rho_4(2) = 1, rho_4(-0.5) = 0
        gap4 = 0.5 * -math.expm1(-1.0)
        rec = outer_atom_pack.jump_records
        want = np.array([gap4 - np.sum(rec.sizes[a:b] == 2.0)
                         for a, b in zip(rec.offsets[:-1], rec.offsets[1:])])
        assert np.max(np.abs(out.log_zn - want)) <= 1e-13

    def test_unit_mean_and_uniform_bound(self, outer_atom, outer_atom_pack):
        p = PenaltyFamily.default_quadratic()
        out = pathwise_log_zn(outer_atom_pack, p, 4, outer_atom.nu)
        assert abs(out.zn_mean - 1.0) <= 5 * out.zn_se
        want_bound = math.exp(0.5 * -math.expm1(-4.0))
        assert math.isclose(out.uniform_bound, want_bound, rel_tol=1e-12)
        assert np.all(np.exp(out.log_zn) <= out.uniform_bound * (1 + 1e-12))

    def test_records_required(self, outer_atom):
        pack = sample_terminal(outer_atom,
                               SimConfig(T=1.0, n_samples=100, seed=2))
        p = PenaltyFamily.default_quadratic()
        with pytest.raises(MissingJumpRecords):
            pathwise_log_zn(pack, p, 4, outer_atom.nu)


class TestExp1:
    """The gamma-like jump intensity's ``E1`` against mpmath."""

    def test_against_mpmath(self):
        xs = [float(x) for x in np.geomspace(1e-12, 700.0, 241)]
        xs += [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
        with mpmath.workdps(40):
            rel = {x: float(abs((_exp1(x) - mpmath.e1(x)) / mpmath.e1(x)))
                   for x in xs}
        worst = max(rel, key=rel.get)
        assert rel[worst] <= 2e-15, (worst, rel[worst])
