"""Acceptance gate: the release checklist, one test per criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest
tests/test_acceptance.py -v -s``) and then asserts, so a red line always
names the criterion that broke.  Models are constructed inline from their
defining parameters so this module stands alone.

``test_criterion_04_strict_decrease`` checks that the tempered sequence
moves strictly toward its limit, in the two forms that can be checked.
On the symmetric driftless 0.8-stable model every tempered measure is
already balanced, so the per-stage tilt and entropy sit at their limit
of exactly zero at every stage, while the entropy against the original
model falls strictly from stage to stage.  On the same jumps with a
drift, where the per-stage sequences are not trivially zero, the final
tilt and entropy fall strictly below their first-stage values.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    EsscherStatus,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyTriplet,
    PenaltyFamily,
    SimConfig,
    SymmetricAlphaStable,
    VarianceGamma,
    approx_sequence,
    cumulant,
    entropy_estimate,
    esscher_entropy,
    esscher_transform,
    geometric_to_linear,
    linear_to_geometric,
    martingale_defect,
    mgf,
    mgf_derivative,
    pathwise_log_zn,
    sample_terminal,
    solve_linear_emm,
    zero_measure,
)
from levy_emm.cli import main as cli_main

BROWNIAN = LevyTriplet(0.05, 0.09, zero_measure())
TWO_ATOM = LevyTriplet(0.1, 0.0, FiniteAtomic(((0.5, 1.0), (-0.5, 1.0))))
STABLE15 = LevyTriplet(0.0, 0.0, SymmetricAlphaStable(1.5))
STABLE08 = LevyTriplet(0.0, 0.0, SymmetricAlphaStable(0.8))
STABLE08_DRIFT = LevyTriplet(0.1, 0.0, SymmetricAlphaStable(0.8))
KOU = LevyTriplet(0.03, 0.02,
                  JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)))
MERTON = LevyTriplet(0.02, 0.04, JumpDiffusion(1.0, GaussianJumps(-0.1, 0.2)))
ARBITRAGE = LevyTriplet(1.0, 0.0, FiniteAtomic(((2.0, 3.0),)))
ZN_MODEL = LevyTriplet(0.0, 0.01, FiniteAtomic(((2.0, 0.5),)))


def _line(num: str, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


@pytest.fixture(scope="module")
def stable08_trace():
    start = time.perf_counter()
    trace = approx_sequence(STABLE08, 1.0, PenaltyFamily.default_quadratic())
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def stable08_drift_trace():
    return approx_sequence(STABLE08_DRIFT, 1.0,
                           PenaltyFamily.default_quadratic())


@pytest.fixture(scope="module")
def kou_trace():
    return approx_sequence(KOU, 1.0, PenaltyFamily.default_quadratic())


def test_criterion_01_brownian_closed_form():
    start = time.perf_counter()
    res = solve_linear_emm(BROWNIAN, 1.0)
    elapsed = time.perf_counter() - start
    want_kappa = -5.0 / 9.0
    want_entropy = 0.05 ** 2 * 1.0 / (2 * 0.09)
    ok = (res.status is EsscherStatus.EMM_EXISTS
          and abs(res.kappa0 - want_kappa) <= 1e-9
          and abs(res.entropy - want_entropy) <= 1e-9
          and elapsed < 1.0)
    _line("01", "diffusion-only tilt and entropy in closed form", ok,
          f"kappa0={res.kappa0:.12f} entropy={res.entropy:.12f} "
          f"{elapsed * 1e3:.0f}ms")


def test_criterion_02_two_atom_bisection_oracle():
    start = time.perf_counter()
    res = solve_linear_emm(TWO_ATOM, 1.0)
    elapsed = time.perf_counter() - start

    lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.1 + math.sinh(0.5 * mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    ok = (abs(res.kappa0 - oracle) <= 1e-8
          and abs(res.kappa0 - 2.0 * math.asinh(-0.1)) <= 1e-8
          and elapsed < 1.0)
    _line("02", "two-atom tilt matches an independent bisection", ok,
          f"kappa0={res.kappa0:.10f} oracle={oracle:.10f} "
          f"{elapsed * 1e3:.0f}ms")


def test_criterion_03_stable_15_already_balanced():
    res = solve_linear_emm(STABLE15, 1.0)
    ok = (res.status is EsscherStatus.P_IS_ALREADY_EMM
          and res.kappa0 == 0.0 and res.entropy == 0.0)
    _line("03", "driftless symmetric 1.5-stable needs no tilt", ok,
          f"status={res.status.value} kappa0={res.kappa0} "
          f"entropy={res.entropy}")


def test_criterion_04_heavy_tail_limit(stable08_trace):
    trace, elapsed = stable08_trace
    res = solve_linear_emm(STABLE08, 1.0)
    last = trace.steps[-1]
    ok = (res.status is EsscherStatus.NO_EMM
          and res.infimum_entropy == 0.0
          and abs(last.kappa_n) < 1e-2
          and last.entropy_n < 1e-2
          and elapsed < 60.0)
    _line("04", "0.8-stable: no balancing measure, entropy infimum zero",
          ok, f"status={res.status.value} infimum={res.infimum_entropy} "
          f"final kappa_n={last.kappa_n} entropy_n={last.entropy_n} "
          f"{elapsed:.1f}s")


def test_criterion_04_strict_decrease(stable08_trace, stable08_drift_trace):
    trace, _ = stable08_trace
    at_limit = (trace.kappa_limit == 0.0 and trace.entropy_limit == 0.0
                and all(s.kappa_n == trace.kappa_limit
                        and s.entropy_n == trace.entropy_limit
                        for s in trace.steps))
    vs_p = [s.entropy_vs_P for s in trace.steps]
    vs_p_falls = all(a > b for a, b in zip(vs_p, vs_p[1:]))

    drift = stable08_drift_trace
    res = solve_linear_emm(STABLE08_DRIFT, 1.0)
    first, last = drift.steps[0], drift.steps[-1]
    drift_falls = (res.status is EsscherStatus.NO_EMM
                   and res.infimum_entropy == 0.0
                   and drift.kappa_limit == 0.0
                   and drift.entropy_limit == 0.0
                   and drift.failures == ()
                   and abs(last.kappa_n) < abs(first.kappa_n)
                   and last.entropy_n < first.entropy_n)

    ok = at_limit and vs_p_falls and drift_falls
    _line("04-strict", "tempered sequences fall strictly toward the limit",
          ok, f"symmetric: kappa_n, entropy_n all at limit: {at_limit}, "
          f"entropy vs P {vs_p[0]:.5g} -> {vs_p[-1]:.5g} strictly "
          f"falling: {vs_p_falls}; drifted: kappa_n {first.kappa_n:.5g} -> "
          f"{last.kappa_n:.5g}, entropy_n {first.entropy_n:.5g} -> "
          f"{last.entropy_n:.5g}, failures={len(drift.failures)}")


def test_criterion_05_decomposition_identity(stable08_trace, kou_trace):
    trace08, _ = stable08_trace
    worst_residual = 0.0
    bound_ok = True
    for step in list(trace08.steps) + list(kou_trace.steps):
        residual = abs(step.entropy_vs_P
                       - (step.entropy_n + step.correction_n))
        worst_residual = max(worst_residual, residual)
        bound_ok = bound_ok and abs(step.correction_n) <= 1.0 * step.mass_gap
    ok = worst_residual <= 1e-10 and bound_ok
    _line("05", "entropy decomposition balances at every stage", ok,
          f"worst residual={worst_residual:.3g} "
          f"correction bounded by removed mass: {bound_ok}")


def test_criterion_06_tilt_shift_identity():
    worst = 0.0
    for kappa in (-2.0, -1.0, 0.0, 1.0, 2.0):
        tilted = esscher_transform(KOU, kappa)
        base = cumulant(KOU, kappa)
        for u in (-3.0, -1.5, 0.0, 1.5, 3.0):
            want = cumulant(KOU, u + kappa) - base
            got = cumulant(tilted, u)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    ok = worst < 1e-8
    _line("06", "tilted cumulant equals the shifted cumulant on a 5x5 grid",
          ok, f"worst relative error={worst:.3g}")


def test_criterion_07_derivative_consistency():
    grids = (
        (BROWNIAN, (-3.0, -1.0, 0.5, 2.0)),
        (TWO_ATOM, (-3.0, -1.0, 0.5, 2.0)),
        (MERTON, (-3.0, -1.0, 0.5, 2.0)),
        (KOU, (-4.0, -2.0, 0.5, 3.0, 5.0)),
        (LevyTriplet(0.01, 0.0, VarianceGamma(1.0, 6.0, 9.0)),
         (-5.0, -2.0, 0.5, 3.0, 7.0)),
        (LevyTriplet(0.0, 0.0, CGMY(0.5, 4.0, 7.0, 0.8)),
         (-3.0, -1.0, 0.5, 2.0, 5.0)),
        (LevyTriplet(0.0, 0.0, CGMY(1.0, 5.0, 5.0, 1.5)),
         (-2.0, -1.0, 0.5, 1.0, 2.0)),
    )
    h = 1e-4
    worst = 0.0
    for t, grid in grids:
        for kappa in grid:
            psi = mgf_derivative(t, 1.0, kappa)
            fd = (mgf(t, 1.0, kappa + h)
                  - mgf(t, 1.0, kappa - h)) / (2.0 * h)
            phi = mgf(t, 1.0, kappa)
            worst = max(worst, abs(psi - fd) / abs(phi))
    ok = worst < 1e-6
    _line("07", "moment derivative matches finite differences of the "
          "moment function", ok, f"worst relative error={worst:.3g}")


def test_criterion_08_monte_carlo_cross_check():
    start = time.perf_counter()
    res = solve_linear_emm(MERTON, 1.0)
    pack = sample_terminal(MERTON,
                           SimConfig(T=1.0, n_samples=10 ** 6, seed=2024))
    defect, defect_se = martingale_defect(pack, res.kappa0)
    entropy, entropy_se = entropy_estimate(pack, res.kappa0)
    analytic = esscher_entropy(MERTON, 1.0, res.kappa0)
    elapsed = time.perf_counter() - start
    z_defect = defect / defect_se
    z_entropy = (entropy - analytic) / entropy_se
    ok = abs(z_defect) <= 4.0 and abs(z_entropy) <= 4.0 and elapsed < 120.0
    _line("08", "simulation confirms the tilted model is balanced", ok,
          f"defect z={z_defect:.2f} entropy z={z_entropy:.2f} "
          f"{elapsed:.1f}s")


def test_criterion_09_arbitrage_gate(tmp_path):
    res = solve_linear_emm(ARBITRAGE, 1.0)
    out = tmp_path / "report.json"
    model = Path(__file__).resolve().parent.parent \
        / "docs" / "models" / "arbitrage.json"
    code = cli_main(["solve", str(model), "--out", str(out)])
    report = json.loads(out.read_text())
    ok = (res.status is EsscherStatus.ARBITRAGE_MARKET
          and code == 0
          and report["results"]["status"] == "arbitrage_market")
    _line("09", "one-sided market is refused with an explicit verdict", ok,
          f"library status={res.status.value} cli exit={code} "
          f"cli status={report['results']['status']}")


def test_criterion_10_conversion_round_trip():
    worst = 0.0
    for t in (BROWNIAN, KOU):
        back = linear_to_geometric(geometric_to_linear(t))
        worst = max(worst, abs(back.b - t.b), abs(back.sigma2 - t.sigma2))
        for kappa in (-1.0, 0.5, 1.0, 2.0):
            c_orig = cumulant(t, kappa)
            c_back = cumulant(back, kappa)
            worst = max(worst, abs(c_back - c_orig) / (1.0 + abs(c_orig)))
    ok = worst < 1e-6
    _line("10", "exponential/log jump conversions invert each other", ok,
          f"worst field error={worst:.3g}")


def test_criterion_11_pathwise_density_bound():
    pack = sample_terminal(
        ZN_MODEL, SimConfig(T=1.0, n_samples=10 ** 5, seed=2024,
                            record_jumps=True))
    res = pathwise_log_zn(pack, PenaltyFamily.default_quadratic(), 4,
                          ZN_MODEL.nu)
    zn = np.exp(res.log_zn)
    z_mean = (res.zn_mean - 1.0) / res.zn_se
    all_bounded = bool((zn <= res.uniform_bound).all())
    want_bound = math.exp(1.0 * 0.5 * -math.expm1(-4.0))
    ok = (abs(z_mean) <= 4.0
          and all_bounded
          and math.isclose(res.uniform_bound, want_bound, rel_tol=1e-12))
    _line("11", "stage-4 density has unit mean and respects the uniform "
          "bound on every path", ok,
          f"mean={res.zn_mean:.5f} z={z_mean:.2f} "
          f"max={zn.max():.5f} bound={res.uniform_bound:.5f}")
