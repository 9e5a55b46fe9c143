"""Narrow Gaussian jump laws, whose Esscher roots lie far from the origin.

There the cumulant's factors ``e^{κx} - 1 - κx`` and ``e^{κx}(κx - 1) + 1``
overflow where the jump density has long underflowed, and near ``κ = 0``
``e^{κx} - 1`` must keep its digits.  Every expected value is a closed
form of the Merton jump part, evaluated by mpmath; no oracle here shares
code with the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from levy_emm import (GaussianJumps, JumpDiffusion, LevyTriplet, cumulant,
                      cumulant_derivative)
from levy_emm.cli import main
from levy_emm.modelspec import load_model

_ROOT = Path(__file__).resolve().parent.parent
_SCHEMA = json.loads((_ROOT / "docs" / "report.schema.json").read_text())

#: (intensity, mean, std) of the jump laws below
_M1 = (0.0010175, 0.24080, 0.0017120)
_M2 = (0.037974, -1.1125, 0.0057075)
_M3 = (0.059494, 2.7938, 0.0065180)


def _jump_part(law, kappa, deriv=False):
    """The jump part of ``c(κ)`` (or of ``c'(κ)``) of ``λ N(m, s²)`` under
    the truncation ``x 1{|x| <= 1}``, at 60 digits."""
    with mp.workdps(60):
        lam, m, s = (mp.mpf(v) for v in law)
        k = mp.mpf(kappa)
        a, b = (-1 - m) / s, (1 - m) / s
        trunc_mean = m * (mp.ncdf(b) - mp.ncdf(a)) - s * (mp.npdf(b) - mp.npdf(a))
        expo = k * m + k * k * s * s / 2
        if deriv:
            return lam * ((m + k * s * s) * mp.exp(expo) - trunc_mean)
        return lam * (mp.expm1(expo) - k * trunc_mean)


def _esscher_root(law, b, guess):
    """``κ0`` with ``b + c_J'(κ0) = 0``, and ``-c(κ0)`` per unit time."""
    with mp.workdps(60):
        k0 = mp.findroot(lambda k: b + _jump_part(law, k, deriv=True),
                         mp.mpf(guess), tol=mp.mpf(10) ** -40)
        return float(k0), float(-(b * k0 + _jump_part(law, k0)))


def _run(tmp_path, law, b, horizon, *argv):
    lam, m, s = law
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "version": 1, "name": "narrow", "market": "linear", "b": b,
        "sigma2": 0, "T": horizon,
        "nu": {"kind": "jump_diffusion", "intensity": lam,
               "jumps": {"kind": "gaussian", "mean": m, "std": s}}}))
    out = tmp_path / "report.json"
    code = main([*argv, str(spec), "--out", str(out)])
    report = json.loads(out.read_text())
    jsonschema.validate(report, _SCHEMA)
    return code, report


class TestFarEsscherRoot:
    def test_solve_finds_the_root_near_minus_164000(self, tmp_path):
        k0, rate = _esscher_root(_M1, 0.6441, -164348.0)
        code, report = _run(tmp_path, _M1, 0.6441, 1.0, "solve")
        assert code == 0, report.get("error")
        res = report["results"]
        assert math.isclose(res["kappa0"], k0, rel_tol=1e-9), (res, k0)
        assert math.isclose(res["entropy"], rate, rel_tol=1e-9), (res, rate)

    def test_domain_finds_the_same_root(self, tmp_path):
        k0, _ = _esscher_root(_M1, 0.6441, -164348.0)
        code, report = _run(tmp_path, _M1, 0.6441, 1.0, "domain")
        assert code == 0, report.get("error")
        found = report["results"]["esscher_parameter"]
        assert found["exists"] and found["case"] == "interval_interior"
        assert math.isclose(found["kappa0"], k0, rel_tol=1e-9), (found, k0)

    def test_approx_limit_survives_an_underflowing_mgf(self, tmp_path):
        # φ_T(κ0) = e^{-105813} underflows: the limit entropy comes from
        # log φ_T, not from the log of a zero
        k0, rate = _esscher_root(_M1, 0.6441, -164348.0)
        code, report = _run(tmp_path, _M1, 0.6441, 1.0, "approx",
                            "--n-max", "2")
        assert code == 0, report.get("error")
        res = report["results"]
        assert math.isclose(res["kappa_limit"], k0, rel_tol=1e-9), (res, k0)
        assert math.isclose(res["entropy_limit"], rate, rel_tol=1e-9), (res,
                                                                         rate)

    def test_approx_steps_balance_and_reach_the_limit(self, tmp_path):
        # all jumps sit near -1.11: c(κ) falls to -λ as κ -> inf, so the
        # entropy infimum is T λ
        horizon = 1.0735
        code, report = _run(tmp_path, _M2, 0.0, horizon, "approx",
                            "--n-max", "8")
        assert code == 0, report.get("error")
        res = report["results"]
        assert len(res["steps"]) == 4 and not res["failures"]
        for step in res["steps"]:
            gap = step["entropy_vs_P"] - step["entropy_n"] - step["correction_n"]
            assert abs(gap) <= 1e-12 * max(1.0, abs(step["entropy_vs_P"])), step
        assert abs(res["entropy_limit"] - horizon * _M2[0]) <= 1e-9, res

    @pytest.mark.parametrize("command", ["solve", "approx"])
    def test_a_spike_beyond_the_cut_is_solved_or_fails_loudly(self, tmp_path,
                                                              command):
        # GK21 on the tail panel [2, 4] can miss the tilted spike at
        # m + κs² ≈ -2.79 (std 0.0065): a typed failure is acceptable, a
        # wrong root or a traceback is not
        k0, _ = _esscher_root(_M3, 7.2e-8, -131516.2)
        argv = [command] + (["--n-max", "8"] if command == "approx" else [])
        code, report = _run(tmp_path, _M3, 7.2e-8, 0.25579, *argv)
        assert code in (0, 3), report
        if code == 0:
            res = report["results"]
            got = res["kappa0"] if command == "solve" else res["kappa_limit"]
            assert math.isclose(got, k0, rel_tol=1e-9), (got, k0)


class TestNearZero:
    @pytest.mark.parametrize("kappa", [1e-12, -1e-12, 1e-9, -1e-9,
                                       1e-6, -1e-6])
    def test_merton_jump_part_keeps_its_relative_digits(self, kappa):
        nu = load_model(str(_ROOT / "docs" / "models" / "merton.json")).triplet.nu
        jumps = LevyTriplet(0.0, 0.0, nu)
        law = (nu.intensity, nu.jumps.mean, nu.jumps.std)
        want = float(_jump_part(law, kappa))
        got = cumulant(jumps, kappa).value
        assert math.isclose(got, want, rel_tol=1e-8), (got, want)


_MERTON = (1.0, -0.1, 0.2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(log_k=st.floats(-12.0, 5.0), negative=st.booleans())
def test_merton_cumulant_matches_the_closed_form(log_k, negative):
    # from κ = ±1e-12 out to ±1e5, where e^{κm + κ²s²/2} overflows a double
    kappa = (-1.0 if negative else 1.0) * 10.0 ** log_k
    jumps = LevyTriplet(0.0, 0.0, JumpDiffusion(_MERTON[0],
                                                GaussianJumps(*_MERTON[1:])))
    for deriv, fn, rel in ((False, cumulant, 1e-8),
                           (True, cumulant_derivative, 1e-11)):
        want = _jump_part(_MERTON, kappa, deriv)
        got = fn(jumps, kappa).as_float()
        if abs(want) > 1.7e308:
            assert got == math.copysign(math.inf, want), (kappa, deriv, got)
        else:
            assert math.isclose(got, float(want), rel_tol=rel), (
                kappa, deriv, got, want)
