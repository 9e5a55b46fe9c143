"""End-to-end command-line checks: exit codes, report schema, outputs.

Every emitted report — success or error — must validate against the
published JSON schema, and identical invocations must produce identical
reports up to the timing block.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import integrate, optimize

from levy_emm import cli, pathwise_log_zn
from levy_emm.cli import _schedule_up_to, main
from levy_emm.errors import NoFiniteMinimizer

from conftest import spec_doc

_ROOT = Path(__file__).resolve().parent.parent
_MODELS = _ROOT / "docs" / "models"
_SCHEMA = json.loads((_ROOT / "docs" / "report.schema.json").read_text())
#: the parser's text and exit code for help, version and usage errors
_CLI_TEXT = json.loads(
    (_ROOT / "tests" / "reference" / "cli_text.json").read_text())
_TRACE_COLUMNS = ("n", "kappa_n", "entropy_n", "correction_n",
                  "entropy_vs_P", "mass_gap")


def run(tmp_path, *argv):
    """Run the CLI with --out, validate the report, return (code, report)."""
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text())
    jsonschema.validate(report, _SCHEMA)
    return code, report


def _stable_linear_root(alpha: float, b: float) -> float:
    """Root of ``c_L'`` for the stochastic logarithm of ``b t`` plus a
    symmetric ``alpha``-stable pure-jump process, by x-space quadrature
    over the log-jumps ``x`` (price jumps ``y = e^x - 1``)."""
    ln2 = math.log(2.0)

    def quad(f):
        # x = ±u^2 near the origin smooths the density's singularity
        total = 0.0
        for sgn, end in ((1.0, math.sqrt(ln2)), (-1.0, 1.0)):
            total += integrate.quad(lambda u: 2 * u * f(sgn * u * u), 0.0, end,
                                    epsabs=1e-15, epsrel=1e-13, limit=400)[0]
        for a, c in ((ln2, 1.0), (1.0, math.inf), (-math.inf, -1.0)):
            total += integrate.quad(f, a, c, epsabs=1e-15, epsrel=1e-13,
                                    limit=400)[0]
        return total

    def dens(x):
        return abs(x) ** (-1.0 - alpha)

    # drift: b + ∫ [y 1{|y| <= 1} - x 1{|x| <= 1}] ν(dx)
    b_lin = b + quad(lambda x: ((math.expm1(x) if x <= ln2 else 0.0)
                                - (x if abs(x) <= 1.0 else 0.0)) * dens(x))

    def c_prime(kappa):
        def f(x):
            if x <= ln2:
                y = math.expm1(x)
                return y * math.expm1(kappa * y) * dens(x)
            with np.errstate(over="ignore"):
                y = float(np.expm1(x))  # inf far out, where e^{κy} is 0
            return math.exp(kappa * y + x + math.log(-math.expm1(-x))) * dens(x)
        return b_lin + quad(f)

    return optimize.brentq(c_prime, -5.0, -1e-3, xtol=1e-14)


class TestSolve:
    def test_linear_brownian(self, tmp_path, write_spec):
        code, rep = run(tmp_path, "solve", write_spec(spec_doc()))
        assert code == 0
        assert rep["command"] == "solve" and rep["units"] == "nats"
        assert rep["spec"] == spec_doc()
        res = rep["results"]
        assert res["status"] == "emm_exists"
        assert abs(res["kappa0"] - (-5.0 / 9.0)) <= 1e-10
        assert math.isclose(res["entropy"], 0.05 ** 2 / 0.18, rel_tol=1e-9)
        assert "timings" in rep and rep["timings"]["seconds"] >= 0

    def test_no_emm_verdict_is_a_success(self, tmp_path, write_spec):
        doc = spec_doc(b=0.3, nu={"kind": "symmetric_alpha_stable",
                                  "alpha": 1.5})
        code, rep = run(tmp_path, "solve", write_spec(doc))
        assert code == 0
        assert rep["results"]["status"] == "no_emm"

    def test_arbitrage_verdict_is_a_success(self, tmp_path):
        code, rep = run(tmp_path, "solve", str(_MODELS / "arbitrage.json"))
        assert code == 0
        assert rep["results"]["status"] == "arbitrage_market"

    def test_geometric_spec(self, tmp_path):
        code, rep = run(tmp_path, "solve", str(_MODELS / "geometric_kou.json"))
        assert code == 0
        res = rep["results"]
        assert res["market"] == "geometric"
        assert res["status"] == "emm_exists"
        assert res["statuses_consistent"] is True
        assert "linear_equivalent" in res

    def test_geometric_stable_spec(self, tmp_path, write_spec):
        # the geometric tilt needs e^{κX} moments, which a stable law
        # lacks; the stochastic logarithm's tilt exists, so the two
        # statuses disagree, and that is the answer
        doc = {"version": 1, "name": "g", "market": "geometric", "S0": 1,
               "b": 0.05, "sigma2": 0, "T": 1,
               "nu": {"kind": "symmetric_alpha_stable", "alpha": 1.5}}
        code, rep = run(tmp_path, "solve", write_spec(doc))
        assert code == 0
        res = rep["results"]
        assert res["status"] == "no_emm"
        assert res["linear_equivalent"]["status"] == "emm_exists"
        assert res["statuses_consistent"] is False

    def test_geometric_stable_linear_root(self, tmp_path, write_spec):
        alpha, b = 0.8, 0.05
        doc = {"version": 1, "name": "g", "market": "geometric", "S0": 1,
               "b": b, "sigma2": 0, "T": 1,
               "nu": {"kind": "symmetric_alpha_stable", "alpha": alpha}}
        code, rep = run(tmp_path, "solve", write_spec(doc))
        assert code == 0
        got = rep["results"]["linear_equivalent"]["kappa0"]
        assert got == pytest.approx(_stable_linear_root(alpha, b), abs=1e-9)

    def test_market_override_flag(self, tmp_path):
        spec = str(_MODELS / "geometric_brownian.json")
        code, rep = run(tmp_path, "solve", spec, "--market", "linear")
        assert code == 0
        assert rep["results"]["market"] == "linear"
        assert rep["flags"]["market"] == "linear"
        assert "linear_equivalent" not in rep["results"]

    def test_stdout_report(self, write_spec, capsys):
        code = main(["solve", write_spec(spec_doc())])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, _SCHEMA)
        assert rep["results"]["status"] == "emm_exists"


class TestDomain:
    def test_kou_interval(self, tmp_path):
        code, rep = run(tmp_path, "domain", str(_MODELS / "kou.json"))
        assert code == 0
        res = rep["results"]
        assert res["interval"]["a"] == -6.0 and res["interval"]["b"] == 8.0
        assert res["esscher_parameter"]["exists"] is True

    def test_undefined_mean_reported(self, tmp_path):
        code, rep = run(tmp_path, "domain", str(_MODELS / "stable_08.json"))
        assert code == 0
        res = rep["results"]
        assert res["interval"]["a"] == 0.0 and res["interval"]["b"] == 0.0
        assert res["esscher_parameter"]["exists"] is False
        assert "undefined" in res["esscher_parameter"]["diagnostic"]


class TestApprox:
    def test_trace_with_csv(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        # a longer earlier trace is replaced, not appended to
        csv_path.write_text("earlier trace\n" * 100)
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--n-max", "16", "--csv", str(csv_path))
        assert code == 0
        res = rep["results"]
        assert res["schedule"] == [1, 2, 4, 8, 16]
        assert len(res["steps"]) == 5
        assert res["penalty"] == "default_quadratic"
        assert res["csv_path"] == str(csv_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0].keys()) == _TRACE_COLUMNS
        assert len(rows) == 5
        for row, step in zip(rows, res["steps"]):
            for col in _TRACE_COLUMNS:
                assert float(row[col]) == step[col]

    def test_unwritable_csv_path_is_invalid_input(self, tmp_path, capsys):
        csv_path = tmp_path / "absent" / "trace.csv"
        code = main(["approx", str(_MODELS / "kou.json"), "--n-max", "2",
                     "--csv", str(csv_path)])
        assert code == 2
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, _SCHEMA)
        assert rep["error"]["type"] == "ValidationError"
        assert rep["error"]["message"].startswith("--csv: ")
        assert "results" not in rep
        assert "No such file or directory" in captured.err
        assert str(csv_path) in captured.err

    def test_unwritable_csv_path_fails_before_the_schedule(
            self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("approx_sequence ran before --csv was opened")

        monkeypatch.setattr(cli, "approx_sequence", never)
        csv_path = tmp_path / "absent" / "trace.csv"
        code = main(["approx", str(_MODELS / "cgmy.json"), "--n-max", "4096",
                     "--csv", str(csv_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"]["type"] == "ValidationError"
        assert captured.err.startswith("levy-emm: error: --csv: ")

    def test_failed_run_leaves_an_earlier_csv_untouched(
            self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise NoFiniteMinimizer("no finite minimizer")

        csv_path = tmp_path / "trace.csv"
        csv_path.write_text("earlier trace\n")
        monkeypatch.setattr(cli, "approx_sequence", fail)
        code = main(["approx", str(_MODELS / "kou.json"), "--n-max", "2",
                     "--csv", str(csv_path)])
        assert code == 3
        capsys.readouterr()
        assert csv_path.read_text() == "earlier trace\n"

    @pytest.mark.parametrize("n_max", [*range(1, 10), 64, 100, 4096, 4097])
    def test_schedule_doubles_up_to_n_max(self, n_max):
        want, n = [], 1
        while n <= n_max:
            want, n = want + [n], 2 * n
        assert _schedule_up_to(n_max) == tuple(
            want + ([n_max] if want[-1] != n_max else []))

    def test_n_max_included_even_off_schedule(self, tmp_path):
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--n-max", "10")
        assert code == 0
        assert rep["results"]["schedule"] == [1, 2, 4, 8, 10]

    def test_power_penalty_and_diagnostics(self, tmp_path):
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--n-max", "4", "--penalty", "power:4",
                        "--check-penalty")
        assert code == 0
        res = rep["results"]
        assert res["penalty"] == "power_4"
        assert res["penalty_diagnostics"]["passed"] is True

    def test_power_penalty_below_two_passes_the_diagnostics(self, tmp_path):
        # the diagnostics ask what the gate asks: power:1.5 passes both
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--n-max", "2", "--penalty", "power:1.5",
                        "--check-penalty")
        assert code == 0
        diag = rep["results"]["penalty_diagnostics"]
        assert diag["superlinear"] is True
        assert diag["passed"] is True

    def test_bad_penalty_flags(self, tmp_path):
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--penalty", "cubic")
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--penalty", "power:0.8")
        assert code == 2
        assert "superlinear" in rep["error"]["message"]

    @pytest.mark.parametrize("command,extra", [
        ("approx", ("--n-max", "2")),
        ("mc-check", ("--zn", "2", "--samples", "2000"))])
    def test_power_penalty_needs_p_above_four_thirds(self, tmp_path, command,
                                                     extra):
        # |x|/rho_n(x) must fall tenfold from 1e3 to 1e6: 1e3^(1-P) <= 0.1
        spec = str(_MODELS / "kou.json")
        code, rep = run(tmp_path, command, spec, *extra,
                        "--penalty", "power:1.2")
        assert code == 2
        assert rep["error"]["type"] == "PenaltyViolation"
        assert "P > 4/3" in rep["error"]["message"]
        code, rep = run(tmp_path, command, spec, *extra,
                        "--penalty", "power:1.34")
        assert code == 0

    def test_bad_n_max(self, tmp_path):
        code, rep = run(tmp_path, "approx", str(_MODELS / "kou.json"),
                        "--n-max", "0")
        assert code == 2

    def test_arbitrage_verdict_is_a_success(self, tmp_path):
        spec = str(_MODELS / "arbitrage.json")
        code, rep = run(tmp_path, "approx", spec)
        assert code == 0
        res = rep["results"]
        assert res["status"] == "arbitrage_market"
        assert res["steps"] == []
        _, solved = run(tmp_path, "solve", spec)
        assert res["verdict"] == solved["results"]["verdict"]


class TestConvert:
    def test_geometric_to_linear_brownian(self, tmp_path):
        code, rep = run(tmp_path, "convert",
                        str(_MODELS / "geometric_brownian.json"),
                        "--direction", "g2l")
        assert code == 0
        res = rep["results"]
        assert res["direction"] == "g2l"
        assert math.isclose(res["converted"]["b"], 0.05 + 0.045, rel_tol=1e-12)
        assert res["converted"]["sigma2"] == 0.09
        assert res["converted_nu_spec"] == {"kind": "zero"}

    def test_atoms_map_in_closed_form(self, tmp_path, write_spec):
        doc = spec_doc(market="geometric", S0=100.0,
                       nu={"kind": "finite_atomic",
                           "atoms": [{"x": 0.5, "mass": 1.0},
                                     {"x": -0.5, "mass": 1.0}]})
        code, rep = run(tmp_path, "convert", write_spec(doc),
                        "--direction", "g2l")
        assert code == 0
        atoms = rep["results"]["converted_nu_spec"]["atoms"]
        got = {a["x"]: a["mass"] for a in atoms}
        assert math.isclose(min(got), math.expm1(-0.5), rel_tol=1e-14)
        assert math.isclose(max(got), math.expm1(0.5), rel_tol=1e-14)

    def test_linear_to_geometric_roundtrip(self, tmp_path, write_spec):
        doc = spec_doc(nu={"kind": "finite_atomic",
                           "atoms": [{"x": 0.5, "mass": 1.0}]})
        code, rep = run(tmp_path, "convert", write_spec(doc),
                        "--direction", "l2g")
        assert code == 0
        atoms = rep["results"]["converted_nu_spec"]["atoms"]
        assert math.isclose(atoms[0]["x"], math.log1p(0.5), rel_tol=1e-14)

    def test_jumps_below_minus_one_rejected_for_l2g(self, tmp_path):
        code, rep = run(tmp_path, "convert", str(_MODELS / "kou.json"),
                        "--direction", "l2g")
        assert code == 2
        assert rep["error"]["type"] == "JumpBelowMinusOne"
        assert "results" not in rep

    def test_unrepresentable_image_measure_reported_as_null(self, tmp_path):
        code, rep = run(tmp_path, "convert", str(_MODELS / "kou.json"),
                        "--direction", "g2l")
        assert code == 0
        res = rep["results"]
        assert res["converted_nu_spec"] is None
        assert res["converted"]["b"] != res["input"]["b"]


class TestMcCheck:
    def test_auto_kappa(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        "--samples", "20000", "--seed", "4")
        assert code == 0
        res = rep["results"]
        assert res["kappa_source"] == "auto"
        assert res["n_samples"] == 20000
        assert abs(res["martingale_defect"]["z"]) <= 5
        assert abs(res["entropy"]["z"]) <= 5
        assert res["entropy"]["analytic"] > 0

    def test_auto_kappa_solves_once(self, tmp_path, call_counts):
        # the analytic entropy is the solve's own, not a second evaluation
        calls = call_counts("exp_moment_interval")
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        "--samples", "2000")
        assert code == 0
        assert rep["results"]["entropy"]["analytic"] > 0
        assert calls == {"exp_moment_interval": 1}

    def test_explicit_kappa(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        "--samples", "5000", "--kappa", "0.2")
        assert code == 0
        assert rep["results"]["kappa"] == 0.2
        assert rep["results"]["kappa_source"] == "flag"

    @pytest.mark.parametrize("flag", [("--samples", "0"),
                                      ("--epsilon", "2")])
    def test_bad_sampling_flags(self, tmp_path, flag):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        *flag)
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"
        assert "results" not in rep

    @pytest.mark.parametrize("flag", ["--kappa", "--epsilon"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flags_are_invalid_input(self, tmp_path, flag, value):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        "--samples", "100", flag, value)
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"
        assert "results" not in rep
        assert rep["flags"][flag[2:]] == value

    def test_bad_kappa_flag(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "kou.json"),
                        "--kappa", "abc")
        assert code == 2

    def test_auto_kappa_without_emm_is_invalid_input(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "stable_08.json"),
                        "--samples", "1000")
        assert code == 2
        assert "no martingale tilt exists" in rep["error"]["message"]

    def test_collapsed_weights_are_a_numerics_failure(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "merton.json"),
                        "--samples", "20000", "--kappa", "50")
        assert code == 3
        assert rep["error"]["type"] == "DegenerateWeights"

    def test_pathwise_zn(self, tmp_path):
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "zn_atom.json"),
                        "--samples", "5000", "--seed", "2024", "--zn", "4")
        assert code == 0
        zn = rep["results"]["pathwise_zn"]
        assert zn["n"] == 4
        assert zn["bound_holds"] is True
        assert zn["max_zn"] <= zn["uniform_bound"]
        assert abs(zn["zn_mean"] - 1.0) <= 5 * zn["zn_se"]

    def test_pathwise_zn_without_recorded_jumps(self, tmp_path, monkeypatch):
        # a Brownian model records no jump: every path has Z^n = e^{T gap_n}
        # = 1 exactly, from an empty sizes array, and without a warning
        results = []

        def keep(*args, **kwargs):
            results.append(pathwise_log_zn(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "pathwise_log_zn", keep)
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "brownian.json"),
                        "--samples", "20000", "--zn", "2")
        assert code == 0
        (out,) = results
        assert out.log_zn.shape == (20000,)
        assert np.all(out.log_zn == 0.0)  # T gap_n, and gap_n = 0 here
        zn = rep["results"]["pathwise_zn"]
        assert zn["z_vs_one"] is None
        assert zn["zn_mean"] == zn["max_zn"] == zn["uniform_bound"] == 1.0
        assert zn["zn_se"] == 0.0 and zn["bound_holds"] is True

    def test_zn_index_validated(self, tmp_path, call_counts):
        calls = call_counts("sample_terminal")
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "zn_atom.json"),
                        "--samples", "100", "--zn", "0")
        assert code == 2
        assert calls == {"sample_terminal": 0}

    @pytest.mark.parametrize("penalty,error", [
        ("power:0.5", "PenaltyViolation"), ("bogus", "ValidationError")])
    def test_zn_penalty_validated_before_sampling(self, tmp_path, call_counts,
                                                  penalty, error):
        calls = call_counts("sample_terminal")
        code, rep = run(tmp_path, "mc-check", str(_MODELS / "zn_atom.json"),
                        "--zn", "2", "--penalty", penalty)
        assert code == 2
        assert rep["error"]["type"] == error
        assert "results" not in rep
        assert calls == {"sample_terminal": 0}

    def test_reports_are_reproducible(self, tmp_path):
        argv = ("mc-check", str(_MODELS / "kou.json"),
                "--samples", "5000", "--seed", "9")
        _, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        first.pop("timings")
        second.pop("timings")
        assert first == second


class TestTopLevel:
    def test_missing_spec_file(self, tmp_path):
        code, rep = run(tmp_path, "solve", str(tmp_path / "absent.json"))
        assert code == 2
        assert rep["error"]["type"] == "ValidationError"
        assert rep["spec"] is None and "results" not in rep

    def test_malformed_spec_file(self, tmp_path, write_spec):
        code, rep = run(tmp_path, "solve", write_spec(spec_doc(market="spot")))
        assert code == 2
        assert "market" in rep["error"]["message"]

    @pytest.mark.parametrize("command, extra, own", [
        ("solve", [], {"market"}),
        ("domain", [], set()),
        ("approx", ["--n-max", "2"],
         {"n_max", "penalty", "csv", "check_penalty"}),
        ("convert", ["--direction", "g2l"], {"direction"}),
        ("mc-check", ["--samples", "1000"],
         {"samples", "seed", "kappa", "epsilon", "small_jumps", "zn",
          "penalty"}),
    ])
    def test_flag_echo_holds_own_flags(self, tmp_path, write_spec, command,
                                       extra, own):
        code, rep = run(tmp_path, command, write_spec(spec_doc()), *extra)
        assert code == 0
        assert set(rep["flags"]) == own

    def test_unwritable_out_path_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        code = main(["solve", str(_MODELS / "kou.json"), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("levy-emm: error: --out: ")
        assert "No such file or directory" in captured.err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("levy-emm ")

    @pytest.mark.parametrize("case", sorted(_CLI_TEXT))
    def test_parser_text_matches_reference(self, case, capsys, monkeypatch):
        """Byte for byte what ``tools/reference_reports.py`` captured, at
        the terminal width it captured with."""
        golden = _CLI_TEXT[case]
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(golden["argv"])
        assert exc.value.code == golden["exit_code"]
        captured = capsys.readouterr()
        assert captured.out == golden["stdout"]
        assert captured.err == golden["stderr"]

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
