"""Checks of every op's report against the oracle or against properties
the method must have.  :func:`check` returns a list of violations.

Tolerances: a reported root must make the oracle's function vanish to
``ROOT_TOL``; reported entropies and drifts must match the oracle to
``VALUE_TOL`` relative (absolute below one); Monte Carlo z-scores must
stay within ``Z_MAX``, which a correct program exceeds with probability
below 1e-6 per check.
"""

from __future__ import annotations

import math

import oracle
import workloads

ROOT_TOL = 1e-8
VALUE_TOL = 1e-8
IDENTITY_TOL = 1e-9
Z_MAX = 5.0


def known_failure(op: dict) -> bool:
    """The op that fails today because of a fault in the program."""
    return (op["command"] == "solve"
            and op["spec"]["name"] == workloads.FAILING_SPEC["name"])


def _close(x, y, tol: float = VALUE_TOL) -> bool:
    return x is not None and abs(x - y) <= tol * max(1.0, abs(y))


def _end(value):
    return {"-inf": -math.inf, "inf": math.inf}.get(value, value)


class _Checker:
    def __init__(self, op: dict, report: dict) -> None:
        self.op, self.spec = op, op["spec"]
        self.report = report
        self.results = report.get("results") or {}
        self.violations = []

    def need(self, ok: bool, what: str) -> bool:
        if not ok:
            self.violations.append(f"{self.op['id']}: {what}")
        return ok

    # shared pieces ------------------------------------------------------
    def interval(self, described: dict) -> None:
        expect = oracle.moment_interval(self.spec["nu"])
        got = {key: _end(value) for key, value in described.items()}
        self.need(got == expect, f"interval {described} != oracle {expect}")

    def linear_root(self, spec: dict, k, what: str) -> bool:
        if not self.need(k is not None, f"{what}: no tilt reported"):
            return False
        try:
            residual = oracle.cumulant_derivative(spec, k)
        except oracle.OutsideDomain as exc:
            return self.need(False, f"{what}: kappa {k} outside E ({exc})")
        return self.need(abs(residual) <= ROOT_TOL,
                         f"{what}: c'({k}) = {residual:.3g}, not a root")

    def no_linear_root(self, spec: dict, what: str):
        """The oracle's minimiser when ``c'`` has no root on ``E``."""
        if oracle.is_monotone(spec):
            return None
        found = oracle.min_cumulant(spec)
        self.need(found is not None, f"{what}: oracle finds a root of c' on E")
        return found

    # commands -----------------------------------------------------------
    def solve(self) -> None:
        r = self.results
        if self.spec["market"] == "geometric":
            self.solve_geometric()
            return
        status, T = r.get("status"), float(self.spec["T"])
        if r.get("interval") is not None:
            self.interval(r["interval"])
        self.need((status == "arbitrage_market")
                  == oracle.is_monotone(self.spec), f"status {status}")
        if status in ("emm_exists", "p_is_already_emm"):
            k0 = r["kappa0"]
            if status == "p_is_already_emm":
                self.need(k0 == 0.0, "p_is_already_emm with kappa0 != 0")
            if self.linear_root(self.spec, k0, "solve"):
                expect = -T * oracle.cumulant(self.spec, k0)
                self.need(_close(r["entropy"], expect),
                          f"entropy {r['entropy']} != -T c(k0) = {expect}")
                self.need(r["infimum_entropy"] == r["entropy"],
                          "infimum_entropy != entropy")
        elif status == "no_emm":
            found = self.no_linear_root(self.spec, "no_emm")
            if found is not None:
                expect = -T * found[1] + 0.0
                self.need(_close(r["infimum_entropy"], expect),
                          f"infimum_entropy {r['infimum_entropy']} != "
                          f"-T min c = {expect}")
        else:
            self.need(status == "arbitrage_market", f"unknown status {status}")

    def solve_geometric(self) -> None:
        r, spec = self.results, self.spec
        status = r.get("status")
        if status in ("emm_exists", "p_is_already_emm"):
            k0 = r["kappa0"]
            iv = oracle.moment_interval(spec["nu"])
            if not self.need(k0 is not None and oracle.in_interval(iv, k0)
                             and oracle.in_interval(iv, k0 + 1.0),
                             f"geometric kappa0 {k0} outside I or I - 1"):
                return
            g = oracle.cumulant(spec, k0 + 1.0) - oracle.cumulant(spec, k0)
            self.need(abs(g) <= ROOT_TOL,
                      f"c(k0+1) - c(k0) = {g:.3g} at k0 = {k0}")
            if r["entropy"] is not None:
                expect = oracle.esscher_entropy(spec, k0)
                self.need(_close(r["entropy"], expect),
                          f"entropy {r['entropy']} != oracle {expect}")
        elif status == "no_emm":
            self.need(oracle.geometric_root(spec) is None,
                      "no_emm but the oracle finds a geometric root")
        else:
            self.need(status == "arbitrage_market"
                      and oracle.is_monotone(spec), f"status {status}")

    def domain(self) -> None:
        r = self.results
        self.interval(r["interval"])
        par = r["esscher_parameter"]
        if par["exists"]:
            self.linear_root(self.spec, par["kappa0"], "domain")
        else:
            self.no_linear_root(self.spec, "domain")

    def convert(self) -> None:
        r, spec = self.results, self.spec
        out = r["converted"]
        b, sigma2 = float(spec["b"]), float(spec["sigma2"])
        # l2g subtracts sigma2/2 and the same jump integral g2l added
        jump_integral = oracle.conversion_drift(spec) - b - 0.5 * sigma2
        back = out["b"] - 0.5 * out["sigma2"] - jump_integral
        self.need(_close(back, b), f"g2l then l2g gives drift {back}, "
                                   f"input {b}")
        self.need(out["sigma2"] == float(spec["sigma2"]), "sigma2 changed")
        if spec["nu"]["kind"] == "finite_atomic":
            expect_atoms = sorted([math.expm1(float(a["x"])), float(a["mass"])]
                                  for a in spec["nu"]["atoms"])
            got = sorted(out["nu"]["atoms"])
            self.need(all(_close(x, ex, 1e-14) and m == em for (x, m), (ex, em)
                          in zip(got, expect_atoms)), "atoms not mapped by expm1")

    def approx(self) -> None:
        r, spec = self.results, self.spec
        T = float(spec["T"])
        steps = r["steps"]
        self.need(r["failures"] == [], f"failures {r['failures']}")
        self.need(len(steps) == workloads.APPROX_STAGES,
                  f"{len(steps)} stages")
        for s in steps:
            gap = s["entropy_vs_P"] - (s["entropy_n"] + s["correction_n"])
            self.need(abs(gap) <= IDENTITY_TOL * max(1.0, abs(s["entropy_vs_P"])),
                      f"n={s['n']}: entropy_vs_P - entropy_n - correction_n "
                      f"= {gap:.3g}")
        k_lim, h_lim = r["kappa_limit"], r["entropy_limit"]
        found = oracle.min_cumulant(spec)
        if found is not None:
            self.need(k_lim == found[0] and _close(h_lim, -T * found[1] + 0.0),
                      f"limits ({k_lim}, {h_lim}) != oracle minimum {found}")
        else:
            self.linear_root(spec, k_lim, "kappa_limit")
            expect = -T * oracle.cumulant(spec, k_lim) if k_lim is not None else 0
            self.need(_close(h_lim, expect),
                      f"entropy_limit {h_lim} != -T c(kappa_limit) = {expect}")
        if steps:
            # the tilt moves monotonically to its limit only where the
            # tempered measure stays symmetric; elsewhere each stage is
            # checked against the oracle's tempered c_n' below
            shrinking = [("entropy_vs_P", h_lim)]
            if spec["nu"]["kind"] == "symmetric_alpha_stable":
                shrinking.append(("kappa_n", k_lim))
            first, last = steps[0], steps[-1]
            for key, limit in shrinking:
                d0, d1 = abs(first[key] - limit), abs(last[key] - limit)
                self.need(d1 < d0 or d0 == d1 == 0.0,
                          f"|{key} - limit| goes {d0:.3g} -> {d1:.3g}")
        penalty = dict(zip(self.op["flags"][::2],
                           self.op["flags"][1::2]))["--penalty"]
        for s in steps:
            residual = oracle.tempered_derivative(spec, penalty, s["n"],
                                                  s["kappa_n"])
            self.need(abs(residual) <= ROOT_TOL,
                      f"n={s['n']}: c_n'({s['kappa_n']}) = {residual:.3g}, "
                      f"not a root")

    def mc_check(self) -> None:
        r, spec = self.results, self.spec
        self.need(r["n_samples"] == workloads.MC_SAMPLES,
                  f"{r['n_samples']} samples")
        k = r["kappa"]
        self.linear_root(spec, k, "mc kappa")
        defect = r["martingale_defect"]
        self.need(defect["z"] is not None and abs(defect["z"]) <= Z_MAX,
                  f"defect z = {defect['z']}")
        ent = r["entropy"]
        gap = ent["estimate"] - oracle.esscher_entropy(spec, k)
        self.need(abs(gap) <= Z_MAX * ent["se"],
                  f"entropy off the oracle's by {gap:.3g}, se {ent['se']:.3g}")
        zn = r.get("pathwise_zn")
        if "--zn" in self.op["flags"]:
            if not self.need(zn is not None, "no pathwise_zn block"):
                return
            self.need(zn["bound_holds"] is True, "Z^n bound violated")
            # z_vs_one is null only when every path has the same Z^n
            self.need(abs(zn["zn_mean"] - 1.0) <= Z_MAX * zn["zn_se"],
                      f"Z^n mean {zn['zn_mean']}, se {zn['zn_se']}")
            bound = math.exp(float(spec["T"])
                             * oracle.removed_mass(spec, "quadratic", 1))
            self.need(_close(zn["uniform_bound"], bound, 1e-7),
                      f"uniform bound {zn['uniform_bound']} != {bound}")


def check(op: dict, result: dict) -> list:
    """Violations for one op's result; empty when it is correct.

    A known-failing op that exits 3, the program's code for a numerical
    failure, is not a violation (it is counted as failed); any other
    failure is.
    """
    if result["code"] != 0:
        if known_failure(op) and result["code"] == 3:
            return []
        return [f"{op['id']}: exit {result['code']} {result['error'] or ''}"
                f"{(result['report'] or {}).get('error', '')}"]
    checker = _Checker(op, result["report"])
    if known_failure(op):
        checker.need(checker.results.get("status") == "no_emm",
                     "geometric stable status is not no_emm")
        return checker.violations
    method = {"solve": checker.solve, "domain": checker.domain,
              "convert": checker.convert, "approx": checker.approx,
              "mc-check": checker.mc_check}[op["command"]]
    try:
        method()
    except (KeyError, TypeError, oracle.OutsideDomain) as exc:
        checker.need(False, f"report does not fit its check: "
                            f"{type(exc).__name__}: {exc}")
    return checker.violations
