"""Seeded operation lists for the benchmark's workloads.

A workload run is a sequence of *rounds*.  Round ``i`` of a run with seed
``s`` is a list of ``levy-emm`` invocations whose parameters are drawn
from ``(workload, s, i)``; every round has the same commands, flags and
spec families in the same order, so the share of ops that fail is the
same in every run however many rounds it completes.  Each op is
``{"id", "command", "spec", "flags", "spec_file"}``; the runner writes
the spec to ``spec_file`` in the round's work directory.

Parameter ranges keep every draw away from the program's known failure
modes, so the only failing op is the fixed geometric symmetric-stable
``solve`` (see README.md).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import oracle

WORKLOADS = ("solve-mix", "approx-tempered", "mc-crosscheck")

# ops a run completes at least, so that ``op_tail_ms`` (the percentile
# with ten ops beyond it) is defined in every run; solve-mix runs two
# rounds at least, since its costliest op takes half a round's time and
# varies by a fifth from one run of it to the next
MIN_OPS = {"solve-mix": 200, "approx-tempered": 60, "mc-crosscheck": 50}
MC_SAMPLES = 20000
APPROX_N_MAX = 4
APPROX_STAGES = 3  # n = 1, 2, 4

# the op that fails today: QuadratureFailure while validating the
# ExpJumpImage of the stable measure; independent of the seed
FAILING_SPEC = {"version": 1, "name": "geometric-stable-fixed",
                "market": "geometric", "S0": 1.0, "b": 0.05, "sigma2": 0.0,
                "T": 1.0, "nu": {"kind": "symmetric_alpha_stable",
                                 "alpha": 1.5}}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _spec(name: str, market: str, b: float, sigma2: float, nu: dict) -> dict:
    spec = {"version": 1, "name": name, "market": market, "b": b,
            "sigma2": sigma2, "T": 1.0, "nu": nu}
    if market == "geometric":
        spec["S0"] = 1.0
    return spec


# ---------------------------------------------------------------------------
# parametric draws
# ---------------------------------------------------------------------------


def _atoms(rng: random.Random, lo: float, hi: float) -> dict:
    atoms = [{"x": _u(rng, lo, hi), "mass": _u(rng, 0.2, 1.5)},
             {"x": -_u(rng, lo, hi), "mass": _u(rng, 0.2, 1.5)}]
    if rng.random() < 0.5:
        atoms.append({"x": _u(rng, lo, hi) * rng.choice((-1, 1)),
                      "mass": _u(rng, 0.1, 0.8)})
    return {"kind": "finite_atomic", "atoms": atoms}


def _kou(rng: random.Random) -> dict:
    return {"kind": "jump_diffusion", "intensity": _u(rng, 0.5, 3.0),
            "jumps": {"kind": "double_exponential", "p": _u(rng, 0.2, 0.8),
                      "eta_plus": _u(rng, 3.0, 10.0),
                      "eta_minus": _u(rng, 2.5, 9.0)}}


def _merton(rng: random.Random) -> dict:
    return {"kind": "jump_diffusion", "intensity": _u(rng, 0.3, 2.0),
            "jumps": {"kind": "gaussian", "mean": _u(rng, -0.3, 0.2),
                      "std": _u(rng, 0.15, 0.45)}}


def _vg(rng: random.Random) -> dict:
    return {"kind": "variance_gamma", "C": _u(rng, 0.5, 2.0),
            "G": _u(rng, 3.0, 9.0), "M": _u(rng, 3.0, 9.0)}


def _cgmy(rng: random.Random, y_lo: float, y_hi: float) -> dict:
    # CGMY ops are the costliest of their workloads, and their cost moves
    # with the parameters; narrow ranges keep the round's cost steady
    return {"kind": "cgmy", "C": _u(rng, 0.4, 0.6), "G": _u(rng, 4.0, 5.0),
            "M": _u(rng, 4.0, 5.0), "Y": _u(rng, y_lo, y_hi)}


def _stable(rng: random.Random, lo: float, hi: float) -> dict:
    return {"kind": "symmetric_alpha_stable", "alpha": _u(rng, lo, hi)}


def _family_specs(rng: random.Random, market: str) -> list:
    tag = market[0]
    # five Brownian and five atomic specs a market make the cheap ops
    # three fifths of the round, so its median op sits inside their
    # cluster and not in the gap above it
    cheap = []
    for k in range(5):
        cheap.append(_spec(f"{tag}-brownian-{k}", market, _u(rng, -0.2, 0.2),
                           _u(rng, 0.01, 0.2), {"kind": "zero"}))
        cheap.append(_spec(f"{tag}-atomic-{k}", market, _u(rng, -0.2, 0.2),
                           _u(rng, 0.0, 0.05), _atoms(rng, 0.2, 2.0)))
    return cheap + [
        _spec(f"{tag}-kou", market, _u(rng, -0.1, 0.1), _u(rng, 0.0, 0.05),
              _kou(rng)),
        _spec(f"{tag}-merton", market, _u(rng, -0.1, 0.1),
              _u(rng, 0.005, 0.05), _merton(rng)),
        _spec(f"{tag}-vg", market, _u(rng, -0.1, 0.1), 0.0, _vg(rng)),
        # fixed for the reason given in _geometric_cgmy_no_emm
        _spec(f"{tag}-cgmy", market, 0.02, 0.0,
              {"kind": "cgmy", "C": 0.5, "G": 4.5, "M": 4.5, "Y": 0.6}),
    ]


def _geometric_cgmy_no_emm() -> dict:
    """Geometric CGMY(1, 5, 5, 1.5) with its drift half a unit past the
    threshold below which ``c(k+1) - c(k)`` stays negative on ``[-5, 4]``.

    The spec is the same for every seed: it is the round's costliest op,
    and its cost swings by a quarter with the parameters, which would make
    the run-to-run spread of ``ops_per_s`` larger than its bound.
    """
    spec = _spec("g-cgmy-no-emm", "geometric", 0.0, 0.0,
                 {"kind": "cgmy", "C": 1.0, "G": 5.0, "M": 5.0, "Y": 1.5})
    spec["b"] = round(-(oracle.cumulant(spec, 5.0)
                        - oracle.cumulant(spec, 4.0)) - 0.5, 6)
    return spec


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def _docs_specs(root: Path) -> list:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((root / "docs" / "models").glob("*.json"))]


def _solve_mix(rng: random.Random, root: Path) -> list:
    specs = _docs_specs(root)
    specs += _family_specs(rng, "linear") + _family_specs(rng, "geometric")
    specs.append(_spec("l-stable", "linear",
                       rng.choice((0.0, _u(rng, -0.2, 0.2))), 0.0,
                       _stable(rng, 0.3, 1.9)))
    no_emm = _geometric_cgmy_no_emm()
    specs.append(no_emm)
    specs.append(FAILING_SPEC)
    ops = []
    for spec in specs:
        ops.append(("solve", spec, []))
        # on CGMY with Y > 1 the program's c and c' stray from the oracle
        # by up to 4e-6 at some tilts (CHANGES.md, FOUND), which would fail
        # the root checks of domain on some seeds; the no_emm verdict of
        # solve holds by a wide margin
        if spec is not no_emm:
            ops.append(("domain", spec, []))
        if spec["market"] == "geometric":
            ops.append(("convert", spec, ["--direction", "g2l"]))
    return ops


def _approx(rng: random.Random) -> list:
    """Fifteen ops.  Op costs fall into four clusters: nine cheap ops
    (eight driftless stable and the atomic control, 0.003-0.17 s), VG and
    Merton (0.2-0.45 s), Kou and two drifted stable (0.5-0.8 s) and CGMY
    (1.4-1.8 s).  With four rounds, the median op lies inside the cheap
    cluster and ``op_tail_ms`` (p83.3, ten of sixty ops beyond it) in the
    middle of the third, not in a gap between clusters."""
    specs = []
    for k in range(8):
        specs.append(_spec(f"stable-{k}", "linear", 0.0, 0.0,
                           _stable(rng, 0.3, 1.0) if k % 2 == 0
                           else _stable(rng, 1.0, 1.9)))
    # above alpha = 1.1 the program's entropy decomposition drifts off the
    # identity by up to 6.5e-5 (CHANGES.md, FOUND); the op's cost swings
    # between 0.25 and 1.5 s on [0.5, 1.05] and by a third on [0.6, 0.9]
    for k in range(2):
        specs.append(_spec(f"stable-drift-{k}", "linear",
                           _u(rng, 0.05, 0.15) * rng.choice((-1, 1)), 0.0,
                           _stable(rng, 0.6, 0.9)))
    specs += [
        # fixed for the reason given in _geometric_cgmy_no_emm
        _spec("cgmy", "linear", 0.01, 0.0,
              {"kind": "cgmy", "C": 0.5, "G": 4.0, "M": 7.0, "Y": 0.8}),
        _spec("vg", "linear", _u(rng, -0.05, 0.05), 0.0, _vg(rng)),
        _spec("kou", "linear", _u(rng, -0.1, 0.1), _u(rng, 0.0, 0.05),
              {"kind": "jump_diffusion", "intensity": _u(rng, 0.5, 2.0),
               "jumps": {"kind": "double_exponential",
                         "p": _u(rng, 0.3, 0.7),
                         "eta_plus": _u(rng, 1.5, 3.0),
                         "eta_minus": _u(rng, 1.5, 3.0)}}),
        _spec("merton", "linear", _u(rng, -0.1, 0.1), _u(rng, 0.01, 0.05),
              {"kind": "jump_diffusion", "intensity": _u(rng, 0.3, 1.5),
               "jumps": {"kind": "gaussian", "mean": _u(rng, -0.3, 0.3),
                         "std": _u(rng, 0.5, 1.0)}}),
        _spec("atomic-control", "linear", _u(rng, -0.1, 0.1), 0.0,
              _atoms(rng, 1.2, 2.5)),
    ]
    # the power penalty goes to the cheaper half of the specs, since on
    # CGMY it costs two to three times the quadratic one
    power = {f"stable-{k}" for k in (1, 3, 5, 7)} | {"vg", "kou",
                                                     "atomic-control"}
    ops = []
    for spec in specs:
        penalty = (f"power:{_u(rng, 1.5, 4.0):g}" if spec["name"] in power
                   else "quadratic")
        ops.append(("approx", spec,
                    ["--n-max", str(APPROX_N_MAX), "--penalty", penalty]))
    return ops


def _with_tilt(draw) -> dict:
    """The first spec from ``draw()`` that has a linear martingale tilt by
    the oracle's root finder (``mc-check --kappa auto`` needs one)."""
    while True:
        spec = draw()
        if oracle.linear_root(spec) is not None:
            return spec


def _mc_crosscheck(rng: random.Random) -> list:
    """Plain ops (no jump records) and recorded ops (``--zn``).

    Plain Kou and Merton ops are the cheapest and make up ten of the
    round's seventeen ops, so the median op sits inside their cluster.
    """
    plain = []
    for k in range(5):
        plain += [_with_tilt(lambda: _spec(
                      f"plain-kou-{k}", "linear", _u(rng, -0.05, 0.05),
                      _u(rng, 0.01, 0.05), _kou(rng))),
                  _with_tilt(lambda: _spec(
                      f"plain-merton-{k}", "linear", _u(rng, -0.05, 0.05),
                      _u(rng, 0.01, 0.05), _merton(rng)))]
    for k in range(2):
        plain += [_with_tilt(lambda: _spec(
                      f"plain-vg-{k}", "linear", _u(rng, -0.03, 0.03), 0.0,
                      _vg(rng))),
                  _with_tilt(lambda: _spec(
                      f"plain-cgmy-{k}", "linear", _u(rng, -0.03, 0.03), 0.0,
                      _cgmy(rng, 0.5, 0.6)))]

    def zn_atomic() -> dict:
        atoms = _atoms(rng, 0.5, 2.5)
        atoms["atoms"][0]["x"] = _u(rng, 1.2, 2.5)  # Z^n must see a jump
        return _spec("zn-atomic", "linear", _u(rng, -0.1, 0.1),
                     _u(rng, 0.005, 0.02), atoms)

    recorded = [
        _with_tilt(zn_atomic),
        _with_tilt(lambda: _spec(
            "zn-kou", "linear", _u(rng, -0.05, 0.05), _u(rng, 0.01, 0.05),
            {"kind": "jump_diffusion", "intensity": _u(rng, 0.5, 2.0),
             "jumps": {"kind": "double_exponential", "p": _u(rng, 0.3, 0.7),
                       "eta_plus": _u(rng, 2.0, 4.0),
                       "eta_minus": _u(rng, 2.0, 4.0)}})),
        _with_tilt(lambda: _spec(
            "zn-merton", "linear", _u(rng, -0.05, 0.05), _u(rng, 0.01, 0.05),
            {"kind": "jump_diffusion", "intensity": _u(rng, 0.3, 1.5),
             "jumps": {"kind": "gaussian", "mean": _u(rng, -0.3, 0.3),
                       "std": _u(rng, 0.4, 0.8)}})),
    ]
    return ([("mc-check", spec, _mc_flags(rng)) for spec in plain]
            + [("mc-check", spec, _mc_flags(rng)
                + ["--zn", str(rng.choice((1, 2, 4, 8)))])
               for spec in recorded])


def _mc_flags(rng: random.Random) -> list:
    return ["--kappa", "auto", "--samples", str(MC_SAMPLES),
            "--seed", str(rng.randrange(2 ** 31))]


def round_ops(workload: str, seed: int, index: int, root: Path) -> list:
    """The op list of round ``index`` of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "solve-mix":
        drawn = _solve_mix(rng, root)
    elif workload == "approx-tempered":
        drawn = _approx(rng)
    elif workload == "mc-crosscheck":
        drawn = _mc_crosscheck(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for i, (command, spec, flags) in enumerate(drawn):
        ops.append({"id": f"{i:03d}-{command}-{spec['name']}",
                    "command": command, "spec": spec, "flags": flags,
                    "spec_file": f"{spec['name']}.json"})
    return ops
