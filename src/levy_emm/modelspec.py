"""Model-specification files: a small JSON dialect describing a market.

A spec file pins down everything a batch run needs::

    {
      "version": 1,
      "name": "merton-style",
      "market": "linear",
      "b": 0.02,
      "sigma2": 0.04,
      "T": 1.0,
      "nu": {"kind": "jump_diffusion", "intensity": 1.0,
             "jumps": {"kind": "gaussian", "mean": -0.1, "std": 0.2}}
    }

Numbers may be written as JSON numbers or as decimal strings ("0.1");
either way they are parsed to binary floats.  Unknown fields anywhere in
the document are rejected, so typos fail loudly instead of silently
defaulting.  ``S0`` is accepted (and required) only for geometric-market
specs; the solvers never use it, but reports echo it so a spec file is a
complete description of the market in the underlying paper sense.

Only jump measures with a closed parametric form have a JSON spelling.
Measures built around callables (tempered weights, generic densities)
exist solely as library objects.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from .errors import ValidationError
from .levy_core.measures import (
    CGMY,
    DoubleExponentialJumps,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyMeasure,
    SymmetricAlphaStable,
    VarianceGamma,
    zero_measure,
)
from .levy_core.record import Record
from .levy_core.triplets import LevyTriplet

__all__ = [
    "ModelSpec",
    "parse_model",
    "load_model",
    "serialize_model",
    "measure_to_dict",
    "measure_from_dict",
]

_MARKETS = ("linear", "geometric")


def _number(raw: Any, where: str) -> float:
    """Accept a JSON number or a decimal string; reject everything else."""
    if isinstance(raw, bool) or raw is None:
        raise ValidationError(f"{where}: expected a number, got {raw!r}")
    if isinstance(raw, (int, float)):
        value = float(raw)
    elif isinstance(raw, str):
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(
                f"{where}: {raw!r} is not a decimal number") from None
    else:
        raise ValidationError(f"{where}: expected a number, got {raw!r}")
    if value != value or value in (float("inf"), float("-inf")):
        raise ValidationError(f"{where}: must be finite, got {value}")
    return value


def _fields(raw: Mapping[str, Any], required: tuple, optional: tuple,
            where: str) -> dict:
    """Validate the key set of a JSON object and return it as a dict."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where}: expected an object, got {raw!r}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ValidationError(
            f"{where}: unknown field(s) {sorted(unknown)}")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ValidationError(f"{where}: missing field(s) {missing}")
    return dict(raw)


def _jump_distribution(raw: Mapping[str, Any], where: str):
    kind = raw.get("kind")
    if kind == "gaussian":
        d = _fields(raw, ("kind", "mean", "std"), (), where)
        return GaussianJumps(mean=_number(d["mean"], f"{where}.mean"),
                             std=_number(d["std"], f"{where}.std"))
    if kind == "double_exponential":
        d = _fields(raw, ("kind", "p", "eta_plus", "eta_minus"), (), where)
        return DoubleExponentialJumps(
            p=_number(d["p"], f"{where}.p"),
            eta_plus=_number(d["eta_plus"], f"{where}.eta_plus"),
            eta_minus=_number(d["eta_minus"], f"{where}.eta_minus"))
    raise ValidationError(
        f"{where}.kind: expected 'gaussian' or 'double_exponential', "
        f"got {kind!r}")


def measure_from_dict(raw: Mapping[str, Any],
                      where: str = "nu") -> LevyMeasure:
    """Build a jump measure from its tagged-union JSON form."""
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{where}: expected an object, got {raw!r}")
    kind = raw.get("kind")
    if kind == "zero":
        _fields(raw, ("kind",), (), where)
        return zero_measure()
    if kind == "finite_atomic":
        d = _fields(raw, ("kind", "atoms"), (), where)
        atoms_raw = d["atoms"]
        if not isinstance(atoms_raw, list):
            raise ValidationError(f"{where}.atoms: expected a list")
        atoms = []
        for i, entry in enumerate(atoms_raw):
            e = _fields(entry, ("x", "mass"), (), f"{where}.atoms[{i}]")
            atoms.append((_number(e["x"], f"{where}.atoms[{i}].x"),
                          _number(e["mass"], f"{where}.atoms[{i}].mass")))
        return FiniteAtomic(tuple(atoms))
    if kind == "jump_diffusion":
        d = _fields(raw, ("kind", "intensity", "jumps"), (), where)
        return JumpDiffusion(
            intensity=_number(d["intensity"], f"{where}.intensity"),
            jumps=_jump_distribution(d["jumps"], f"{where}.jumps"))
    if kind == "variance_gamma":
        d = _fields(raw, ("kind", "C", "G", "M"), (), where)
        return VarianceGamma(C=_number(d["C"], f"{where}.C"),
                             G=_number(d["G"], f"{where}.G"),
                             M=_number(d["M"], f"{where}.M"))
    if kind == "cgmy":
        d = _fields(raw, ("kind", "C", "G", "M", "Y"), (), where)
        y = _number(d["Y"], f"{where}.Y")
        if not 0.0 < y < 2.0:  # Y = 0 is spelled "variance_gamma"
            raise ValidationError(f"{where}.Y: must lie in (0, 2), got {y}")
        return CGMY(C=_number(d["C"], f"{where}.C"),
                    G=_number(d["G"], f"{where}.G"),
                    M=_number(d["M"], f"{where}.M"), Y=y)
    if kind == "symmetric_alpha_stable":
        d = _fields(raw, ("kind", "alpha"), ("scale",), where)
        scale = _number(d["scale"], f"{where}.scale") if "scale" in d else 1.0
        return SymmetricAlphaStable(
            alpha=_number(d["alpha"], f"{where}.alpha"), scale=scale)
    raise ValidationError(
        f"{where}.kind: unknown jump-measure kind {kind!r}")


def measure_to_dict(nu: LevyMeasure) -> dict:
    """Inverse of :func:`measure_from_dict` for the JSON-spellable kinds."""
    if isinstance(nu, FiniteAtomic):
        if not nu.atom_list:
            return {"kind": "zero"}
        return {"kind": "finite_atomic",
                "atoms": [{"x": x, "mass": m} for x, m in nu.atom_list]}
    if isinstance(nu, JumpDiffusion):
        jumps = nu.jumps
        if isinstance(jumps, GaussianJumps):
            jd = {"kind": "gaussian", "mean": jumps.mean, "std": jumps.std}
        elif isinstance(jumps, DoubleExponentialJumps):
            jd = {"kind": "double_exponential", "p": jumps.p,
                  "eta_plus": jumps.eta_plus, "eta_minus": jumps.eta_minus}
        else:
            raise ValidationError(
                f"jump distribution {type(jumps).__name__} has no JSON form")
        return {"kind": "jump_diffusion", "intensity": nu.intensity,
                "jumps": jd}
    if isinstance(nu, CGMY):
        if nu.Y == 0.0:
            return {"kind": "variance_gamma", "C": nu.C, "G": nu.G, "M": nu.M}
        return {"kind": "cgmy", "C": nu.C, "G": nu.G, "M": nu.M, "Y": nu.Y}
    if isinstance(nu, SymmetricAlphaStable):
        return {"kind": "symmetric_alpha_stable", "alpha": nu.alpha,
                "scale": nu.scale}
    raise ValidationError(
        f"jump measure {type(nu).__name__} has no JSON form")


class ModelSpec(Record):
    """A parsed, validated model file.

    ``market`` records whether ``(b, sigma2, nu)`` describes the log-price
    process itself (geometric, with initial price ``S0``) or the driving
    process of a stochastic exponential (linear, ``S0`` absent).
    """

    name: str
    market: str
    b: float
    sigma2: float
    nu: LevyMeasure
    T: float
    S0: Optional[float] = None

    @property
    def triplet(self) -> LevyTriplet:
        return LevyTriplet(self.b, self.sigma2, self.nu)


def parse_model(raw: Mapping[str, Any]) -> ModelSpec:
    """Validate a decoded JSON document and build the :class:`ModelSpec`."""
    d = _fields(raw, ("version", "name", "market", "b", "sigma2", "nu", "T"),
                ("S0",), "spec")
    if d["version"] != 1:
        raise ValidationError(
            f"spec.version: expected 1, got {d['version']!r}")
    name = d["name"]
    if not isinstance(name, str) or not name:
        raise ValidationError("spec.name: expected a non-empty string")
    market = d["market"]
    if market not in _MARKETS:
        raise ValidationError(
            f"spec.market: expected one of {list(_MARKETS)}, got {market!r}")
    s0: Optional[float] = None
    if market == "geometric":
        if "S0" not in d:
            raise ValidationError("spec.S0: required for geometric markets")
        s0 = _number(d["S0"], "spec.S0")
        if s0 <= 0.0:
            raise ValidationError(f"spec.S0: must be > 0, got {s0}")
    elif "S0" in d:
        raise ValidationError(
            "spec.S0: only meaningful for geometric markets")
    horizon = _number(d["T"], "spec.T")
    if horizon <= 0.0:
        raise ValidationError(f"spec.T: must be > 0, got {horizon}")
    sigma2 = _number(d["sigma2"], "spec.sigma2")
    if sigma2 < 0.0:
        raise ValidationError(f"spec.sigma2: must be >= 0, got {sigma2}")
    return ModelSpec(name=name, market=market,
                     b=_number(d["b"], "spec.b"), sigma2=sigma2,
                     nu=measure_from_dict(d["nu"]), T=horizon, S0=s0)


def load_model(path: str) -> ModelSpec:
    """Read and validate a spec file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec file is not valid JSON: {exc}") from exc
    return parse_model(raw)


def serialize_model(spec: ModelSpec) -> dict:
    """Canonical JSON form; inverse of :func:`parse_model`.

    Numbers come back as JSON numbers, so a spec written with plain
    numbers round-trips field-identically and a spec written with decimal
    strings canonicalizes in one pass (the map is idempotent).
    """
    out: dict = {"version": 1, "name": spec.name, "market": spec.market}
    if spec.S0 is not None:
        out["S0"] = spec.S0
    out.update(b=spec.b, sigma2=spec.sigma2,
               nu=measure_to_dict(spec.nu), T=spec.T)
    return out
