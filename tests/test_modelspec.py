"""Parsing, validation and canonical serialization of model files."""

from __future__ import annotations

import pytest

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyTriplet,
    ModelSpec,
    SymmetricAlphaStable,
    VarianceGamma,
    load_model,
    parse_model,
    serialize_model,
    zero_measure,
)
from levy_emm.errors import ValidationError

from conftest import spec_doc

_KINDS = [
    ({"kind": "zero"}, zero_measure()),
    ({"kind": "finite_atomic",
      "atoms": [{"x": 0.5, "mass": 1.0}, {"x": -0.5, "mass": 1.0}]},
     FiniteAtomic(((0.5, 1.0), (-0.5, 1.0)))),
    ({"kind": "jump_diffusion", "intensity": 1.0,
      "jumps": {"kind": "gaussian", "mean": -0.1, "std": 0.2}},
     JumpDiffusion(1.0, GaussianJumps(-0.1, 0.2))),
    ({"kind": "jump_diffusion", "intensity": 1.5,
      "jumps": {"kind": "double_exponential",
                "p": 0.4, "eta_plus": 8.0, "eta_minus": 6.0}},
     JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0))),
    ({"kind": "variance_gamma", "C": 1.0, "G": 6.0, "M": 9.0},
     VarianceGamma(1.0, 6.0, 9.0)),
    ({"kind": "cgmy", "C": 0.5, "G": 4.0, "M": 7.0, "Y": 0.5},
     CGMY(0.5, 4.0, 7.0, 0.5)),
    ({"kind": "symmetric_alpha_stable", "alpha": 0.8, "scale": 1.0},
     SymmetricAlphaStable(0.8, 1.0)),
]


class TestParse:
    def test_minimal_spec(self):
        spec = parse_model(spec_doc())
        assert spec.name == "test-model" and spec.market == "linear"
        assert (spec.b, spec.sigma2, spec.T) == (0.05, 0.09, 1.0)
        assert spec.nu == zero_measure()
        assert spec.S0 is None
        assert spec.triplet == LevyTriplet(0.05, 0.09, zero_measure())

    @pytest.mark.parametrize("nu_doc,nu_obj", _KINDS,
                             ids=[d["kind"] for d, _ in _KINDS])
    def test_every_measure_kind(self, nu_doc, nu_obj):
        assert parse_model(spec_doc(nu=nu_doc)).nu == nu_obj

    def test_stable_scale_defaults_to_one(self):
        doc = spec_doc(nu={"kind": "symmetric_alpha_stable", "alpha": 1.5})
        assert parse_model(doc).nu == SymmetricAlphaStable(1.5, 1.0)

    def test_decimal_strings_accepted(self):
        doc = spec_doc(b="0.05", sigma2="9e-2", T="1",
                       nu={"kind": "variance_gamma",
                           "C": "1.0", "G": "6", "M": "9"})
        spec = parse_model(doc)
        assert (spec.b, spec.sigma2, spec.T) == (0.05, 0.09, 1.0)
        assert spec.nu == VarianceGamma(1.0, 6.0, 9.0)

    def test_geometric_requires_positive_s0(self):
        with pytest.raises(ValidationError, match="S0"):
            parse_model(spec_doc(market="geometric"))
        with pytest.raises(ValidationError, match="S0"):
            parse_model(spec_doc(market="geometric", S0=0.0))
        spec = parse_model(spec_doc(market="geometric", S0=100))
        assert spec.S0 == 100.0

    def test_s0_rejected_for_linear(self):
        with pytest.raises(ValidationError, match="S0"):
            parse_model(spec_doc(S0=100.0))

    def test_version_checked(self):
        with pytest.raises(ValidationError, match="version"):
            parse_model(spec_doc(version=2))

    def test_market_checked(self):
        with pytest.raises(ValidationError, match="market"):
            parse_model(spec_doc(market="forward"))

    def test_name_checked(self):
        with pytest.raises(ValidationError, match="name"):
            parse_model(spec_doc(name=""))
        with pytest.raises(ValidationError, match="name"):
            parse_model(spec_doc(name=7))

    def test_scalar_constraints(self):
        with pytest.raises(ValidationError, match="T"):
            parse_model(spec_doc(T=0.0))
        with pytest.raises(ValidationError, match="sigma2"):
            parse_model(spec_doc(sigma2=-0.1))
        with pytest.raises(ValidationError, match="finite"):
            parse_model(spec_doc(b="inf"))
        with pytest.raises(ValidationError, match="finite"):
            parse_model(spec_doc(b="nan"))

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValidationError, match="expected a number"):
            parse_model(spec_doc(b=True))

    def test_non_decimal_string_rejected(self):
        with pytest.raises(ValidationError, match="not a decimal"):
            parse_model(spec_doc(b="half"))

    def test_unknown_fields_rejected_everywhere(self):
        with pytest.raises(ValidationError, match="unknown field"):
            parse_model(spec_doc(extra=1))
        with pytest.raises(ValidationError, match="unknown field"):
            parse_model(spec_doc(nu={"kind": "zero", "x": 1}))
        with pytest.raises(ValidationError, match="unknown field"):
            parse_model(spec_doc(nu={
                "kind": "jump_diffusion", "intensity": 1.0,
                "jumps": {"kind": "gaussian", "mean": 0.0, "std": 0.2,
                          "skew": 1.0}}))
        with pytest.raises(ValidationError, match="unknown field"):
            parse_model(spec_doc(nu={
                "kind": "finite_atomic",
                "atoms": [{"x": 1.5, "mass": 1.0, "weight": 2.0}]}))

    def test_missing_fields_reported(self):
        doc = spec_doc()
        del doc["b"]
        with pytest.raises(ValidationError, match="missing"):
            parse_model(doc)
        with pytest.raises(ValidationError, match="missing"):
            parse_model(spec_doc(nu={"kind": "cgmy", "C": 1.0}))

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValidationError, match="unknown jump-measure"):
            parse_model(spec_doc(nu={"kind": "levy_flight"}))
        with pytest.raises(ValidationError, match="jumps.kind"):
            parse_model(spec_doc(nu={
                "kind": "jump_diffusion", "intensity": 1.0,
                "jumps": {"kind": "cauchy"}}))

    def test_atoms_must_be_a_list(self):
        with pytest.raises(ValidationError, match="atoms"):
            parse_model(spec_doc(nu={"kind": "finite_atomic", "atoms": {}}))

    def test_measure_constraints_propagate(self):
        # Y = 0 is spelled "variance_gamma", never "cgmy"
        for y in (2.5, 0.0):
            with pytest.raises(ValidationError, match="Y"):
                parse_model(spec_doc(nu={"kind": "cgmy", "C": 1.0, "G": 4.0,
                                         "M": 7.0, "Y": y}))
        with pytest.raises(ValidationError, match="atom"):
            parse_model(spec_doc(nu={"kind": "finite_atomic",
                                     "atoms": [{"x": 0.0, "mass": 1.0}]}))


class TestLoad:
    def test_load_from_file(self, write_spec):
        spec = load_model(write_spec(spec_doc(name="from-disk")))
        assert spec.name == "from-disk"
        # variance-gamma is a CGMY at Y = 0 that keeps its own spelling
        vg = spec_doc(nu={"kind": "variance_gamma", "C": 1.0, "G": 6.0,
                          "M": 9.0})
        assert serialize_model(load_model(write_spec(vg, "vg.json"))) == vg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_model(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_model(str(bad))


class TestSerialize:
    @pytest.mark.parametrize("nu_doc,nu_obj", _KINDS,
                             ids=[d["kind"] for d, _ in _KINDS])
    def test_round_trip_is_field_identical(self, nu_doc, nu_obj):
        doc = spec_doc(nu=nu_doc)
        assert serialize_model(parse_model(doc)) == doc

    def test_canonicalization_is_idempotent(self):
        doc = spec_doc(b="0.05", sigma2="9e-2", T="1",
                       nu={"kind": "cgmy", "C": "1", "G": "4", "M": "7",
                           "Y": "0.5"})
        first = serialize_model(parse_model(doc))
        second = serialize_model(parse_model(first))
        assert first == second
        assert isinstance(first["b"], float)
        assert isinstance(first["nu"]["Y"], float)

    def test_geometric_s0_round_trip(self):
        doc = spec_doc(market="geometric", S0=100.0)
        out = serialize_model(parse_model(doc))
        assert out == doc

    def test_empty_atomic_serializes_as_zero(self):
        spec = ModelSpec("m", "linear", 0.0, 1.0, FiniteAtomic(()), 1.0)
        assert serialize_model(spec)["nu"] == {"kind": "zero"}

    def test_callable_measures_have_no_json_form(self, stable08):
        from levy_emm import GenericDensity, TailDecay
        import numpy as np

        nu = GenericDensity(lambda x: np.exp(-np.abs(x)),
                            right=TailDecay.exponential(1.0),
                            left=TailDecay.exponential(1.0), symmetric=True)
        spec = ModelSpec("m", "linear", 0.0, 0.0, nu, 1.0)
        with pytest.raises(ValidationError, match="no JSON form"):
            serialize_model(spec)
