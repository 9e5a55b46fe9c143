"""The frozen record base behaves as a frozen dataclass did.

One sample instance per record class in the package pins equality within
a class and inequality across classes, the hash of the field tuple (which
the ``lru_cache``s on measures and triplets key on; the classes with array
fields compare and hash by identity instead), the ``Cls(field=...)``
repr, immutability, and the validation each ``__post_init__`` does.  The
expected reprs are those the dataclass versions printed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from levy_emm import approximation, esscher, mc_oracle, mgf_analysis, modelspec
from levy_emm.errors import (KappaOutsideI, NegativeVariance,
                             UnsupportedMeasure, ValidationError)
from levy_emm.levy_core import measures, triplets
from levy_emm.levy_core.record import Record


def _samples():
    """``(instance, expected repr, bad keyword arguments or None, error)``
    for every record class.  Callables are builtins, whose reprs hold no
    address."""
    m, t, a, mc, g = measures, triplets, approximation, mc_oracle, mgf_analysis
    vg = m.CGMY(1.0, 2.0, 3.0, 0.0)
    atoms = m.FiniteAtomic(((0.5, 1.0), (-0.25, 2.0)))
    de = m.DoubleExponentialJumps(0.4, 8.0, 6.0)
    triplet = t.LevyTriplet(0.1, 0.2, vg)
    interval = g.ExpMomentInterval(-2.0, math.inf, True, False, False, False)
    minimum = g.MinimumPoint(0.5, g.MinimumCase.INTERIOR_ROOT, -0.25, interval)
    step = a.ApproxStep(2, 0.1, 0.2, 0.3, 0.4, 0.5)
    return [
        (m.TailDecay("exp", rate=2.0, power=-1.0),
         "TailDecay(kind='exp', rate=2.0, power=-1.0, cutoff=inf, base=None)",
         {"kind": "bogus"}, ValidationError),
        (atoms, "FiniteAtomic(atom_list=((0.5, 1.0), (-0.25, 2.0)))",
         {"atom_list": ((0.0, 1.0),)}, ValidationError),
        (m.GaussianJumps(-0.1, 0.2), "GaussianJumps(mean=-0.1, std=0.2)",
         {"mean": 0.0, "std": 0.0}, ValidationError),
        (de, "DoubleExponentialJumps(p=0.4, eta_plus=8.0, eta_minus=6.0)",
         {"p": 2.0, "eta_plus": 1.0, "eta_minus": 1.0}, ValidationError),
        (m.JumpDiffusion(1.5, de),
         "JumpDiffusion(intensity=1.5, jumps=DoubleExponentialJumps(p=0.4, "
         "eta_plus=8.0, eta_minus=6.0))",
         {"intensity": 0.0, "jumps": de}, ValidationError),
        (vg, "CGMY(C=1.0, G=2.0, M=3.0, Y=0.0)",
         {"C": 1, "G": 0, "M": 1, "Y": 0}, ValidationError),
        (m.CGMY(1.0, 2.0, 3.0, 0.5), "CGMY(C=1.0, G=2.0, M=3.0, Y=0.5)",
         {"C": 1.0, "G": 1.0, "M": 1.0, "Y": 2.5}, ValidationError),
        (m.SymmetricAlphaStable(1.5),
         "SymmetricAlphaStable(alpha=1.5, scale=1.0)",
         {"alpha": 2.5}, ValidationError),
        (m.Tempered(vg, np.negative, True),
         "Tempered(base=CGMY(C=1.0, G=2.0, M=3.0, Y=0.0), "
         "log_weight=<ufunc 'negative'>, even=True)", None, None),
        (m.ExpTilted(vg, 0.5),
         "ExpTilted(base=CGMY(C=1.0, G=2.0, M=3.0, Y=0.0), kappa=0.5)",
         {"base": m.SymmetricAlphaStable(1.5), "kappa": 0.5}, KappaOutsideI),
        (m.GenericDensity(np.negative, m.TailDecay.superexp(),
                          m.TailDecay.bounded(2.0), symmetric=True),
         "GenericDensity(density_fn=<ufunc 'negative'>, "
         "right=TailDecay(kind='superexp', rate=0.0, power=0.0, cutoff=inf, "
         "base=None), left=TailDecay(kind='bounded', rate=0.0, power=0.0, "
         "cutoff=2.0, base=None), symmetric=True)", None, None),
        (m.ExpJumpImage(vg),
         "ExpJumpImage(base=CGMY(C=1.0, G=2.0, M=3.0, Y=0.0))", None, None),
        (m.LogJumpImage(atoms),
         "LogJumpImage(base=FiniteAtomic(atom_list=((0.5, 1.0), "
         "(-0.25, 2.0))))", {"base": vg}, UnsupportedMeasure),
        (triplet,
         "LevyTriplet(b=0.1, sigma2=0.2, nu=CGMY(C=1.0, G=2.0, M=3.0, "
         "Y=0.0))", {"b": 0.0, "sigma2": -1.0, "nu": vg}, NegativeVariance),
        (a.PenaltyFamily("quadratic", max),
         "PenaltyFamily(kind='quadratic', rho=<built-in function max>, "
         "superlinear=True, even=True)", None, None),
        (step, "ApproxStep(n=2, kappa_n=0.1, entropy_n=0.2, correction_n=0.3, "
         "entropy_vs_P=0.4, mass_gap=0.5)", None, None),
        (a.ApproxTrace((step,), 0.1, 0.2, ((4, "failed"),)),
         "ApproxTrace(steps=(ApproxStep(n=2, kappa_n=0.1, entropy_n=0.2, "
         "correction_n=0.3, entropy_vs_P=0.4, mass_gap=0.5),), "
         "kappa_limit=0.1, entropy_limit=0.2, failures=((4, 'failed'),))",
         None, None),
        (a.PenaltyDiagnostics(True, False, True, {"monotone": "ok"}),
         "PenaltyDiagnostics(monotone_ok=True, superlinear_ok=False, "
         "integrable_ok=True, witnesses={'monotone': 'ok'})", None, None),
        (mc.SimConfig(1.0, 100),
         "SimConfig(T=1.0, n_samples=100, epsilon=0.01, seed=0, "
         "small_jump_mode='gaussian', record_jumps=False)",
         {"T": 1.0, "n_samples": 100, "epsilon": 2.0}, ValidationError),
        (mc.JumpRecords(np.array([0, 1]), np.array([0.5]), np.array([2.0])),
         "JumpRecords(offsets=array([0, 1]), times=array([0.5]), "
         "sizes=array([2.]))", None, None),
        (mc.SamplePack(np.array([1.0, 2.0]), 1.0, 3),
         "SamplePack(values=array([1., 2.]), T=1.0, seed=3, "
         "jump_records=None)", None, None),
        (mc._JumpPlan(2.0, None, True),
         "_JumpPlan(rate=2.0, draw=None, exact=True)", None, None),
        (mc.PathwiseZn(np.array([0.0]), 1.0, 0.1, 2.0),
         "PathwiseZn(log_zn=array([0.]), zn_mean=1.0, zn_se=0.1, "
         "uniform_bound=2.0)", None, None),
        (modelspec.ModelSpec("m", "linear", 0.1, 0.2, atoms, 1.0),
         "ModelSpec(name='m', market='linear', b=0.1, sigma2=0.2, "
         "nu=FiniteAtomic(atom_list=((0.5, 1.0), (-0.25, 2.0))), T=1.0, "
         "S0=None)", None, None),
        (interval,
         "ExpMomentInterval(a=-2.0, b=inf, a_in_I=True, "
         "b_in_I=False, a_in_E=False, b_in_E=False)", None, None),
        (minimum,
         "MinimumPoint(kappa0=0.5, case=<MinimumCase.INTERIOR_ROOT: "
         "'interior_root'>, log_phi_at_min=-0.25, interval=ExpMomentInterval("
         "a=-2.0, b=inf, a_in_I=True, b_in_I=False, "
         "a_in_E=False, b_in_E=False))", None, None),
        (g.RootSearch(0.0, 1.0),
         "RootSearch(lo=0.0, hi=1.0, side=0, end_value=None)", None, None),
        (g.EsscherParameterStatus(True, g.EsscherCase.INTERVAL_INTERIOR, 0.5,
                                  "d", interval, minimum),
         "EsscherParameterStatus(exists=True, case=<EsscherCase."
         "INTERVAL_INTERIOR: 'interval_interior'>, kappa0=0.5, "
         "diagnostic='d', interval=ExpMomentInterval(a=-2.0, "
         "b=inf, a_in_I=True, b_in_I=False, a_in_E=False, "
         "b_in_E=False), minimum=MinimumPoint(kappa0=0.5, case=<MinimumCase."
         "INTERIOR_ROOT: 'interior_root'>, log_phi_at_min=-0.25, "
         "interval=ExpMomentInterval(a=-2.0, b=inf, "
         "a_in_I=True, b_in_I=False, a_in_E=False, b_in_E=False)))",
         None, None),
        (esscher.EsscherResult(esscher.EsscherStatus.NO_EMM, None, None, 0.5,
                               None, None),
         "EsscherResult(status=<EsscherStatus.NO_EMM: 'no_emm'>, "
         "kappa0=None, entropy=None, infimum_entropy=0.5, transformed=None, "
         "parameter_status=None, diagnostic='')", None, None),
    ]


_SAMPLES = _samples()

#: the record classes with array fields, which compare and hash by identity
_BY_IDENTITY = {mc_oracle.JumpRecords, mc_oracle.SamplePack,
                mc_oracle.PathwiseZn}


def _record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def _values(obj):
    return tuple(getattr(obj, name) for name in type(obj)._fields)


def _sample_id(obj):
    """The class name; CGMY's ``Y = 0`` sample is named for the
    variance-gamma it is."""
    if isinstance(obj, measures.CGMY) and obj.Y == 0.0:
        return "VarianceGamma"
    return type(obj).__name__


def test_every_record_class_has_a_sample():
    assert {type(obj) for obj, *_ in _SAMPLES} == _record_classes()


@pytest.mark.parametrize("obj, text, bad, error", _SAMPLES,
                         ids=[_sample_id(s[0]) for s in _SAMPLES])
def test_record_semantics(obj, text, bad, error):
    cls = type(obj)
    values = _values(obj)
    twin = type("Twin", (cls,), {})(*values)
    assert obj != twin and twin != obj
    assert obj.__eq__(twin) is NotImplemented
    if cls in _BY_IDENTITY:
        # equal only to itself: a copy is unequal, and comparing raises not
        assert obj == obj and obj != cls(*values)
        assert not obj == cls(*values)
        assert hash(obj) == object.__hash__(obj)
    else:
        # equal to a copy, unequal to a look-alike of another class
        assert obj == cls(*values) and not obj != cls(*values)
        # hashes as its field tuple, where the fields hash
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected
    assert repr(obj) == text
    name = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, values[0])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert _values(obj) == values
    if bad is not None:
        with pytest.raises(error):
            cls(**bad)


def test_positional_and_keyword_arguments():
    cgmy = measures.CGMY(C=1.0, M=3.0, Y=0.5, G=2.0)
    assert cgmy == measures.CGMY(1.0, 2.0, 3.0, 0.5)
    with pytest.raises(TypeError):
        measures.CGMY(1.0, 2.0, 3.0)
    with pytest.raises(TypeError):
        measures.CGMY(1.0, 2.0, 3.0, 0.5, 4.0)
    with pytest.raises(TypeError):
        measures.CGMY(1.0, 2.0, 3.0, 0.5, C=1.0)
    with pytest.raises(TypeError):
        measures.CGMY(1.0, 2.0, M=3.0, Y=0.5, alpha=1.0)
    assert measures.TailDecay("poly", power=-2.5).cutoff == math.inf


def test_post_init_may_rewrite_fields():
    vg = measures.CGMY(1.0, 2.0, 3.0, 0.0)
    nested = measures.ExpTilted(measures.ExpTilted(vg, 0.5), 0.25)
    assert (nested.base, nested.kappa) == (vg, 0.75)
    triplet = triplets.LevyTriplet(1, 0, vg)
    assert type(triplet.b) is float and type(triplet.sigma2) is float
    assert measures.FiniteAtomic([(1, 2)]).atom_list == ((1.0, 2.0),)
