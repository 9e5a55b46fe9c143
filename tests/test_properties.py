"""Property-based invariants.

Randomized checks of structural identities that must hold for every model,
not just the fixture zoo: the cumulant vanishes at zero and is convex, its
derivative is monotone, tilting obeys the shift and composition laws,
entropy is nonnegative and linear in the horizon, the located minimum is
global, the tempering decomposition balances exactly, and spec documents
survive a parse/serialize round trip unchanged.

Compound-Poisson-plus-diffusion models with purely atomic jumps exercise
all of these through closed-form summation, which keeps the randomized
suite fast and makes every comparison exact up to float rounding.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from levy_emm import (
    FiniteAtomic,
    LevyTriplet,
    PenaltyFamily,
    approx_sequence,
    cumulant,
    cumulant_derivative,
    default_schedule,
    esscher_entropy,
    esscher_transform,
    exp_moment_interval,
    minimize_mgf,
    parse_model,
    serialize_model,
)

from conftest import spec_doc


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


_positions = _floats(-0.95, 3.0).filter(lambda x: abs(x) >= 1e-2)
_masses = _floats(1e-2, 5.0)
_atom_lists = st.lists(st.tuples(_positions, _masses), max_size=4)


@st.composite
def atomic_triplets(draw, min_sigma2=0.0):
    b = draw(_floats(-2.0, 2.0))
    sigma2 = draw(_floats(min_sigma2, 4.0))
    atoms = tuple(draw(_atom_lists))
    return LevyTriplet(b, sigma2, FiniteAtomic(atoms))


_kappas = _floats(-3.0, 3.0)


class TestCumulant:
    @given(t=atomic_triplets())
    def test_zero_at_origin(self, t):
        assert cumulant(t, 0.0) == 0.0

    @given(t=atomic_triplets(), k1=_kappas, k2=_kappas,
           lam=_floats(0.01, 0.99))
    def test_convex(self, t, k1, k2, lam):
        mid = lam * k1 + (1.0 - lam) * k2
        lhs = cumulant(t, mid)
        rhs = (lam * cumulant(t, k1)
               + (1.0 - lam) * cumulant(t, k2))
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))

    @given(t=atomic_triplets(), k1=_kappas, k2=_kappas)
    def test_derivative_monotone(self, t, k1, k2):
        lo, hi = sorted((k1, k2))
        m_lo = cumulant_derivative(t, lo)
        m_hi = cumulant_derivative(t, hi)
        assert m_lo <= m_hi + 1e-9 * (1.0 + abs(m_hi))

    @given(t=atomic_triplets())
    def test_bounded_jumps_give_whole_line_domain(self, t):
        iv = exp_moment_interval(t)
        assert iv.a == -math.inf and iv.b == math.inf
        assert not (iv.a_in_I or iv.b_in_I or iv.a_in_E or iv.b_in_E)


class TestTilting:
    @given(t=atomic_triplets(), kappa=_floats(-2.0, 2.0),
           u=_floats(-2.0, 2.0))
    def test_shift_identity(self, t, kappa, u):
        tilted = esscher_transform(t, kappa)
        got = cumulant(tilted, u)
        want = cumulant(t, u + kappa) - cumulant(t, kappa)
        scale = 1.0 + abs(cumulant(t, u + kappa)) \
            + abs(cumulant(t, kappa))
        assert abs(got - want) <= 1e-9 * scale

    @given(t=atomic_triplets(), k1=_floats(-2.0, 2.0), k2=_floats(-2.0, 2.0))
    def test_composition(self, t, k1, k2):
        twice = esscher_transform(esscher_transform(t, k1), k2)
        once = esscher_transform(t, k1 + k2)
        assert twice.sigma2 == once.sigma2
        assert abs(twice.b - once.b) <= 1e-10 * (1.0 + abs(once.b))
        a = cumulant(twice, 0.7)
        b = cumulant(once, 0.7)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))

    @given(t=atomic_triplets(), kappa=_floats(-2.0, 2.0),
           scale=_floats(0.1, 4.0))
    def test_entropy_nonnegative_and_linear_in_horizon(self, t, kappa, scale):
        base = esscher_entropy(t, 1.0, kappa)
        assert base >= 0.0
        scaled = esscher_entropy(t, scale, kappa)
        assert math.isclose(scaled, scale * base, rel_tol=1e-12, abs_tol=0.0) \
            or abs(scaled - scale * base) <= 1e-15


class TestMinimizer:
    @given(t=atomic_triplets(min_sigma2=0.1), probe=_kappas)
    def test_minimum_is_global(self, t, probe):
        mp = minimize_mgf(t, 1.0)
        c_min = cumulant(t, mp.kappa0)
        c_probe = cumulant(t, probe)
        assert c_min <= c_probe + 1e-9 * (1.0 + abs(c_probe))
        assert mp.phi_at_min <= 1.0 + 1e-12


class TestTempering:
    @settings(max_examples=25, deadline=None)
    @given(t=atomic_triplets(min_sigma2=0.1), horizon=_floats(0.25, 3.0))
    # correction_n = -0.5677 against mass_gap = 0.4323 at n = 2
    @example(t=LevyTriplet(-2.0, 1.0, FiniteAtomic(((2.0, 0.5),))),
             horizon=1.0)
    def test_decomposition_balances_exactly(self, t, horizon):
        trace = approx_sequence(t, horizon, PenaltyFamily.default_quadratic(),
                                n_schedule=(1, 2, 4))
        for step in trace.steps:
            residual = step.entropy_vs_P - (step.entropy_n
                                            + step.correction_n)
            assert abs(residual) <= 1e-12 * (1.0 + abs(step.entropy_vs_P))
            # correction_n = T mass_gap - T∫ρ_n e^{κ_n x - ρ_n} dν and
            # ρ_n >= 0 bound it from above only
            assert step.correction_n <= horizon * step.mass_gap + 1e-15
            assert step.mass_gap >= 0.0

    @given(power=st.integers(min_value=0, max_value=20))
    def test_schedule_shape(self, power):
        sched = default_schedule(power)
        assert sched[0] == 1 and sched[-1] == 2 ** power
        assert all(b == 2 * a for a, b in zip(sched, sched[1:]))


def _stringify(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_stringify(v) for v in value]
    return value


_nu_docs = st.one_of(
    st.just({"kind": "zero"}),
    st.builds(lambda atoms: {"kind": "finite_atomic",
                             "atoms": [{"x": x, "mass": m}
                                       for x, m in atoms]},
              st.lists(st.tuples(_positions, _masses),
                       min_size=1, max_size=4)),
    st.builds(lambda lam, mu, sd: {"kind": "jump_diffusion",
                                   "intensity": lam,
                                   "jumps": {"kind": "gaussian",
                                             "mean": mu, "std": sd}},
              _floats(0.01, 5.0), _floats(-1.0, 1.0), _floats(0.05, 2.0)),
    st.builds(lambda lam, p, ep, em: {"kind": "jump_diffusion",
                                      "intensity": lam,
                                      "jumps": {"kind": "double_exponential",
                                                "p": p, "eta_plus": ep,
                                                "eta_minus": em}},
              _floats(0.01, 5.0), _floats(0.01, 0.99),
              _floats(0.5, 12.0), _floats(0.5, 12.0)),
    st.builds(lambda C, G, M: {"kind": "variance_gamma",
                               "C": C, "G": G, "M": M},
              _floats(0.1, 3.0), _floats(0.5, 10.0), _floats(0.5, 10.0)),
    st.builds(lambda C, G, M, Y: {"kind": "cgmy",
                                  "C": C, "G": G, "M": M, "Y": Y},
              _floats(0.1, 3.0), _floats(0.5, 10.0), _floats(0.5, 10.0),
              _floats(0.05, 1.95)),
    st.builds(lambda a, s: {"kind": "symmetric_alpha_stable",
                            "alpha": a, "scale": s},
              _floats(0.1, 1.95), _floats(0.1, 3.0)),
)


@st.composite
def model_docs(draw):
    return spec_doc(b=draw(_floats(-5.0, 5.0)),
                    sigma2=draw(_floats(0.0, 10.0)),
                    T=draw(_floats(0.01, 20.0)),
                    nu=draw(_nu_docs))


class TestSpecRoundTrip:
    @given(doc=model_docs())
    def test_parse_serialize_fixed_point(self, doc):
        spec = parse_model(doc)
        canonical = serialize_model(spec)
        again = parse_model(canonical)
        assert again == spec
        assert serialize_model(again) == canonical

    @given(doc=model_docs())
    def test_decimal_strings_parse_identically(self, doc):
        assert parse_model(_stringify(doc)) == parse_model(doc)


class TestZooCoherence:
    _ZOO = ("brownian", "two_atom", "kou", "merton", "vg",
            "cgmy_y05", "cgmy_y15", "stable08", "stable15")

    @pytest.mark.parametrize("name", _ZOO)
    def test_membership_flags_coherent(self, name, request):
        iv = exp_moment_interval(request.getfixturevalue(name))
        if iv.a_in_E:
            assert iv.a_in_I
        if iv.b_in_E:
            assert iv.b_in_I
        if iv.a_in_I:
            assert iv.a != -math.inf
        if iv.b_in_I:
            assert iv.b != math.inf
