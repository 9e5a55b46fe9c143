"""Shared model zoo and helpers for the test suite."""

from __future__ import annotations

import json
import os
import sys

import pytest
from hypothesis import settings

from levy_emm import (
    CGMY,
    DoubleExponentialJumps,
    FiniteAtomic,
    GaussianJumps,
    JumpDiffusion,
    LevyTriplet,
    SymmetricAlphaStable,
    VarianceGamma,
    zero_measure,
)

# CI selects the "ci" profile (HYPOTHESIS_PROFILE=ci): the same examples on
# every run, so a verdict does not depend on the draw.  Local runs keep the
# default profile's random exploration.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def brownian():
    """Drifted Brownian motion: b=0.05, sigma2=0.09, no jumps."""
    return LevyTriplet(0.05, 0.09, zero_measure())


@pytest.fixture(scope="session")
def two_atom():
    """Pure-jump with symmetric unit atoms at +-0.5 and drift 0.1."""
    return LevyTriplet(0.1, 0.0, FiniteAtomic(((0.5, 1.0), (-0.5, 1.0))))


@pytest.fixture(scope="session")
def kou():
    """Double-exponential jump diffusion."""
    return LevyTriplet(
        0.03, 0.02,
        JumpDiffusion(1.5, DoubleExponentialJumps(0.4, 8.0, 6.0)))


@pytest.fixture(scope="session")
def merton():
    """Gaussian jump diffusion (the Monte Carlo cross-check model)."""
    return LevyTriplet(
        0.02, 0.04, JumpDiffusion(1.0, GaussianJumps(-0.1, 0.2)))


@pytest.fixture(scope="session")
def vg():
    """Variance-gamma pure-jump model."""
    return LevyTriplet(0.01, 0.0, VarianceGamma(C=1.0, G=6.0, M=9.0))


@pytest.fixture(scope="session")
def cgmy_y05():
    """CGMY with Y=0.5: endpoint tilts keep a finite measure but the
    first moment diverges there (I closed, E open)."""
    return LevyTriplet(0.0, 0.0, CGMY(C=0.5, G=4.0, M=7.0, Y=0.5))


@pytest.fixture(scope="session")
def cgmy_y15():
    """CGMY with Y=1.5: both endpoint memberships hold (I and E closed)."""
    return LevyTriplet(0.0, 0.0, CGMY(C=1.0, G=5.0, M=5.0, Y=1.5))


@pytest.fixture(scope="session")
def stable08():
    """Symmetric 0.8-stable: no exponential moments, undefined mean."""
    return LevyTriplet(0.0, 0.0, SymmetricAlphaStable(alpha=0.8))


@pytest.fixture(scope="session")
def stable15():
    """Symmetric 1.5-stable: no exponential moments, zero mean."""
    return LevyTriplet(0.0, 0.0, SymmetricAlphaStable(alpha=1.5))


@pytest.fixture
def write_spec(tmp_path):
    """Write a model dict as a JSON spec file and return its path."""

    def _write(doc: dict, name: str = "spec.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def call_counts(monkeypatch):
    """``call_counts("f", "g")`` wraps the named functions under every
    name a ``levy_emm`` module binds them by and returns a dict of call
    counts that fills in as the test runs."""

    def count(*names: str) -> dict:
        counts = dict.fromkeys(names, 0)
        modules = [m for n, m in list(sys.modules.items())
                   if n.split(".")[0] == "levy_emm" and m is not None]
        for name in names:
            original = next(getattr(m, name) for m in modules
                            if callable(getattr(m, name, None)))

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for m in modules:
                if getattr(m, name, None) is original:
                    monkeypatch.setattr(m, name, counted)
        return counts

    return count


def spec_doc(**overrides) -> dict:
    """A valid baseline spec document, customizable per test."""
    doc = {
        "version": 1,
        "name": "test-model",
        "market": "linear",
        "b": 0.05,
        "sigma2": 0.09,
        "T": 1.0,
        "nu": {"kind": "zero"},
    }
    doc.update(overrides)
    return doc
