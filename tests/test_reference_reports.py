"""Committed reference reports: the analytic subcommands give the same
answers as when the references were generated.

``tests/reference/reports.json`` holds, for every spec in ``docs/models``,
the exit code and report (without ``timings``) of ``solve``, ``domain``,
``approx --n-max 64``, ``approx --n-max 8 --penalty power:3.5`` and
``convert`` in both directions.  Each entry is replayed in process.  Exit
codes, keys, strings, booleans and nulls must match exactly; numbers must
agree to a relative ``1e-11``, the quadrature kernel's relative tolerance,
with an absolute floor of ``1e-14`` so that a quantity that is zero up to
rounding (a balanced drift, an untilted entropy) may change its last bits.
The runner and the comparison are ``report_case`` and ``differences``
of ``tools/reference_reports.py``, which ``tools/report_diff.py`` also
uses.
``python3 tools/reference_reports.py`` regenerates the file after a change
that moves a number on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "tools"))
from reference_reports import differences, report_case  # noqa: E402

_REFERENCE = json.loads(
    (_ROOT / "tests" / "reference" / "reports.json").read_text(encoding="utf-8"))
_MODELS = sorted(p.stem for p in (_ROOT / "docs" / "models").glob("*.json"))
_COMMANDS = ("solve", "domain", "approx", "approx-power", "convert-g2l",
             "convert-l2g")


def test_every_spec_and_command_has_a_reference():
    assert sorted(_REFERENCE) == sorted(f"{m}/{c}" for m in _MODELS
                                        for c in _COMMANDS)


@pytest.mark.parametrize("name", sorted(_REFERENCE))
def test_report_matches_reference(name):
    entry = _REFERENCE[name]
    got = report_case(entry["argv"])
    assert got["exit_code"] == entry["exit_code"]
    diffs = list(differences(entry["report"], got["report"]))
    assert not diffs, "\n".join(diffs)


def test_comparison_tolerances():
    assert not list(differences({"x": [1.0, "a", None, True]},
                                {"x": [1.0 + 5e-12, "a", None, True]}))
    assert not list(differences(1e-17, -3e-17))
    assert list(differences(1.0, 1.0 + 3e-11))
    assert list(differences(1e-12, 2e-12))
    assert list(differences(True, 1))
    assert list(differences(1, True))
    assert list(differences({"a": 1}, {"a": 1, "b": 2}))
    assert list(differences([1.0], [1.0, 2.0]))
    assert list(differences("a", "b"))


def test_comparison_with_no_tolerance_is_exact():
    assert not list(differences({"x": [1e-17, "a", None]},
                                {"x": [1e-17, "a", None]}, rtol=0, atol=0))
    assert list(differences(1e-17, -3e-17, rtol=0, atol=0))
    assert list(differences(1.0, 1.0 + 2.0**-52, rtol=0, atol=0))
