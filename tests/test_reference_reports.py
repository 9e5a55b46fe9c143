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
``python3 tools/reference_reports.py`` regenerates the file after a change
that moves a number on purpose.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from levy_emm.cli import main

_ROOT = Path(__file__).resolve().parent.parent
_REFERENCE = json.loads(
    (_ROOT / "tests" / "reference" / "reports.json").read_text(encoding="utf-8"))
_MODELS = sorted(p.stem for p in (_ROOT / "docs" / "models").glob("*.json"))
_COMMANDS = ("solve", "domain", "approx", "approx-power", "convert-g2l",
             "convert-l2g")
RTOL = 1e-11
ATOL = 1e-14


def _differences(ref, got, where="report"):
    """Yield a line for every place where ``got`` departs from ``ref``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            yield f"{where}: keys {sorted(ref)} != {got!r}"
            return
        for key in ref:
            yield from _differences(ref[key], got[key], f"{where}.{key}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            yield f"{where}: {ref!r} != {got!r}"
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            yield from _differences(r, g, f"{where}[{i}]")
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not math.isclose(ref, got, rel_tol=RTOL, abs_tol=ATOL)):
            yield f"{where}: {ref!r} != {got!r}"
    elif type(ref) is not type(got) or ref != got:
        yield f"{where}: {ref!r} != {got!r}"


def test_every_spec_and_command_has_a_reference():
    assert sorted(_REFERENCE) == sorted(f"{m}/{c}" for m in _MODELS
                                        for c in _COMMANDS)


@pytest.mark.parametrize("name", sorted(_REFERENCE))
def test_report_matches_reference(name, tmp_path):
    entry = _REFERENCE[name]
    command, spec, *flags = entry["argv"]
    out = tmp_path / "report.json"
    code = main([command, str(_ROOT / spec), *flags, "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timings")
    assert code == entry["exit_code"]
    diffs = list(_differences(entry["report"], report))
    assert not diffs, "\n".join(diffs)


def test_comparison_tolerances():
    assert not list(_differences({"x": [1.0, "a", None, True]},
                                 {"x": [1.0 + 5e-12, "a", None, True]}))
    assert not list(_differences(1e-17, -3e-17))
    assert list(_differences(1.0, 1.0 + 3e-11))
    assert list(_differences(1e-12, 2e-12))
    assert list(_differences(True, 1))
    assert list(_differences(1, True))
    assert list(_differences({"a": 1}, {"a": 1, "b": 2}))
    assert list(_differences([1.0], [1.0, 2.0]))
    assert list(_differences("a", "b"))
