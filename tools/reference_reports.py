"""Regenerate the committed reference outputs of the command line.

Two files under ``tests/reference/``:

``reports.json``
    the report of every analytic subcommand on every spec in
    ``docs/models``: ``solve``, ``domain``, ``approx --n-max 64``,
    ``approx --n-max 8 --penalty power:3.5`` and ``convert`` in both
    directions, each with its exit code and without its ``timings``.
    ``tests/test_reference_reports.py`` replays every entry and compares
    it with ``differences``: strings and exit codes exactly, numbers to
    a relative 1e-11.
    ``mc-check`` is left out: numpy may change its ``Generator`` streams
    between releases.
``cli_text.json``
    what ``levy-emm`` prints to stdout and stderr, and its exit code, for
    ``--help``, each subcommand's ``--help``, ``--version`` and the usage
    errors; ``tests/test_cli.py`` compares it byte for byte.

A change that moves a reported number or a line of help on purpose runs
this script once and says which entries moved and why::

    python3 tools/reference_reports.py

Everything runs in process against the ``src/`` tree next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from levy_emm.cli import main  # noqa: E402

OUT_DIR = ROOT / "tests" / "reference"
MODELS = sorted((ROOT / "docs" / "models").glob("*.json"))

#: the analytic subcommands, each run on every spec
COMMANDS = {
    "solve": ["solve"],
    "domain": ["domain"],
    "approx": ["approx", "--n-max", "64"],
    "approx-power": ["approx", "--n-max", "8", "--penalty", "power:3.5"],
    "convert-g2l": ["convert", "--direction", "g2l"],
    "convert-l2g": ["convert", "--direction", "l2g"],
}

#: numbers agree to the quadrature kernel's relative tolerance, with an
#: absolute floor so that a quantity that is zero up to rounding (a
#: balanced drift, an untilted entropy) may change its last bits
RTOL = 1e-11
ATOL = 1e-14

#: help text depends on the terminal width; the goldens use this one
COLUMNS = "80"
_SPEC = "docs/models/kou.json"
CLI_TEXT = {
    "help": ["--help"],
    "solve-help": ["solve", "--help"],
    "domain-help": ["domain", "--help"],
    "approx-help": ["approx", "--help"],
    "convert-help": ["convert", "--help"],
    "mc-check-help": ["mc-check", "--help"],
    "version": ["--version"],
    "no-command": [],
    "unknown-command": ["bogus", _SPEC],
    "missing-spec": ["solve"],
    "bad-market": ["solve", _SPEC, "--market", "spot"],
    "bad-direction": ["convert", _SPEC, "--direction", "up"],
    "missing-direction": ["convert", _SPEC],
    "unrecognized-flag": ["solve", _SPEC, "--bogus"],
}


def report_case(argv: list) -> dict:
    """Run ``levy-emm CMD SPEC [FLAGS]`` in process, ``SPEC`` relative to
    the repo: its exit code and its report without ``timings``."""
    command, spec, *flags = argv
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main([command, str(ROOT / spec), *flags, "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("timings")
    return {"exit_code": code, "report": report}


def differences(ref, got, where="report", rtol=RTOL, atol=ATOL):
    """Yield a line for every place where ``got`` departs from ``ref``:
    keys, strings, booleans, nulls and lengths exactly, numbers within
    ``rtol``/``atol`` (both 0: exactly)."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            yield f"{where}: keys {sorted(ref)} != {got!r}"
            return
        for key in ref:
            yield from differences(ref[key], got[key], f"{where}.{key}",
                                   rtol, atol)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            yield f"{where}: {ref!r} != {got!r}"
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            yield from differences(r, g, f"{where}[{i}]", rtol, atol)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not math.isclose(ref, got, rel_tol=rtol, abs_tol=atol)):
            yield f"{where}: {ref!r} != {got!r}"
    elif type(ref) is not type(got) or ref != got:
        yield f"{where}: {ref!r} != {got!r}"


def text_case(argv: list) -> dict:
    """Run the parser on ``argv``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def regenerate() -> None:
    os.environ["COLUMNS"] = COLUMNS
    reports = {}
    for spec in MODELS:
        for command in COMMANDS:
            name, *flags = COMMANDS[command]
            argv = [name, spec.relative_to(ROOT).as_posix(), *flags]
            reports[f"{spec.stem}/{command}"] = {"argv": argv,
                                                 **report_case(argv)}
    texts = {name: text_case(argv) for name, argv in CLI_TEXT.items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name, doc in (("reports.json", reports), ("cli_text.json", texts)):
        (OUT_DIR / name).write_text(
            json.dumps(doc, indent=1, allow_nan=False) + "\n",
            encoding="utf-8")
        print(f"wrote {len(doc)} entries to {OUT_DIR / name}")


if __name__ == "__main__":
    regenerate()
