"""Compare the reports of this checkout with those of another revision.

Runs the 96 reference commands under this checkout's ``src/`` and under
``src/`` of the revision ``--against`` (taken with ``git archive`` into a
temporary directory), each tree in its own interpreter.  The commands
are the 72 analytic ones of ``tools/reference_reports.py`` (six
subcommands on every spec in ``docs/models``) and ``mc-check --samples
20000`` with and without ``--zn 4`` on every spec.  Each report is run
by ``reference_reports.report_case`` and compared by
``reference_reports.differences`` with no tolerance: the script prints
both exit codes of every report and each field that differs outside
``timings``, and exits 1 unless every report and exit code is
identical::

    python3 tools/report_diff.py --against HEAD

A command that ends in an uncaught exception is exit code 1, as it would
be for the installed ``levy-emm``.  Both trees read the specs of this
checkout, so the comparison is of the program alone.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from reference_reports import COMMANDS, MODELS, ROOT, differences

#: the ``mc-check`` reports, which are compared tree against tree only
MC_COMMANDS = {
    "mc-check": ["mc-check", "--samples", "20000"],
    "mc-check-zn4": ["mc-check", "--samples", "20000", "--zn", "4"],
}

#: run in a fresh interpreter as ``python -c _RUN SRC OUT``, the cases as
#: JSON on stdin; ``levy_emm`` is imported from SRC before
#: ``reference_reports``, whose own import then finds it cached
_RUN = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import levy_emm.cli
from reference_reports import report_case
results = {}
for name, argv in json.load(sys.stdin).items():
    try:
        results[name] = report_case(argv)
    except Exception as exc:
        results[name] = {"exit_code": 1, "report": {"uncaught": repr(exc)}}
pathlib.Path(sys.argv[2]).write_text(json.dumps(results), encoding="utf-8")
"""


def cases() -> dict:
    """Every reference command by name, ``spec/command``."""
    out = {}
    for spec in MODELS:
        for command, (name, *flags) in {**COMMANDS, **MC_COMMANDS}.items():
            out[f"{spec.stem}/{command}"] = [
                name, spec.relative_to(ROOT).as_posix(), *flags]
    return out


def start(src: Path, out: Path, todo: dict) -> subprocess.Popen:
    proc = subprocess.Popen([sys.executable, "-c", _RUN, str(src), str(out)],
                            cwd=ROOT / "tools", stdin=subprocess.PIPE,
                            text=True)
    proc.stdin.write(json.dumps(todo))
    proc.stdin.close()
    return proc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the git revision whose src/ is compared")
    args = parser.parse_args(argv)

    todo = cases()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar",
                                  args.against, "src"], cwd=ROOT,
                                 capture_output=True, check=False)
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")],
                       input=archive.stdout, check=True)
        runs = [start(ROOT / "src", tmp / "this.json", todo),
                start(tmp / "rev" / "src", tmp / "rev.json", todo)]
        if any([proc.wait() for proc in runs]):
            sys.stderr.write("a tree's interpreter failed\n")
            return 2
        this, rev = (json.loads((tmp / f"{name}.json").read_text("utf-8"))
                     for name in ("this", "rev"))

    differing = 0
    print(f"report (exit: this/{args.against})")
    for name in todo:
        mine, theirs = this[name], rev[name]
        lines = list(differences(theirs, mine, name, rtol=0.0, atol=0.0))
        differing += bool(lines)
        print(f"{name:<32} {mine['exit_code']}/{theirs['exit_code']}"
              + ("  DIFFERS" if lines else ""))
        for line in lines:
            print(f"    {line}")
    print(f"{len(todo)} reports: {len(todo) - differing} identical, "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
