"""Run one round of benchmark ops in this (fresh) interpreter.

    python3 bench/worker.py OPS_JSON OUT_JSON [--trace]

Reads the op list, calls ``levy_emm.cli.main`` in-process once per op
with the op's argv (spec paths are relative to the working directory),
and writes each op's exit code, wall time and parsed report, plus the
process's peak resident set.  With ``--trace`` the program's layers are
wrapped first (see ``tracing.py``) and the spans and counters are written
too.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402


def main(argv: list) -> int:
    ops_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)

    from levy_emm import cli
    from levy_emm.levy_core import triplets

    tracer = None
    if traced:
        import tracing
        tracer = tracing.install()

    results = []
    ref = speed.reference_seconds()
    for op in ops:
        ref_before = ref
        out = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(op["argv"]))
        except Exception as exc:  # an uncaught error is a failed op
            code = None
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ref = speed.reference_seconds()
        try:
            report = json.loads(out.getvalue())
        except ValueError:
            report = None
        results.append({"id": op["id"], "code": code, "seconds": seconds,
                        "reference": 0.5 * (ref_before + ref),
                        "error": error, "report": report})

    payload = {"results": results,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        cache = getattr(triplets, "_validate_cached", None)
        hits, misses = ((cache.cache_info().hits, cache.cache_info().misses)
                        if cache is not None else (0, 0))
        payload["spans"] = tracer.spans()
        payload["counts"] = dict(tracer.counts,
                                 **{"triplets.validate.hits": hits,
                                    "triplets.validate.misses": misses})
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
