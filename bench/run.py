"""The levy-emm benchmark: seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark draws rounds of
``levy-emm`` invocations from the seed (``workloads.py``), writes their
spec files to a scratch directory under ``bench/_work``, and runs each
round in a fresh interpreter (``worker.py``) until the ops have been busy
for ``--seconds`` and the workload's minimum op count is reached.  It
then checks every report against the oracle (``checks.py``) and prints
one JSON object as its last line.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it runs round 0 alone with the program's layers wrapped (``tracing.py``)
and prints that round's per-layer totals.  Exit code 0 means every check
held; 1 that some did not; 2 that no program was found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
ROUND_TIMEOUT_S = 120
MEASURE_CAP_S = 100  # no new round starts after this much wall time

PER_LAYER = (
    ("quadrature.quad.calls", "count"),
    ("quadrature.quad.ms", "ms"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.two_sided_integral.calls", "count"),
    ("quadrature.two_sided_integral.self_ms", "ms"),
    ("triplets.cumulant.calls", "count"),
    ("triplets.cumulant.ms", "ms"),
    ("triplets.cumulant_derivative.calls", "count"),
    ("triplets.cumulant_derivative.ms", "ms"),
    ("mgf_analysis.brentq.fevals", "count"),
    ("esscher.brentq.fevals", "count"),
    ("mgf_analysis.minimize_mgf.calls", "count"),
    ("mgf_analysis.minimize_mgf.ms", "ms"),
    ("esscher.solve_geometric_emm.ms", "ms"),
    ("triplets.validate.hits", "count"),
    ("triplets.validate.misses", "count"),
    ("mgf_analysis.exp_moment_interval.calls", "count"),
    ("triplets.is_monotone.calls", "count"),
    ("triplets.conversion.ms", "ms"),
    ("esscher.solve_linear_emm.calls", "count"),
    ("esscher.solve_linear_emm.ms", "ms"),
    ("approximation.approx_sequence.ms", "ms"),
    ("approximation.perturbed_triplet.calls", "count"),
    ("mc_oracle.sample_terminal.ms", "ms"),
    ("mc_oracle.sample_terminal.plain.ms", "ms"),
    ("mc_oracle.sample_terminal.recorded.ms", "ms"),
    ("mc_oracle.sample_terminal.samples", "count"),
    ("mc_oracle.pathwise_log_zn.ms", "ms"),
    ("mc_oracle.estimators.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("modelspec.load_model.ms", "ms"),
)


def _env() -> dict:
    env = dict(os.environ)
    # mc_oracle runs its default worker count; a thread count inherited
    # from the caller's shell would change it between machines
    env.pop("LEVY_EMM_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup() -> tuple:
    """Seconds from starting a fresh interpreter to ``levy_emm.cli``
    imported, as a user pays on every CLI call, raw and rescaled
    (``probe.py``)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"),
                           repr(start)], cwd=ROOT, env=_env(), check=True,
                          capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    raw, rescaled = proc.stdout.split()
    return float(raw), float(rescaled)


def run_round(work: Path, ops: list, traced: bool) -> dict:
    """Write the round's specs to ``work`` and run it in a fresh worker."""
    work.mkdir(parents=True)
    for op in ops:
        (work / op["spec_file"]).write_text(json.dumps(op["spec"], indent=1),
                                            encoding="utf-8")
    argvs = [{"id": op["id"],
              "argv": [op["command"], op["spec_file"]] + op["flags"]}
             for op in ops]
    (work / "ops.json").write_text(json.dumps(argvs), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), "ops.json", "round.json"]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=work, env=_env(), capture_output=True,
                          text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    with open(work / "round.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    shutil.rmtree(work)
    return payload


def layer_metrics(payload: dict) -> dict:
    """The per-layer metrics from one traced round's spans and counts."""
    values = dict(payload["counts"])
    for name, entry in stats.span_totals(payload["spans"]).items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value

    def inclusive_ms(*names: str) -> float:
        return sum(values.get(f"{name}.ms", 0.0) for name in names)

    values["triplets.conversion.ms"] = inclusive_ms(
        "triplets.geometric_to_linear", "triplets.linear_to_geometric")
    values["mc_oracle.sample_terminal.ms"] = inclusive_ms(
        "mc_oracle.sample_terminal.plain", "mc_oracle.sample_terminal.recorded")
    values["mc_oracle.estimators.ms"] = inclusive_ms(
        "mc_oracle.martingale_defect", "mc_oracle.entropy_estimate")
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "levy_emm" / "cli.py").is_file():
        print(f"no levy_emm source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup = []
    rounds = []  # (ops, payload)
    try:
        if args.trace:
            ops = workloads.round_ops(args.workload, args.seed, 0, ROOT)
            rounds.append((ops, run_round(work / "0", ops, traced=True)))
        else:
            started = time.perf_counter()
            busy = 0.0
            n_ops = 0
            min_ops = workloads.MIN_OPS[args.workload]
            while ((busy < args.seconds or n_ops < min_ops)
                   and time.perf_counter() - started < MEASURE_CAP_S):
                ops = workloads.round_ops(args.workload, args.seed,
                                          len(rounds), ROOT)
                payload = run_round(work / str(len(rounds)), ops, traced=False)
                rounds.append((ops, payload))
                busy += sum(r["seconds"] for r in payload["results"])
                n_ops += len(ops)
                # set-up samples spread over the run, not taken in one
                # burst, each after a round has warmed the file cache
                if len(setup) < SETUP_REPEATS:
                    setup.append(measure_setup())
            while len(setup) < SETUP_REPEATS:
                setup.append(measure_setup())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    violations = []
    failed = attempted = 0
    for ops, payload in rounds:
        for op, result in zip(ops, payload["results"]):
            attempted += 1
            failed += result["code"] != 0
            violations += checks.check(op, result)
    for line in sorted(set(violations)):
        print(f"VIOLATION {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(rounds[0][1])
    else:
        results = [r for _, p in rounds for r in p["results"]]
        times = [speed.rescaled(r["seconds"], r["reference"])
                 for r in results]
        raw = [r["seconds"] for r in results]
        print(f"wall times before rescaling: ops_per_s "
              f"{len(raw) / sum(raw):.4g}, op_p50_ms "
              f"{1e3 * stats.percentile(raw, 50):.4g}, setup_s "
              f"{statistics.median(s for s, _ in setup):.4g}", file=sys.stderr)
        tail = stats.tail_percentile(workloads.MIN_OPS[args.workload])
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup),
                        "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * stats.percentile(times, 50),
                          "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * stats.percentile(times, tail),
                           "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for _, p in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not violations, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
