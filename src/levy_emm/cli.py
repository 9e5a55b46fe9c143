"""Batch front end: spec files in, machine-readable reports out.

Five subcommands map one-to-one onto library entry points::

    levy-emm solve    spec.json [--market linear|geometric]
    levy-emm domain   spec.json
    levy-emm approx   spec.json [--n-max N] [--penalty quadratic|power:P]
    levy-emm convert  spec.json --direction g2l|l2g
    levy-emm mc-check spec.json [--samples N] [--seed S] [--kappa auto|V]

Every run prints one JSON report (or writes it with ``--out``) that echoes
the parsed spec, the resolved flags, and the results, so the report alone
reproduces the run.  The quadrature tolerances are fixed, abs 1e-12 and
rel 1e-11, and no flag sets them (the former ``--quad-*`` tolerance flags
are gone).  Exit codes: 0 success (including "no martingale
measure exists" verdicts — those are answers, not failures), 2 for invalid
input, 3 when the numerics could not deliver.  All entropies are in nats.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import time
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .approximation import (PenaltyFamily, approx_sequence, check_penalty,
                            default_schedule)
from .errors import ArbitrageMarketError, LevyEmmError, ValidationError
from .esscher import (ARBITRAGE_VERDICT, EsscherStatus, esscher_entropy,
                      memm_report, solve_linear_emm)
from .levy_core.triplets import geometric_to_linear, linear_to_geometric
from .mc_oracle import (SimConfig, entropy_estimate, martingale_defect,
                        pathwise_log_zn, sample_terminal)
from .mgf_analysis import classify_esscher_parameter
from .modelspec import ModelSpec, load_model, measure_to_dict, serialize_model

__all__ = ["main", "build_parser"]

_TRACE_COLUMNS = ("n", "kappa_n", "entropy_n", "correction_n",
                  "entropy_vs_P", "mass_gap")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _penalty_from_flag(text: str) -> PenaltyFamily:
    if text == "quadratic":
        return PenaltyFamily.default_quadratic()
    if text.startswith("power:"):
        try:
            exponent = float(text.split(":", 1)[1])
        except ValueError:
            raise ValidationError(
                f"--penalty: bad exponent in {text!r}") from None
        return PenaltyFamily.power(exponent)
    raise ValidationError(
        f"--penalty: expected 'quadratic' or 'power:P', got {text!r}")


def _schedule_up_to(n_max: int) -> tuple:
    if n_max < 1:
        raise ValidationError(f"--n-max: must be >= 1, got {n_max}")
    schedule = default_schedule(n_max.bit_length() - 1)
    return schedule if schedule[-1] == n_max else schedule + (n_max,)


def _kappa_from_flag(text: str) -> Optional[float]:
    if text == "auto":
        return None
    try:
        kappa = float(text)
    except ValueError:
        kappa = math.nan
    if not math.isfinite(kappa):
        raise ValidationError(
            f"--kappa: expected 'auto' or a finite number, got {text!r}")
    return kappa


def _unwritable(flag: str, exc: OSError) -> ValidationError:
    """An output path the system refused: a bad flag value, also said on
    stderr, where it shows even when no report can be written."""
    error = ValidationError(f"{flag}: {exc}")
    sys.stderr.write(f"levy-emm: error: {error}\n")
    return error


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _report_skeleton(command: str, spec: Optional[ModelSpec],
                     flags: dict) -> dict:
    return {
        "report_version": 1,
        "tool": {"name": "levy-emm", "version": __version__},
        "command": command,
        "units": "nats",
        "flags": flags,
        "spec": None if spec is None else serialize_model(spec),
    }


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _open_csv(path: str):
    # "a" creates the file or checks that it is writable without emptying
    # it: a run that fails later leaves an earlier trace as it was
    try:
        return open(path, "a", encoding="utf-8", newline="")
    except OSError as exc:
        raise _unwritable("--csv", exc) from None


def _write_trace_csv(fh, steps: list) -> None:
    try:
        fh.seek(0)
        fh.truncate()
        writer = csv.DictWriter(fh, fieldnames=_TRACE_COLUMNS)
        writer.writeheader()
        for step in steps:
            writer.writerow({k: step[k] for k in _TRACE_COLUMNS})
        fh.flush()
    except OSError as exc:
        raise _unwritable("--csv", exc) from None


def _finite_or_none(x: Optional[float]) -> Optional[float]:
    """JSON has no inf/nan; divergent scalar diagnostics become null."""
    if x is None or x != x or x in (float("inf"), float("-inf")):
        return None
    return x


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(spec: ModelSpec, args: argparse.Namespace) -> dict:
    market = args.market or spec.market
    return memm_report(spec.triplet, spec.T, market=market)


def _cmd_domain(spec: ModelSpec, args: argparse.Namespace) -> dict:
    status = classify_esscher_parameter(spec.triplet, spec.T)
    return {"interval": status.interval.describe(),
            "esscher_parameter": status.describe()}


def _cmd_approx(spec: ModelSpec, args: argparse.Namespace) -> dict:
    penalty = _penalty_from_flag(args.penalty)
    penalty.validate(1)
    schedule = _schedule_up_to(args.n_max)
    # opened before the schedule runs: a path the system refuses fails at
    # once, not after every stage has been solved
    trace = _open_csv(args.csv) if args.csv else contextlib.nullcontext()
    with trace:
        try:
            results = approx_sequence(spec.triplet, spec.T, penalty,
                                      schedule).describe()
        except ArbitrageMarketError:
            # a monotone market is a verdict: there is no limit to approach
            results = {"status": EsscherStatus.ARBITRAGE_MARKET.value,
                       "verdict": ARBITRAGE_VERDICT, "steps": []}
        results["penalty"] = penalty.kind
        results["schedule"] = list(schedule)
        if args.check_penalty:
            results["penalty_diagnostics"] = check_penalty(
                penalty, spec.nu).describe()
        if args.csv:
            _write_trace_csv(trace, results["steps"])
            results["csv_path"] = args.csv
    return results


def _cmd_convert(spec: ModelSpec, args: argparse.Namespace) -> dict:
    if args.direction == "g2l":
        converted = geometric_to_linear(spec.triplet)
    else:
        converted = linear_to_geometric(spec.triplet)
    out = {"direction": args.direction,
           "input": spec.triplet.describe(),
           "converted": converted.describe()}
    try:
        out["converted_nu_spec"] = measure_to_dict(converted.nu)
    except ValidationError:
        out["converted_nu_spec"] = None
    return out


def _auto_kappa(spec: ModelSpec) -> Tuple[float, Optional[float]]:
    """The martingale tilt and its entropy, from one solve."""
    res = solve_linear_emm(spec.triplet, spec.T)
    if res.status in (EsscherStatus.EMM_EXISTS, EsscherStatus.P_IS_ALREADY_EMM):
        return float(res.kappa0), res.entropy
    raise ValidationError(
        f"--kappa auto: no martingale tilt exists ({res.status.value}); "
        "pass an explicit --kappa value")


def _cmd_mc_check(spec: ModelSpec, args: argparse.Namespace) -> dict:
    kappa = _kappa_from_flag(args.kappa)
    penalty = None
    if args.zn is not None:
        if args.zn < 1:
            raise ValidationError(f"--zn: must be >= 1, got {args.zn}")
        penalty = _penalty_from_flag(args.penalty)
        penalty.validate(args.zn)
    cfg = SimConfig(T=spec.T, n_samples=args.samples, epsilon=args.epsilon,
                    seed=args.seed, small_jump_mode=args.small_jumps,
                    record_jumps=args.zn is not None)
    source = "flag"
    if kappa is None:
        kappa, analytic = _auto_kappa(spec)
        source = "auto"
    else:
        try:
            analytic = esscher_entropy(spec.triplet, spec.T, kappa)
        except LevyEmmError:
            analytic = None
    pack = sample_terminal(spec.triplet, cfg)
    defect, defect_se = martingale_defect(pack, kappa)
    entropy, entropy_se = entropy_estimate(pack, kappa)
    results = {
        "kappa": kappa,
        "kappa_source": source,
        "n_samples": pack.n,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "small_jump_mode": args.small_jumps,
        "martingale_defect": {
            "estimate": defect, "se": defect_se,
            "z": _finite_or_none(defect / defect_se if defect_se else None)},
        "entropy": {
            "estimate": entropy, "se": entropy_se,
            "analytic": analytic,
            "z": _finite_or_none((entropy - analytic) / entropy_se
                                 if analytic is not None and entropy_se
                                 else None)},
    }
    if penalty is not None:
        zn = pathwise_log_zn(pack, penalty, args.zn, spec.nu)
        zn_values = np.exp(zn.log_zn)
        results["pathwise_zn"] = {
            "n": args.zn,
            "penalty": penalty.kind,
            "zn_mean": zn.zn_mean,
            "zn_se": zn.zn_se,
            "z_vs_one": _finite_or_none((zn.zn_mean - 1.0) / zn.zn_se
                                        if zn.zn_se else None),
            "uniform_bound": zn.uniform_bound,
            "max_zn": float(zn_values.max()),
            "bound_holds": bool((zn_values <= zn.uniform_bound).all()),
        }
    return results


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _spec_and_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="path to a model spec JSON file")
    p.add_argument("--out", default=None,
                   help="write the JSON report here instead of stdout")


def _solve_arguments(p: argparse.ArgumentParser) -> None:
    _spec_and_out(p)
    p.add_argument("--market", choices=("linear", "geometric"), default=None,
                   help="override the market kind declared in the spec")


def _approx_arguments(p: argparse.ArgumentParser) -> None:
    _spec_and_out(p)
    p.add_argument("--n-max", type=int, default=4096,
                   help="largest relaxation index (default 4096)")
    p.add_argument("--penalty", default="quadratic",
                   help="'quadratic' or 'power:P' with P > 4/3")
    p.add_argument("--csv", default=None,
                   help="also write the trace as CSV to this path")
    p.add_argument("--check-penalty", action="store_true",
                   help="include numerical penalty diagnostics")


def _convert_arguments(p: argparse.ArgumentParser) -> None:
    _spec_and_out(p)
    p.add_argument("--direction", choices=("g2l", "l2g"), required=True,
                   help="g2l: log-price to driver; l2g: inverse")


def _mc_check_arguments(p: argparse.ArgumentParser) -> None:
    _spec_and_out(p)
    p.add_argument("--samples", type=int, default=100_000,
                   help="number of terminal draws (default 100000)")
    p.add_argument("--seed", type=int, default=0,
                   help="root seed (default 0)")
    p.add_argument("--kappa", default="auto",
                   help="'auto' (solve for the martingale tilt) or a value")
    p.add_argument("--epsilon", type=float, default=0.01,
                   help="small-jump cutoff for density measures "
                        "(default 0.01)")
    p.add_argument("--small-jumps", choices=("gaussian", "drop"),
                   default="gaussian",
                   help="handling of sub-cutoff jumps (default gaussian)")
    p.add_argument("--zn", type=int, default=None,
                   help="also evaluate the pathwise tempering density "
                        "at this relaxation index")
    p.add_argument("--penalty", default="quadratic",
                   help="penalty family for --zn ('quadratic' or 'power:P' "
                        "with P > 4/3)")


#: subcommand -> (its line in ``levy-emm --help``, what adds its
#: arguments, what runs it)
_SUBCOMMANDS = {
    "solve": ("minimal-entropy martingale verdict", _solve_arguments,
              _cmd_solve),
    "domain": ("exponential-moment interval and tilt classification",
               _spec_and_out, _cmd_domain),
    "approx": ("tempered approximation trace", _approx_arguments,
               _cmd_approx),
    "convert": ("switch between log-price and stochastic-exponential "
                "representations", _convert_arguments, _cmd_convert),
    "mc-check": ("Monte Carlo validation of a tilt", _mc_check_arguments,
                 _cmd_mc_check),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``levy-emm``.

    When ``command`` names a subcommand, only that subcommand is built:
    adding all five and their 30 arguments costs more than the
    computation behind a closed-form ``solve``.  Otherwise all five are
    built, so that ``--help`` and the errors for a missing or unknown
    subcommand list every one of them.
    """
    parser = argparse.ArgumentParser(
        prog="levy-emm",
        description="Martingale-measure analysis for exponential and "
                    "stochastic-exponential Levy markets.")
    parser.add_argument("--version", action="version",
                        version=f"levy-emm {__version__}")
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    # with one subcommand built, the metavar keeps all five in the usage
    # line; with all five, none is set, as the errors for a missing or
    # unknown subcommand name the argument by its dest.  ``prog`` is the
    # prefix argparse would otherwise format a usage line to find.
    sub = parser.add_subparsers(
        dest="command", required=True, prog=parser.prog,
        metavar="{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None)
    for name in names:
        help_text, add_arguments, _ = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _flag_echo(args: argparse.Namespace) -> dict:
    """The parsed flags; a non-finite number, which JSON cannot hold, as
    its text."""
    skip = {"command", "spec", "out"}
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    report = _report_skeleton(args.command, None, _flag_echo(args))
    started = time.perf_counter()
    try:
        spec = load_model(args.spec)
        report["spec"] = serialize_model(spec)
        run = _SUBCOMMANDS[args.command][2]
        report["results"] = run(spec, args)
        code = 0
    except ValidationError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 2
    except LevyEmmError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 3
    report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    try:
        _emit(report, args.out)
    except OSError as exc:
        _unwritable("--out", exc)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
