"""Simulation cross-checks for the analytic machinery.

Draws of the terminal value ``L_T`` via the compound-Poisson + Gaussian
decomposition (jumps above a cutoff sampled exactly per family, the
compensated remainder either variance-matched by a Gaussian or dropped),
plus self-normalized importance-sampling estimators for the martingale
defect and the relative entropy under an exponential tilt, and the exact
pathwise evaluation of the tempering density ``Z^n_T``.

Sampling is reproducible and parallelism-independent: paths are split
into fixed-size batches, each driven by its own counter-based generator
spawned deterministically from the seed, so the same (model, config)
yields bit-identical output regardless of worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Tuple

import numpy as np

from .approximation import PenaltyFamily, mass_gap
from .errors import (DegenerateWeights, MissingJumpRecords,
                     QuadratureFailure, UnsupportedMeasure, ValidationError)
from .levy_core.measures import (CGMY, GaussianJumps, JumpDiffusion,
                                 LevyMeasure, SymmetricAlphaStable, Tempered)
from .levy_core.quadrature import INNER_CUT, one_sided_integral
from .levy_core.record import Record
from .levy_core.triplets import LevyTriplet, validate_triplet

__all__ = [
    "SimConfig",
    "JumpRecords",
    "SamplePack",
    "sample_terminal",
    "martingale_defect",
    "entropy_estimate",
    "PathwiseZn",
    "pathwise_log_zn",
]

_BATCH = 8192
_MIN_ESS = 10.0


class SimConfig(Record):
    """Simulation parameters.

    ``epsilon`` is the magnitude below which density-measure jumps are
    folded into the compensated remainder; it must not exceed 1 so every
    jump the penalty families can see is sampled individually.
    ``small_jump_mode`` picks between a variance-matched Gaussian
    (``"gaussian"``) and dropping the remainder (``"drop"``).
    """

    T: float
    n_samples: int
    epsilon: float = 0.01
    seed: int = 0
    small_jump_mode: str = "gaussian"
    record_jumps: bool = False

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValidationError("T must be > 0")
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 1):
            raise ValidationError("n_samples must be an integer >= 1")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValidationError("epsilon must be in (0, 1]")
        if self.small_jump_mode not in ("gaussian", "drop"):
            raise ValidationError("small_jump_mode must be 'gaussian' or 'drop'")


class JumpRecords(Record):
    """The jumps larger than the cutoff of every path, flat: path ``i``
    jumped at ``times[offsets[i]:offsets[i + 1]]`` by the ``sizes`` of the
    same slice, in time order.  ``offsets`` has ``n + 1`` entries, from 0
    to the number of recorded jumps."""

    offsets: np.ndarray
    times: np.ndarray
    sizes: np.ndarray

    #: an array has no truth value, so these records compare and hash by
    #: identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class SamplePack(Record):
    """Terminal draws plus, when asked for, the jump records of every
    path."""

    values: np.ndarray
    T: float
    seed: int
    jump_records: Optional[JumpRecords] = None

    __eq__ = object.__eq__  # by identity, as JumpRecords
    __hash__ = object.__hash__

    @property
    def n(self) -> int:
        return int(self.values.size)


# ---------------------------------------------------------------------------
# per-family large-jump plans
# ---------------------------------------------------------------------------


class _JumpPlan(Record):
    """How to simulate the individually-sampled jumps of one measure:
    their Poisson rate, a size sampler, and whether the plan already
    covers jumps of every magnitude (exact) or only ``|x| > eps``."""

    rate: float
    draw: Optional[Callable[[np.random.Generator, int], np.ndarray]]
    exact: bool


def _side_integral(nu: LevyMeasure, side: int, power: int, lo: float,
                   hi: float) -> float:
    """``∫_{lo<s<hi} s^power ν(side*s) ds`` over jump distances, finite or
    :class:`UnsupportedMeasure`."""
    try:
        val = one_sided_integral(nu, side, power, lo, hi)
    except QuadratureFailure:
        val = math.nan
    if not math.isfinite(val):
        raise UnsupportedMeasure(
            f"could not integrate the jump density on side {side:+d}")
    return val


def _rejection_sampler(propose, accept_prob):
    """Vectorised rejection sampling: draw until ``k`` accepts."""

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        out = np.empty(0)
        while out.size < k:
            need = k - out.size
            cand = propose(rng, max(64, 2 * need))
            u = rng.random(cand.size)
            out = np.concatenate([out, cand[u < accept_prob(cand)]])
        return out[:k]

    return draw


_EULER_GAMMA = 0.5772156649015328
#: ``1/(k k!)`` for ``k = 2..20``; the ``k = 20`` term is 2.1e-20
_E1_SERIES = tuple(1.0 / (k * math.factorial(k)) for k in range(2, 21))


def _exp1(x: float) -> float:
    """The exponential integral ``E1(x) = ∫_x^∞ e^{-t}/t dt`` for ``x > 0``.

    Up to 1 the power series ``-γ - log x + Σ (-1)^{k+1} x^k/(k k!)``, with
    ``x - γ`` formed first (exact near 1, where the terms cancel) and the
    terms from ``k = 2`` nested; above 1 the continued fraction of
    ``e^x E1(x)`` of specfun's ``E1XB``."""
    if x <= 1.0:
        nested = 0.0
        for c in reversed(_E1_SERIES):
            nested = c - x * nested
        return (x - _EULER_GAMMA) - math.log(x) - x * x * nested
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def _one_sided_exp_poly_plan(nu: LevyMeasure, rate: float, power_y: float,
                             eps: float, side: int) -> Tuple[float, Callable]:
    """Plan for the side of ``nu`` with density ``C e^{-rate*s}
    s^{-1-power_y}`` on ``s > eps`` (``power_y = 0`` is the gamma-like
    case).  Returns (intensity, draw of signed sizes)."""
    if power_y == 0.0:
        lam = nu.C * _exp1(rate * eps)

        def propose(rng, k):
            return eps + rng.exponential(1.0 / rate, k)

        draw = _rejection_sampler(propose, lambda x: eps / x)
    else:
        lam = _side_integral(nu, side, 0, eps, math.inf)

        def propose(rng, k):
            return eps * rng.random(k) ** (-1.0 / power_y)

        def accept(x):
            with np.errstate(over="ignore"):
                return np.exp(-rate * (x - eps))

        draw = _rejection_sampler(propose, accept)

    def signed_draw(rng, k):
        return side * draw(rng, k)

    return lam, signed_draw


def _mix_plans(parts: List[Tuple[float, Callable]], exact: bool) -> _JumpPlan:
    rates = np.array([r for r, _ in parts], dtype=float)
    total = float(rates.sum())
    if total == 0.0:
        return _JumpPlan(0.0, None, exact)
    probs = rates / total
    draws = [d for _, d in parts]

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        counts = rng.multinomial(k, probs)
        chunks = [draws[i](rng, int(c)) for i, c in enumerate(counts) if c > 0]
        sizes = np.concatenate(chunks) if chunks else np.empty(0)
        return rng.permutation(sizes)

    return _JumpPlan(total, draw, exact)


def _jump_plan(nu: LevyMeasure, eps: float) -> _JumpPlan:
    """Build the large-jump sampling plan, or raise ``UnsupportedMeasure``."""
    atoms = nu.atoms()
    if atoms is not None:
        if not atoms:
            return _JumpPlan(0.0, None, True)
        positions = np.array([p for p, _ in atoms])
        masses = np.array([m for _, m in atoms])
        total = float(masses.sum())
        probs = masses / total

        def draw(rng: np.random.Generator, k: int) -> np.ndarray:
            return rng.choice(positions, size=k, p=probs)

        return _JumpPlan(total, draw, True)

    if isinstance(nu, JumpDiffusion):
        j = nu.jumps
        if isinstance(j, GaussianJumps):
            def draw(rng, k):
                return rng.normal(j.mean, j.std, k)
        else:
            def draw(rng, k, jj=j):
                pos = rng.random(k) < jj.p
                out = np.where(pos,
                               rng.exponential(1.0 / jj.eta_plus, k),
                               -rng.exponential(1.0 / jj.eta_minus, k))
                return out
        return _JumpPlan(nu.intensity, draw, True)

    if isinstance(nu, SymmetricAlphaStable):
        lam_side = nu.scale * eps ** (-nu.alpha) / nu.alpha

        def draw(rng, k):
            sign = np.where(rng.random(k) < 0.5, 1.0, -1.0)
            return sign * eps * rng.random(k) ** (-1.0 / nu.alpha)

        return _JumpPlan(2.0 * lam_side, draw, False)

    if isinstance(nu, CGMY):
        parts = [_one_sided_exp_poly_plan(nu, nu.M, nu.Y, eps, +1),
                 _one_sided_exp_poly_plan(nu, nu.G, nu.Y, eps, -1)]
        return _mix_plans(parts, False)

    if isinstance(nu, Tempered):
        base = _jump_plan(nu.base, eps)
        if base.draw is None:
            return base

        def accept(x: np.ndarray) -> np.ndarray:
            # sizes of the tempered process are base sizes accepted with
            # probability e^{w(x)} <= 1; the intensity shrinks accordingly
            w = np.exp(nu.log_weight(x))
            if np.any(w > 1.0 + 1e-12):
                raise UnsupportedMeasure(
                    "tempering weight exceeds 1: thinning sampler invalid")
            return w

        return _JumpPlan(_thinned_rate(nu, eps),
                         _rejection_sampler(base.draw, accept), base.exact)

    raise UnsupportedMeasure(
        f"no sampling recipe for measure type {type(nu).__name__}")


def _thinned_rate(nu: Tempered, eps: float) -> float:
    """``∫_{|x|>eps} e^w dν_base = ν({|x| > eps})`` — the effective
    tempered intensity."""
    return (_side_integral(nu, +1, 0, eps, math.inf)
            + _side_integral(nu, -1, 0, eps, math.inf))


def _truncated_mean(nu: LevyMeasure, lo: float) -> float:
    """``∫_{lo<|x|<=1} x ν(dx)`` — the compensator of the sampled jumps
    that fall inside the truncation ball."""
    if nu.is_symmetric():
        return 0.0
    return (_side_integral(nu, +1, 1, lo, INNER_CUT)
            - _side_integral(nu, -1, 1, lo, INNER_CUT))


def _small_variance(nu: LevyMeasure, eps: float) -> float:
    """``∫_{|x|<=eps} x² ν(dx)`` for the Gaussian remainder."""
    return (one_sided_integral(nu, +1, 2, 0.0, eps)
            + one_sided_integral(nu, -1, 2, 0.0, eps))


# ---------------------------------------------------------------------------
# terminal sampling
# ---------------------------------------------------------------------------


def _worker_count() -> int:
    env = os.environ.get("LEVY_EMM_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def sample_terminal(t: LevyTriplet, cfg: SimConfig) -> SamplePack:
    """Draw ``cfg.n_samples`` i.i.d. values of ``L_T``.

    Work is split into fixed-size batches, each with its own generator
    spawned from the seed, so results are identical however many threads
    run them.  When ``cfg.record_jumps`` is set, the times and sizes of
    the jumps with magnitude above the cutoff are kept as
    :class:`JumpRecords`.
    """
    nu = validate_triplet(t).nu
    plan = _jump_plan(nu, cfg.epsilon)
    cut_lo = 0.0 if plan.exact else cfg.epsilon
    tmean = _truncated_mean(nu, cut_lo) if plan.rate > 0.0 else 0.0
    small_sd = 0.0
    if not plan.exact and cfg.small_jump_mode == "gaussian":
        small_sd = math.sqrt(cfg.T * _small_variance(nu, cfg.epsilon))
    drift = (t.b - tmean) * cfg.T
    sigma_sd = math.sqrt(t.sigma2 * cfg.T)

    n = int(cfg.n_samples)
    n_batches = (n + _BATCH - 1) // _BATCH
    children = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    values = np.empty(n, dtype=float)
    # each batch's (jumps per path, times, sizes), joined in batch order
    slices: Optional[List] = [None] * n_batches if cfg.record_jumps else None

    def run_batch(k: int) -> None:
        lo, hi = k * _BATCH, min(n, (k + 1) * _BATCH)
        count = hi - lo
        rng = np.random.Generator(np.random.Philox(children[k]))
        out = np.full(count, drift)
        if sigma_sd > 0.0:
            out += sigma_sd * rng.standard_normal(count)
        if small_sd > 0.0:
            out += small_sd * rng.standard_normal(count)
        if plan.rate > 0.0:
            counts = rng.poisson(plan.rate * cfg.T, count)
            total = int(counts.sum())
            sizes = plan.draw(rng, total) if total else np.empty(0)
            path = np.repeat(np.arange(count), counts)
            out += np.bincount(path, weights=sizes, minlength=count)
            if slices is not None:
                times = rng.uniform(0.0, cfg.T, total)
                keep = np.abs(sizes) > cfg.epsilon
                path, times, sizes = path[keep], times[keep], sizes[keep]
                order = np.lexsort((times, path))
                slices[k] = (np.bincount(path, minlength=count),
                             times[order], sizes[order])
        elif slices is not None:
            slices[k] = (np.zeros(count, dtype=np.intp), np.empty(0),
                         np.empty(0))
        values[lo:hi] = out

    workers = _worker_count()
    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_batch, range(n_batches)))
    else:
        for k in range(n_batches):
            run_batch(k)

    records = None
    if slices is not None:
        counts, times, sizes = (np.concatenate(a) for a in zip(*slices))
        records = JumpRecords(np.concatenate(([0], np.cumsum(counts))),
                              times, sizes)
    return SamplePack(values, cfg.T, cfg.seed, records)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _norm_weights(values: np.ndarray, kappa: float) -> np.ndarray:
    """Importance weights ``e^{κ L}`` up to a common factor, with an
    effective-sample-size guard."""
    lw = kappa * values
    w = np.exp(lw - lw.max())
    ess = float(w.sum()) ** 2 / float((w * w).sum())
    if ess < _MIN_ESS:
        raise DegenerateWeights(
            f"effective sample size {ess:.2f} < {_MIN_ESS:g} at kappa={kappa}")
    return w


def martingale_defect(pack: SamplePack, kappa: float) -> Tuple[float, float]:
    """Estimate ``E[L_T]`` under the ``κ``-tilted measure, with a
    delta-method standard error; zero at a correct martingale tilt."""
    vals = pack.values
    w = _norm_weights(vals, float(kappa))
    wbar = float(w.mean())
    est = float((w * vals).mean()) / wbar
    resid = w * (vals - est)
    se = float(resid.std(ddof=1)) / (wbar * math.sqrt(vals.size))
    return est, se


def entropy_estimate(pack: SamplePack, kappa: float) -> Tuple[float, float]:
    """Estimate the relative entropy of the ``κ``-tilt, ``E[Z log Z]``
    with ``Z = e^{κL_T}`` normalized by the sample mgf.

    Identical in the limit to ``κ E_κ[L_T] - log E[e^{κL_T}]``; the
    standard error comes from the delta method on the two sample means
    involved.
    """
    kappa = float(kappa)
    vals = pack.values
    if kappa == 0.0:
        return 0.0, 0.0
    w = _norm_weights(vals, kappa)
    shift = float((kappa * vals).max())
    B = float(w.mean())
    A = float((w * vals).mean())
    log_phi_hat = shift + math.log(B)
    est = kappa * A / B - log_phi_hat
    gA = kappa / B
    gB = -kappa * A / (B * B) - 1.0 / B
    cov = np.cov(np.stack([w * vals, w]), ddof=1)
    var = gA * gA * cov[0, 0] + 2.0 * gA * gB * cov[0, 1] + gB * gB * cov[1, 1]
    se = math.sqrt(max(var, 0.0) / vals.size)
    return est, se


# ---------------------------------------------------------------------------
# pathwise tempering density
# ---------------------------------------------------------------------------


class PathwiseZn(Record):
    """Exact per-path ``log Z^n_T`` plus its exponential's sample mean,
    standard error, and the n=1 uniform upper bound."""

    log_zn: np.ndarray
    zn_mean: float
    zn_se: float
    uniform_bound: float

    __eq__ = object.__eq__  # by identity, as JumpRecords
    __hash__ = object.__hash__


def pathwise_log_zn(pack: SamplePack, p: PenaltyFamily, n: int,
                    nu: LevyMeasure) -> PathwiseZn:
    """Evaluate ``log Z^n_T = -Σ ρ_n(jump) + T ∫ (1 - e^{-ρ_n}) dν`` on
    every recorded path.

    Exact, not approximate: the penalty vanishes on ``|x| <= 1``, so the
    unrecorded small jumps contribute nothing.  The sample mean of
    ``Z^n_T`` estimates 1 (unit expectation) and every path obeys the
    ``n = 1`` uniform bound.
    """
    if pack.jump_records is None:
        raise MissingJumpRecords(
            "pathwise evaluation needs jump records; sample with record_jumps=True")
    gap_n = mass_gap(nu, p, int(n))
    gap_1 = mass_gap(nu, p, 1)
    rec = pack.jump_records
    # np.add.reduceat would give a path without jumps its neighbour's term
    path = np.repeat(np.arange(pack.n), np.diff(rec.offsets))
    log_zn = pack.T * gap_n - np.bincount(
        path, weights=p.rho_at(n, rec.sizes), minlength=pack.n)
    zn = np.exp(log_zn)
    mean = float(zn.mean())
    se = float(zn.std(ddof=1)) / math.sqrt(zn.size) if zn.size > 1 else 0.0
    return PathwiseZn(log_zn, mean, se, math.exp(pack.T * gap_1))
