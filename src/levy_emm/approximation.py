"""Tempered approximations that restore a martingale measure in the limit.

Heavy-tailed jump measures can leave the finite-moment interval degenerate,
so no tilt works.  Multiplying the jump measure by ``e^{-ρ_n}`` with a
superlinear penalty ``ρ_n`` that relaxes as ``n`` grows produces processes
with all exponential moments, each of which admits a driftless tilt
``κ_n``; this module builds those perturbed models, solves each one, and
records the entropy bookkeeping that shows the sequence approaching the
original measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import LevyEmmError, PenaltyViolation
from .esscher import solve_linear_emm
from .levy_core.measures import FiniteAtomic, LevyMeasure, Tempered
from .levy_core.quadrature import (DEFAULT_SETTINGS, INNER_CUT,
                                   QuadratureSettings, SidePlan,
                                   exp_entropy_term, exp_integrand,
                                   two_sided_integral)
from .levy_core.triplets import LevyTriplet, TripletLike, as_validated
from .mgf_analysis import minimize_mgf

__all__ = [
    "PenaltyFamily",
    "ApproxStep",
    "ApproxTrace",
    "perturbed_triplet",
    "approx_sequence",
    "default_schedule",
    "PenaltyDiagnostics",
    "check_penalty",
    "mass_gap",
]


# ---------------------------------------------------------------------------
# penalty families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltyFamily:
    """A decreasing family of superlinear penalties ``ρ_n >= 0`` that
    vanish on ``|x| <= 1``, so small jumps are never tempered.

    ``rho(n, x)`` must be vectorised in ``x``.  The declared flags record
    structural facts the numerics rely on: ``superlinear`` (``|x|/ρ_n(x)``
    vanishes at infinity, which makes ``e^{-ρ_n}`` beat every exponential
    tilt) and ``even`` (``ρ_n(-x) = ρ_n(x)``, preserving symmetry of
    symmetric measures).  :func:`check_penalty` verifies the declarations
    numerically.
    """

    kind: str
    rho: Callable[[int, np.ndarray], np.ndarray]
    superlinear: bool = True
    even: bool = True

    @staticmethod
    def default_quadratic() -> "PenaltyFamily":
        """``ρ_n(x) = x²/n`` outside the unit ball, zero inside."""

        def rho(n: int, x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) > 1.0, x * x / n, 0.0)

        return PenaltyFamily("default_quadratic", rho)

    @staticmethod
    def power(exponent: float) -> "PenaltyFamily":
        """``ρ_n(x) = |x|^exponent / n`` outside the unit ball.

        Superlinear (hence valid) only for ``exponent > 1``; the flag is
        declared accordingly so invalid exponents are rejected at use.
        """
        exponent = float(exponent)

        def rho(n: int, x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            ax = np.abs(x)
            with np.errstate(over="ignore"):
                return np.where(ax > 1.0, ax ** exponent / n, 0.0)

        return PenaltyFamily(f"power_{exponent:g}", rho,
                             superlinear=exponent > 1.0)

    @staticmethod
    def custom(rho: Callable[[int, np.ndarray], np.ndarray], *,
               superlinear: bool = True,
               even: bool = True) -> "PenaltyFamily":
        return PenaltyFamily("custom", rho, superlinear=superlinear,
                             even=even)

    def rho_at(self, n: int, x) -> np.ndarray:
        return np.asarray(self.rho(int(n), np.asarray(x, dtype=float)),
                          dtype=float)

    def validate(self, n: int) -> None:
        """Cheap structural sniff of ``ρ_n``: raises
        :class:`PenaltyViolation` for a family that is not superlinear,
        not finite and nonnegative, or not zero inside the unit ball.
        :func:`check_penalty` is the numerical diagnosis."""
        if not self.superlinear:
            raise PenaltyViolation(
                f"penalty family {self.kind!r} is not superlinear: "
                "the tempered tails would not dominate exponential tilts")
        probe = self.rho_at(n, np.array([-1e6, -1e3, -2.0, 2.0, 1e3, 1e6]))
        if not np.all(np.isfinite(probe)) or np.any(probe < 0.0):
            raise PenaltyViolation("penalty must be finite and nonnegative")
        r_mid = 1e3 / max(float(self.rho_at(n, 1e3)), 1e-300)
        r_far = 1e6 / max(float(self.rho_at(n, 1e6)), 1e-300)
        if not r_far <= 0.1 * r_mid:
            raise PenaltyViolation(
                f"|x|/rho_n(x) does not decay ({r_mid:.3g} at 1e3 vs "
                f"{r_far:.3g} at 1e6): penalty is not superlinear")
        if np.any(self.rho_at(n, np.array([-0.9, 0.5, 1.0])) != 0.0):
            raise PenaltyViolation("penalty must vanish on |x| <= 1")


# ---------------------------------------------------------------------------
# perturbed models
# ---------------------------------------------------------------------------


def _no_outer_mass(nu: LevyMeasure, q: QuadratureSettings) -> bool:
    atoms = nu.atoms()
    if atoms is not None:
        return all(abs(pos) <= INNER_CUT for pos, _ in atoms)
    r, l = nu.right_tail(), nu.left_tail()
    return (r.kind == "bounded" and r.cutoff <= INNER_CUT
            and l.kind == "bounded" and l.cutoff <= INNER_CUT)


def perturbed_triplet(t: TripletLike, p: PenaltyFamily, n: int,
                      q: QuadratureSettings = DEFAULT_SETTINGS) -> LevyTriplet:
    """The triplet with jump measure ``e^{-ρ_n} ν``; drift and variance
    are untouched.

    Measures with no mass outside the unit ball come back unchanged (the
    penalty vanishes on their support).  Atomic measures are tempered
    exactly; densities get a tempering wrapper carrying closed-form log
    weights and superexponential tail hints.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    p.validate(int(n))
    vt = as_validated(t, q)
    nu = vt.nu
    if _no_outer_mass(nu, q):
        return LevyTriplet(vt.b, vt.sigma2, nu)
    atoms = nu.atoms()
    if atoms is not None:
        tempered = FiniteAtomic(tuple(
            (pos, m * math.exp(-float(p.rho_at(n, pos)))) for pos, m in atoms))
        return LevyTriplet(vt.b, vt.sigma2, tempered)

    def weight(x: np.ndarray) -> np.ndarray:
        return np.exp(-p.rho_at(n, x))

    def log_weight(x: np.ndarray) -> np.ndarray:
        return -p.rho_at(n, x)

    tempered = Tempered(nu, weight, weight_superexp=True,
                        weight_even=p.even and nu.is_symmetric(),
                        log_weight=log_weight)
    return LevyTriplet(vt.b, vt.sigma2, tempered)


# ---------------------------------------------------------------------------
# per-step integrals
# ---------------------------------------------------------------------------


def mass_gap(nu: LevyMeasure, p: PenaltyFamily, n: int,
             q: QuadratureSettings) -> float:
    """``∫ (1 - e^{-ρ_n}) dν`` — the jump mass the tempering removes."""
    atoms = nu.atoms()
    if atoms is not None:
        return float(math.fsum(
            -m * math.expm1(-float(p.rho_at(n, pos))) for pos, m in atoms))

    def pre(x: np.ndarray) -> np.ndarray:
        return -np.expm1(-p.rho_at(n, x))

    tail = exp_integrand(0.0, prefactor=pre)
    right = SidePlan(tail, nu.right_tail().moment_finite(0, 0.0))
    left = SidePlan(tail, nu.left_tail().moment_finite(0, 0.0))
    val, _ = two_sided_integral(nu, q, inner_g=None, right=right, left=left)
    # lossy view: an unvalidated measure with infinite outer mass must come
    # back as inf so the integrability diagnostic can fail it, not crash
    return val.as_float()


def _correction_integral(nu: LevyMeasure, p: PenaltyFamily, n: int,
                         kappa: float, q: QuadratureSettings) -> float:
    """``∫ ρ_n e^{κx - ρ_n} dν`` — the tempered mean of the penalty under
    the tilted perturbed measure."""
    atoms = nu.atoms()
    if atoms is not None:
        total = []
        for pos, m in atoms:
            r = float(p.rho_at(n, pos))
            if r != 0.0:
                total.append(m * r * math.exp(kappa * pos - r))
        return float(math.fsum(total))

    def pre(x: np.ndarray) -> np.ndarray:
        return p.rho_at(n, x)

    def log_w(x: np.ndarray) -> np.ndarray:
        return -p.rho_at(n, x)

    plan = SidePlan(exp_integrand(kappa, prefactor=pre, log_weight=log_w),
                    True)
    val, _ = two_sided_integral(nu, q, inner_g=None, right=plan, left=plan)
    return val.value


def _entropy_vs_base(vt, p: PenaltyFamily, n: int, kappa: float,
                     horizon: float, q: QuadratureSettings) -> float:
    """Relative entropy of the tilted-perturbed measure against the
    *original* one, computed independently of the decomposition:
    ``T [σ²κ²/2 + ∫ (Y ln Y - Y + 1) dν]`` with ``Y = e^{κx - ρ_n}``.
    """
    nu = vt.nu

    def u_of(x: np.ndarray) -> np.ndarray:
        return kappa * x - p.rho_at(n, x)

    atoms = nu.atoms()
    if atoms is not None:
        jump_part = float(math.fsum(
            m * float(exp_entropy_term(np.asarray(u_of(pos))))
            for pos, m in atoms))
    else:
        def log_w(x: np.ndarray) -> np.ndarray:
            return -p.rho_at(n, x)

        # the penalty vanishes inside the cut
        tail = exp_integrand(kappa, factor=exp_entropy_term, log_weight=log_w)
        right = SidePlan(tail, nu.right_tail().moment_finite(0, 0.0))
        left = SidePlan(tail, nu.left_tail().moment_finite(0, 0.0))
        val, _ = two_sided_integral(
            nu, q, inner_g=exp_integrand(kappa, factor=exp_entropy_term),
            right=right, left=left)
        jump_part = val.value
    return horizon * (vt.sigma2 * kappa * kappa / 2.0 + jump_part)


# ---------------------------------------------------------------------------
# the sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxStep:
    """One tempered solve: its tilt, its entropy relative to the perturbed
    measure (``entropy_n``), the decomposition correction, and the
    independently computed entropy relative to the original measure."""

    n: int
    kappa_n: float
    entropy_n: float
    correction_n: float
    entropy_vs_P: float
    mass_gap: float

    def describe(self) -> dict:
        return {"n": self.n, "kappa_n": self.kappa_n,
                "entropy_n": self.entropy_n,
                "correction_n": self.correction_n,
                "entropy_vs_P": self.entropy_vs_P,
                "mass_gap": self.mass_gap}


@dataclass(frozen=True)
class ApproxTrace:
    """The full schedule, plus the limit values implied by the original
    model's mgf minimizer and any per-step failures."""

    steps: Tuple[ApproxStep, ...]
    kappa_limit: float
    entropy_limit: float
    failures: Tuple[Tuple[int, str], ...] = ()

    def describe(self) -> dict:
        return {"steps": [s.describe() for s in self.steps],
                "kappa_limit": self.kappa_limit,
                "entropy_limit": self.entropy_limit,
                "failures": [[n, msg] for n, msg in self.failures]}


def default_schedule(max_power: int = 12) -> Tuple[int, ...]:
    """``(1, 2, 4, ..., 2^max_power)`` — geometric growth matching the
    ``e^{-x²/n}`` relaxation rate."""
    return tuple(2 ** k for k in range(max_power + 1))


def approx_sequence(t: TripletLike, horizon: float, p: PenaltyFamily,
                    n_schedule: Sequence[int] = default_schedule(),
                    q: QuadratureSettings = DEFAULT_SETTINGS) -> ApproxTrace:
    """Solve the tempered model for every ``n`` in an increasing schedule.

    Each step always finds its tilt (the perturbed model has every
    exponential moment), records ``entropy_n = -T c_n(κ_n)``, the removed
    jump mass, the correction term ``T·mass_gap - T∫ρ_n e^{κ_n x-ρ_n}dν``,
    and an independent entropy against the original measure.  Step-level
    failures are recorded in the trace rather than aborting the schedule.
    The limit fields come from minimizing the original model's mgf.
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    schedule = [int(n) for n in n_schedule]
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("n_schedule must be nonempty and strictly increasing")
    if schedule[0] < 1:
        raise ValueError("n_schedule entries must be >= 1")
    vt = as_validated(t, q)
    mp = minimize_mgf(vt, horizon, q)  # raises for monotone (arbitrage) inputs
    kappa_limit = mp.kappa0
    entropy_limit = -mp.log_phi_at_min + 0.0

    steps = []
    failures = []
    for n in schedule:
        try:
            pert = perturbed_triplet(vt, p, n, q)
            res = solve_linear_emm(pert, horizon, q)
            if res.kappa0 is None:
                raise LevyEmmError(
                    f"tempered model unexpectedly returned {res.status.value}")
            kappa_n = res.kappa0
            entropy_n = res.entropy
            gap = mass_gap(vt.nu, p, n, q)
            corr = horizon * gap - horizon * _correction_integral(
                vt.nu, p, n, kappa_n, q)
            vs_p = _entropy_vs_base(vt, p, n, kappa_n, horizon, q)
            steps.append(ApproxStep(n, kappa_n, entropy_n, corr, vs_p, gap))
        except LevyEmmError as exc:
            failures.append((n, f"{type(exc).__name__}: {exc}"))
    return ApproxTrace(tuple(steps), kappa_limit, entropy_limit,
                       tuple(failures))


# ---------------------------------------------------------------------------
# penalty diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltyDiagnostics:
    """Numerical verdicts for the three structural penalty conditions,
    each with a witness describing what was checked or what failed."""

    monotone_ok: bool
    superlinear_ok: bool
    integrable_ok: bool
    witnesses: dict

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.superlinear_ok and self.integrable_ok

    def describe(self) -> dict:
        return {"monotone_in_n": self.monotone_ok,
                "superlinear": self.superlinear_ok,
                "mass_gap_integrable": self.integrable_ok,
                "passed": self.passed,
                "witnesses": self.witnesses}


def check_penalty(p: PenaltyFamily, nu: LevyMeasure,
                  q: QuadratureSettings = DEFAULT_SETTINGS) -> PenaltyDiagnostics:
    """Verify the three penalty conditions against a concrete measure.

    (1) ``ρ_{n+1} <= ρ_n`` on a grid; (2) ``|x|/ρ_n(x) -> 0`` along a
    geometric ray; (3) ``∫(1-e^{-ρ_n})dν`` finite by quadrature.
    """
    witnesses: dict = {}

    grid = np.concatenate([-np.geomspace(1.0001, 1e4, 25),
                           np.linspace(-1.0, 1.0, 9),
                           np.geomspace(1.0001, 1e4, 25)])
    monotone_ok = True
    for n in (1, 2, 3, 5, 8, 13):
        r_n, r_next = p.rho_at(n, grid), p.rho_at(n + 1, grid)
        bad = np.nonzero(r_next > r_n * (1.0 + 1e-12) + 1e-300)[0]
        if bad.size:
            i = int(bad[0])
            witnesses["monotone_violation"] = {
                "n": n, "x": float(grid[i]),
                "rho_n": float(r_n[i]), "rho_n_plus_1": float(r_next[i])}
            monotone_ok = False
            break
    if monotone_ok:
        witnesses["monotone_grid"] = {"points": int(grid.size), "n_checked": 6}

    ray = np.geomspace(10.0, 1e6, 6)
    superlinear_ok = True
    for n in (1, 4, 16):
        rho_vals = p.rho_at(n, ray)
        with np.errstate(divide="ignore"):
            ratios = ray / np.where(rho_vals > 0, rho_vals, np.inf)
        if not (ratios[-1] < 1e-2 and ratios[-1] <= ratios[0] * 0.1):
            witnesses["superlinear_violation"] = {
                "n": n, "x": [float(v) for v in ray],
                "x_over_rho": [float(v) for v in ratios]}
            superlinear_ok = False
            break
    if superlinear_ok:
        witnesses["superlinear_ray"] = {
            "x_max": float(ray[-1]), "n_checked": 3}

    integrable_ok = True
    try:
        gap = mass_gap(nu, p, 1, q)
        integrable_ok = math.isfinite(gap) and gap >= -q.abs_tol
        witnesses["mass_gap_n1"] = gap
    except LevyEmmError as exc:
        integrable_ok = False
        witnesses["mass_gap_error"] = f"{type(exc).__name__}: {exc}"

    return PenaltyDiagnostics(monotone_ok, superlinear_ok, integrable_ok,
                              witnesses)
