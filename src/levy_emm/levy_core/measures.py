"""Jump-measure variants and their tail-decay metadata.

Every measure knows three things beyond its pointwise density/atom data:

* its two sides: ``side(s)`` for ``s = +1`` (jumps ``x > 0``) and ``s =
  -1`` (jumps ``x < 0``) is the :class:`TailDecay` of that side, which is
  what decides whether an exponential moment ``∫ |x|^m e^{t x} ν(dx)``
  converges without ever integrating anything.  ``TailDecay.bounded(0.0)``
  is a side without jumps, so ``side(s).cutoff > 0`` says whether there
  are any;
* whether it is exactly symmetric, which lets integration routines fold the
  negative axis onto the positive one so that odd integrands cancel exactly
  (not just to quadrature tolerance);
* how to tilt itself by ``e^{κx}``, in closed form where the family is
  closed under tilting and via a generic wrapper otherwise.

Variance-gamma has no class of its own: it is the ``Y = 0`` member of the
CGMY family, and :func:`VarianceGamma` builds that :class:`CGMY`.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import (KappaOutsideI, QuadratureFailure, UnsupportedMeasure,
                      ValidationError)
from .record import Record

__all__ = [
    "TailDecay",
    "LevyMeasure",
    "FiniteAtomic",
    "GaussianJumps",
    "DoubleExponentialJumps",
    "JumpDiffusion",
    "VarianceGamma",
    "CGMY",
    "SymmetricAlphaStable",
    "Tempered",
    "ExpTilted",
    "GenericDensity",
    "ExpJumpImage",
    "LogJumpImage",
    "zero_measure",
]


# ---------------------------------------------------------------------------
# tail decay descriptors
# ---------------------------------------------------------------------------

_BOUNDED = "bounded"
_SUPEREXP = "superexp"
_EXP = "exp"
_POLY = "poly"
_IMAGE = "exp_image"


class TailDecay(Record):
    """Asymptotic decay of one tail of a jump measure.

    The descriptor is direction-free: it describes the behaviour of the
    tail mass at distance ``s -> +inf`` along its own side.  Kinds:

    ``bounded``
        no mass at distance ``> cutoff``, the only kind with a finite
        ``cutoff``;
    ``superexp``
        decays faster than every exponential (e.g. Gaussian factors,
        quadratic tempering);
    ``exp``
        density ``~ s^power * exp(-rate * s)``;
    ``poly``
        density ``~ s^power`` (``power = -inf`` encodes "faster than any
        polynomial but slower than any exponential");
    ``exp_image``
        ``e^{-rate s}`` times the image of the log-jump tail ``base`` under
        ``s -> e^s - 1``: at the edge tilt ``rate`` the weight-``w`` moment
        is the base's ``e^{ws}`` moment, below it every moment converges
        and above it none does.
    """

    kind: str
    rate: float = 0.0
    power: float = 0.0
    cutoff: float = math.inf
    base: Optional["TailDecay"] = None

    def __post_init__(self) -> None:
        if self.kind not in (_BOUNDED, _SUPEREXP, _EXP, _POLY, _IMAGE):
            raise ValidationError(f"unknown tail kind {self.kind!r}")
        if self.kind == _EXP and not self.rate > 0:
            raise ValidationError("exp tail needs rate > 0")
        if self.kind == _IMAGE and (self.base is None or self.rate < 0):
            raise ValidationError("image tail needs a base tail and rate >= 0")
        if (self.kind == _BOUNDED) != math.isfinite(self.cutoff):
            raise ValidationError(f"only a bounded tail has a finite cutoff, "
                                  f"got {self.kind} with {self.cutoff}")

    # constructors ------------------------------------------------------
    @staticmethod
    def bounded(cutoff: float = 1.0) -> "TailDecay":
        return TailDecay(_BOUNDED, cutoff=float(cutoff))

    @staticmethod
    def superexp() -> "TailDecay":
        return TailDecay(_SUPEREXP)

    @staticmethod
    def exponential(rate: float, power: float = 0.0) -> "TailDecay":
        return TailDecay(_EXP, rate=float(rate), power=float(power))

    @staticmethod
    def polynomial(power: float) -> "TailDecay":
        return TailDecay(_POLY, power=float(power))

    # queries -------------------------------------------------------------
    def moment_finite(self, weight_power: int, tilt_along: float) -> bool:
        """Whether ``∫_{s>1} s^weight_power e^{tilt_along * s} (tail) ds``
        converges.  ``tilt_along`` is the exponential rate *along* the tail
        direction (pass ``κ`` for the right tail, ``-κ`` for the left)."""
        if self.kind in (_BOUNDED, _SUPEREXP):
            return True
        if self.kind == _IMAGE:
            if tilt_along != self.rate:
                return tilt_along < self.rate
            return self.base.moment_finite(0, float(weight_power))
        if self.kind == _EXP:
            if tilt_along < self.rate:
                return True
            if tilt_along == self.rate:
                return self.power + weight_power < -1.0
            return False
        # polynomial
        if tilt_along < 0.0:
            return True
        if tilt_along == 0.0:
            return self.power + weight_power < -1.0
        return False

    def tilt_sup(self) -> float:
        """Supremum of tilts with a finite plain exponential moment."""
        if self.kind in (_BOUNDED, _SUPEREXP):
            return math.inf
        if self.kind in (_EXP, _IMAGE):
            return self.rate
        return 0.0

    # transforms ----------------------------------------------------------
    def tempered_superexp(self) -> "TailDecay":
        """Effect of multiplying by a super-exponentially decaying weight."""
        return self if self.kind == _BOUNDED else TailDecay.superexp()

    def tilted(self, tilt_along: float) -> "TailDecay":
        """Effect of multiplying the tail by ``e^{tilt_along * s}``.

        Caller guarantees the tilt keeps the measure finite on this side.
        """
        if self.kind in (_BOUNDED, _SUPEREXP) or tilt_along == 0.0:
            return self
        if self.kind == _IMAGE:
            if tilt_along > self.rate:
                raise KappaOutsideI(f"tilt {tilt_along} beyond rate {self.rate}")
            return TailDecay(_IMAGE, rate=self.rate - tilt_along, base=self.base)
        if self.kind == _EXP:
            new_rate = self.rate - tilt_along
            if new_rate > 0:
                return TailDecay.exponential(new_rate, self.power)
            if new_rate == 0:
                return TailDecay.polynomial(self.power)
            raise KappaOutsideI(f"tilt {tilt_along} beyond rate {self.rate}")
        # polynomial tail: only negative tilts are admissible
        if tilt_along < 0:
            return TailDecay.exponential(-tilt_along, self.power)
        raise KappaOutsideI("positive tilt of a polynomial tail")


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------


class LevyMeasure:
    """Common interface of all jump-measure variants.

    A measure is read through its two sides: ``side(s)`` is the one query
    for the tail decay of the jumps ``s·x > 0``, and
    ``TailDecay.bounded(0.0)`` says that side has no jumps.  Subclasses
    are frozen records; instances are hashable so derived quantities can
    be memoised against them.
    """

    # structural queries -------------------------------------------------
    def atoms(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """((position, mass), ...) for purely atomic measures, else None."""
        return None

    def density(self, x: np.ndarray) -> np.ndarray:
        """Pointwise density at ``x != 0`` (vectorised)."""
        raise UnsupportedMeasure(f"{type(self).__name__} has no density")

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """``log(density)``, overriding families provide it in closed form
        so that exponentially tilted tail integrands never meet an
        ``inf * 0`` from an underflowed density."""
        with np.errstate(divide="ignore"):
            return np.log(self.density(x))

    def side(self, s: int) -> TailDecay:
        """The decay of the jumps ``s·x > 0`` for ``s = ±1``;
        ``TailDecay.bounded(0.0)`` where there are none."""
        raise NotImplementedError

    def is_symmetric(self) -> bool:
        """True only when the measure is exactly invariant under x -> -x."""
        return False

    # transforms -----------------------------------------------------------
    def tilted(self, kappa: float) -> "LevyMeasure":
        """The measure ``e^{κx} ν(dx)``; raises KappaOutsideI if infinite."""
        return self if kappa == 0.0 else ExpTilted(self, kappa)

    # reporting ------------------------------------------------------------
    def describe(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# purely atomic measures
# ---------------------------------------------------------------------------


class FiniteAtomic(LevyMeasure, Record):
    """Finitely many atoms; ``atom_list`` is ((position, mass), ...).

    The empty tuple is the zero measure (a jump-free process).
    """

    atom_list: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        norm = []
        for pos, mass in self.atom_list:
            pos, mass = float(pos), float(mass)
            if not math.isfinite(pos) or pos == 0.0:
                raise ValidationError(f"atom position must be finite nonzero, got {pos}")
            if not (mass > 0) or not math.isfinite(mass):
                raise ValidationError(f"atom mass must be positive finite, got {mass}")
            norm.append((pos, mass))
        object.__setattr__(self, "atom_list", tuple(norm))
        # built once: every cumulant asks for both sides
        sup = max((p for p, _ in norm if p > 0), default=0.0)
        inf = min((p for p, _ in norm if p < 0), default=0.0)
        object.__setattr__(self, "_sides", (TailDecay.bounded(sup),
                                            TailDecay.bounded(-inf)))

    def atoms(self) -> Tuple[Tuple[float, float], ...]:
        return self.atom_list

    def side(self, s: int) -> TailDecay:
        return self._sides[s < 0]

    def is_symmetric(self) -> bool:
        table = sorted(self.atom_list)
        mirrored = sorted((-p, m) for p, m in self.atom_list)
        return table == mirrored

    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atom_list))

    def tilted(self, kappa: float) -> "FiniteAtomic":
        if kappa == 0.0:
            return self
        try:
            return FiniteAtomic(tuple((p, m * math.exp(kappa * p))
                                      for p, m in self.atom_list))
        except (OverflowError, ValidationError):  # a mass left the floats
            raise QuadratureFailure(
                f"atom masses overflow or underflow at the tilt kappa={kappa}"
            ) from None

    def describe(self) -> dict:
        return {"type": "finite_atomic", "atoms": [[p, m] for p, m in self.atom_list]}


def zero_measure() -> FiniteAtomic:
    """The zero jump measure (continuous processes)."""
    return FiniteAtomic(())


# ---------------------------------------------------------------------------
# compound-Poisson jump size densities
# ---------------------------------------------------------------------------


class GaussianJumps(Record):
    """Normal(mean, std^2) jump sizes."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not self.std > 0:
            raise ValidationError("jump std must be > 0")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def mgf(self, kappa: float) -> float:
        return math.exp(kappa * self.mean + 0.5 * kappa * kappa * self.std * self.std)


class DoubleExponentialJumps(Record):
    """Two-sided exponential jump sizes.

    With probability ``p`` the jump is ``Exp(eta_plus)`` to the right, with
    probability ``1 - p`` it is ``-Exp(eta_minus)``.
    """

    p: float
    eta_plus: float
    eta_minus: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError("mixing probability must lie in [0, 1]")
        if not (self.eta_plus > 0 and self.eta_minus > 0):
            raise ValidationError("exponential rates must be > 0")

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = self.p * self.eta_plus * np.exp(-self.eta_plus * np.clip(x, 0.0, None))
        neg = (1.0 - self.p) * self.eta_minus * np.exp(self.eta_minus * np.clip(x, None, 0.0))
        return np.where(x > 0, pos, np.where(x < 0, neg, 0.0))

    def mgf(self, kappa: float) -> float:
        if not (-self.eta_minus < kappa < self.eta_plus):
            raise KappaOutsideI(f"double-exponential mgf needs kappa in "
                                f"(-{self.eta_minus}, {self.eta_plus})")
        return (self.p * self.eta_plus / (self.eta_plus - kappa)
                + (1.0 - self.p) * self.eta_minus / (self.eta_minus + kappa))


class JumpDiffusion(LevyMeasure, Record):
    """Finite-activity measure ``intensity * (jump size pdf)``."""

    intensity: float
    jumps: object  # GaussianJumps | DoubleExponentialJumps

    def __post_init__(self) -> None:
        if not self.intensity > 0:
            raise ValidationError("jump intensity must be > 0")
        if not isinstance(self.jumps, (GaussianJumps, DoubleExponentialJumps)):
            raise ValidationError("unsupported jump size distribution")

    def density(self, x: np.ndarray) -> np.ndarray:
        return self.intensity * self.jumps.pdf(x)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        j = self.jumps
        if isinstance(j, GaussianJumps):
            z = (x - j.mean) / j.std
            return (math.log(self.intensity) - 0.5 * z * z
                    - math.log(j.std * math.sqrt(2.0 * math.pi)))
        with np.errstate(divide="ignore"):
            log_pos = np.log(self.intensity * j.p * j.eta_plus) - j.eta_plus * x
            log_neg = np.log(self.intensity * (1.0 - j.p) * j.eta_minus) + j.eta_minus * x
        return np.where(x > 0, log_pos, np.where(x < 0, log_neg, -np.inf))

    def side(self, s: int) -> TailDecay:
        j = self.jumps
        if isinstance(j, GaussianJumps):
            return TailDecay.superexp()
        if j.p == (0.0 if s > 0 else 1.0):
            return TailDecay.bounded(0.0)
        return TailDecay.exponential(j.eta_plus if s > 0 else j.eta_minus)

    def is_symmetric(self) -> bool:
        j = self.jumps
        if isinstance(j, GaussianJumps):
            return j.mean == 0.0
        return j.p == 0.5 and j.eta_plus == j.eta_minus

    def total_mass(self) -> float:
        return self.intensity

    def tilted(self, kappa: float) -> "JumpDiffusion":
        """Closed-form tilt: both families are closed under e^{κx} weights."""
        if kappa == 0.0:
            return self
        j = self.jumps
        if isinstance(j, GaussianJumps):
            lam = self.intensity * j.mgf(kappa)
            return JumpDiffusion(lam, GaussianJumps(j.mean + kappa * j.std ** 2, j.std))
        w_pos = self.intensity * j.p * j.eta_plus
        w_neg = self.intensity * (1.0 - j.p) * j.eta_minus
        if w_pos > 0 and not kappa < j.eta_plus:
            raise KappaOutsideI(f"tilt {kappa} >= right rate {j.eta_plus}")
        if w_neg > 0 and not kappa > -j.eta_minus:
            raise KappaOutsideI(f"tilt {kappa} <= left rate -{j.eta_minus}")
        # each one-sided exponential component stays exponential with a
        # shifted rate; only the component weights change.  A side with no
        # mass keeps its (irrelevant) rate so it stays positive.
        m_pos = w_pos / (j.eta_plus - kappa) if w_pos > 0 else 0.0
        m_neg = w_neg / (j.eta_minus + kappa) if w_neg > 0 else 0.0
        lam = m_pos + m_neg
        p_new = m_pos / lam
        eta_p = j.eta_plus - kappa if w_pos > 0 else j.eta_plus
        eta_m = j.eta_minus + kappa if w_neg > 0 else j.eta_minus
        return JumpDiffusion(lam, DoubleExponentialJumps(p_new, eta_p, eta_m))

    def describe(self) -> dict:
        j = self.jumps
        if isinstance(j, GaussianJumps):
            jd = {"family": "gaussian", "mean": j.mean, "std": j.std}
        else:
            jd = {"family": "double_exponential", "p": j.p,
                  "eta_plus": j.eta_plus, "eta_minus": j.eta_minus}
        return {"type": "jump_diffusion", "intensity": self.intensity, "jumps": jd}


# ---------------------------------------------------------------------------
# infinite-activity parametric families
# ---------------------------------------------------------------------------


class CGMY(LevyMeasure, Record):
    """Density ``C e^{-M x} x^{-1-Y}`` on x>0, mirrored with rate G on x<0.

    ``Y = 0`` is variance-gamma, whose ``G`` and ``M`` must be > 0.  For
    ``Y > 0`` they may be zero (pure polynomial tail); that is exactly what
    an extreme admissible tilt produces.
    """

    C: float
    G: float
    M: float
    Y: float

    def __post_init__(self) -> None:
        if self.Y == 0.0 and not (self.C > 0 and self.G > 0 and self.M > 0):
            raise ValidationError("variance-gamma parameters must be > 0")
        if not self.C > 0:
            raise ValidationError("C must be > 0")
        if self.G < 0 or self.M < 0:
            raise ValidationError("G and M must be >= 0")
        if not 0.0 <= self.Y < 2.0:
            raise ValidationError("Y must lie in [0, 2)")

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        rate = np.where(x > 0, self.M, self.G)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.C * np.exp(-rate * ax) * ax ** (-1.0 - self.Y)
        return np.where(ax > 0, out, np.inf)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        rate = np.where(x > 0, self.M, self.G)
        with np.errstate(divide="ignore"):
            return math.log(self.C) - rate * ax - (1.0 + self.Y) * np.log(ax)

    def side(self, s: int) -> TailDecay:
        rate = self.M if s > 0 else self.G
        if rate > 0:
            return TailDecay.exponential(rate, -1.0 - self.Y)
        return TailDecay.polynomial(-1.0 - self.Y)

    def is_symmetric(self) -> bool:
        return self.G == self.M

    def tilted(self, kappa: float) -> "CGMY":
        if kappa == 0.0:
            return self
        # for Y > 0 the ends are admissible: the tilted tail keeps an
        # integrable factor |x|^{-1-Y}; at Y = 0 that factor is C/|x|
        if self.Y > 0.0 and not -self.G <= kappa <= self.M:
            raise KappaOutsideI(f"tilt {kappa} outside [-{self.G}, {self.M}]")
        if self.Y == 0.0 and not -self.G < kappa < self.M:
            raise KappaOutsideI(f"tilt {kappa} outside (-{self.G}, {self.M})")
        return CGMY(self.C, self.G + kappa, self.M - kappa, self.Y)

    def describe(self) -> dict:
        if self.Y == 0.0:
            return {"type": "variance_gamma", "C": self.C, "G": self.G, "M": self.M}
        return {"type": "cgmy", "C": self.C, "G": self.G, "M": self.M, "Y": self.Y}


def VarianceGamma(C: float, G: float, M: float) -> CGMY:
    """Variance-gamma, density ``C e^{-M x}/x`` on x>0 mirrored with rate G."""
    return CGMY(C, G, M, 0.0)


class SymmetricAlphaStable(LevyMeasure, Record):
    """Density ``scale * |x|^{-alpha-1}`` on both sides."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 2.0:
            raise ValidationError("alpha must lie in (0, 2)")
        if not self.scale > 0:
            raise ValidationError("scale must be > 0")

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            out = self.scale * ax ** (-1.0 - self.alpha)
        return np.where(ax > 0, out, np.inf)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        ax = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            return math.log(self.scale) - (1.0 + self.alpha) * np.log(ax)

    def side(self, s: int) -> TailDecay:
        return TailDecay.polynomial(-1.0 - self.alpha)

    def is_symmetric(self) -> bool:
        return True

    def tilted(self, kappa: float) -> "LevyMeasure":
        if kappa == 0.0:
            return self
        raise KappaOutsideI("a stable measure has exponential moments only at 0")

    def describe(self) -> dict:
        return {"type": "symmetric_alpha_stable", "alpha": self.alpha, "scale": self.scale}


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


class Tempered(LevyMeasure, Record):
    """``e^{w(x)} ν(dx)`` for a log weight ``w = log_weight <= 0`` that
    beats every exponential tilt, such as ``-x²/n`` beyond the unit ball,
    so both unbounded tails decay super-exponentially.

    ``even`` declares ``w(-x) = w(x)``, which lets a symmetric base stay
    symmetric.
    """

    base: LevyMeasure
    log_weight: Callable[[np.ndarray], np.ndarray]
    even: bool = False

    def __post_init__(self) -> None:
        # built once: every kernel call asks for the atoms; a weight that
        # underflows leaves an atom of mass 0, which the kernel sums as 0
        base_atoms = self.base.atoms()
        atoms = None if base_atoms is None else tuple(
            (p, m * float(np.exp(self.log_weight(np.asarray(p)))))
            for p, m in base_atoms)
        object.__setattr__(self, "_atoms", atoms)

    def atoms(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        return self._atoms

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.density(x) * np.exp(self.log_weight(x))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.log_density(x) + self.log_weight(x)

    def side(self, s: int) -> TailDecay:
        return self.base.side(s).tempered_superexp()

    def is_symmetric(self) -> bool:
        return self.even and self.base.is_symmetric()

    def describe(self) -> dict:
        return {"type": "tempered", "base": self.base.describe(),
                "weight": getattr(self.log_weight, "__name__", "custom")}


class ExpTilted(LevyMeasure, Record):
    """``e^{κx} ν(dx)`` for measures without a closed tilt form.

    The constructor refuses tilts that give the product infinite mass.
    """

    base: LevyMeasure
    kappa: float

    def __post_init__(self) -> None:
        if isinstance(self.base, ExpTilted):
            merged = self.base.kappa + self.kappa
            object.__setattr__(self, "kappa", merged)
            object.__setattr__(self, "base", self.base.base)
        if not all(self.base.side(s).moment_finite(0, s * self.kappa)
                   for s in (1, -1)):
            raise KappaOutsideI(f"tilt {self.kappa} gives an infinite measure")

    def atoms(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        base_atoms = self.base.atoms()
        if base_atoms is None:
            return None
        return tuple((p, m * math.exp(self.kappa * p)) for p, m in base_atoms)

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.density(x) * np.exp(self.kappa * x)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.log_density(x) + self.kappa * x

    def side(self, s: int) -> TailDecay:
        return self.base.side(s).tilted(s * self.kappa)

    def is_symmetric(self) -> bool:
        return self.kappa == 0.0 and self.base.is_symmetric()

    def describe(self) -> dict:
        return {"type": "exp_tilted", "base": self.base.describe(), "kappa": self.kappa}


class GenericDensity(LevyMeasure, Record):
    """A user-supplied density with mandatory tail declarations.

    Without tail metadata no finite computation can decide whether an
    exponential moment converges, so the declarations ``right`` and
    ``left``, the two sides, are part of the constructor contract; a
    one-sided density declares its other side ``TailDecay.bounded(0.0)``.
    ``density_fn`` must be elementwise on arrays of any shape: the
    quadrature kernel calls it once on a whole ``(panels, 21)`` array of
    nodes.
    """

    density_fn: Callable[[np.ndarray], np.ndarray]
    right: TailDecay
    left: TailDecay
    symmetric: bool = False

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.density_fn(np.asarray(x, dtype=float)), dtype=float)

    def side(self, s: int) -> TailDecay:
        return self.right if s > 0 else self.left

    def is_symmetric(self) -> bool:
        return self.symmetric

    def describe(self) -> dict:
        return {"type": "generic_density",
                "density": getattr(self.density_fn, "__name__", "custom")}


# ---------------------------------------------------------------------------
# jump-size change of variables between linear and geometric markets
# ---------------------------------------------------------------------------


class ExpJumpImage(LevyMeasure, Record):
    """Image of a measure under ``x -> e^x - 1`` (log-jumps to price jumps).

    Supported on ``(-1, inf)``; the left side is therefore bounded, by the
    image of the base's left cutoff.  The measure has no density of its
    own: integrals against it are taken against ``base`` by pullback, and
    an unbounded right side is exact (the ``exp_image`` kind of
    :class:`TailDecay`).
    """

    base: LevyMeasure

    def atoms(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        base_atoms = self.base.atoms()
        if base_atoms is None:
            return None
        return tuple((math.expm1(p), m) for p, m in base_atoms)

    def side(self, s: int) -> TailDecay:
        t = self.base.side(s)
        if s > 0 and t.kind != _BOUNDED:
            return TailDecay(_IMAGE, base=t)
        # the distance of the image of the cutoff, 1 for an unbounded left
        return TailDecay.bounded(s * math.expm1(s * t.cutoff))

    def describe(self) -> dict:
        return {"type": "exp_jump_image", "base": self.base.describe()}


class LogJumpImage(LevyMeasure, Record):
    """Image of a price-jump measure under ``y -> log(1+y)``, integrated
    against ``base`` by pullback like :class:`ExpJumpImage`.

    The constructor only accepts measures that verifiably carry no mass on
    ``(-inf, 0)`` beyond a bounded cutoff above -1; general densities with
    mass arbitrarily close to -1 would need a decay descriptor at -1 that
    this package does not model.
    """

    base: LevyMeasure

    def __post_init__(self) -> None:
        if not self.base.side(-1).cutoff < 1.0:
            raise UnsupportedMeasure(
                "log-jump image needs the price-jump measure to stay a "
                "bounded distance above -1; use atoms or the inverse of "
                "an exp-jump image instead")

    def atoms(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        base_atoms = self.base.atoms()
        if base_atoms is None:
            return None
        return tuple((math.log1p(p), m) for p, m in base_atoms)

    def side(self, s: int) -> TailDecay:
        # the constructor keeps the left side bounded
        t = self.base.side(s)
        if t.kind == _BOUNDED:
            return TailDecay.bounded(s * math.log1p(s * t.cutoff))
        if t.kind == _POLY:
            return TailDecay.exponential(-(t.power + 1.0), 0.0)
        return TailDecay.superexp()

    def describe(self) -> dict:
        return {"type": "log_jump_image", "base": self.base.describe()}
