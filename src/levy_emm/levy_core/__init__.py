"""Triplets, jump measures and integration: the model layer."""

from .measures import (CGMY, DoubleExponentialJumps, ExpJumpImage, ExpTilted,
                       FiniteAtomic, GaussianJumps, GenericDensity,
                       JumpDiffusion, LevyMeasure, LogJumpImage,
                       SymmetricAlphaStable, TailDecay, Tempered,
                       VarianceGamma, zero_measure)
from .quadrature import exp_integrand, small_jump_variation, tail_mass
from .triplets import (LevyTriplet, Monotonicity, cumulant,
                       cumulant_derivative, geometric_to_linear, is_monotone,
                       linear_to_geometric, mgf, mgf_derivative,
                       validate_triplet)

__all__ = [
    "TailDecay", "LevyMeasure", "FiniteAtomic", "GaussianJumps",
    "DoubleExponentialJumps", "JumpDiffusion", "VarianceGamma", "CGMY",
    "SymmetricAlphaStable", "Tempered", "ExpTilted", "GenericDensity",
    "ExpJumpImage", "LogJumpImage", "zero_measure",
    "small_jump_variation", "tail_mass",
    "LevyTriplet", "validate_triplet",
    "cumulant", "cumulant_derivative", "mgf", "mgf_derivative",
    "Monotonicity", "is_monotone", "geometric_to_linear", "linear_to_geometric",
    "exp_integrand",
]
