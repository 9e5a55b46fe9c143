"""Esscher martingale measures and minimal-entropy analysis for
one-dimensional Levy markets.

The package answers, for a market driven by a Levy process, the questions:
on which set of tilt parameters do exponential moments exist, where is the
moment function minimized, does an Esscher martingale measure exist, what
is its relative entropy, and -- when no martingale measure exists at all --
how is the entropy infimum approached by tempered approximations.
"""

from .levy_core import *  # noqa: F401,F403
from .levy_core import __all__ as _core_all

__version__ = "0.1.0"

from .mgf_analysis import (  # noqa: E402
    EsscherCase,
    EsscherParameterStatus,
    ExpMomentInterval,
    MinimumCase,
    MinimumPoint,
    classify_esscher_parameter,
    exp_moment_interval,
    minimize_mgf,
)
from .esscher import (  # noqa: E402
    EsscherResult,
    EsscherStatus,
    esscher_entropy,
    esscher_transform,
    memm_report,
    solve_geometric_emm,
    solve_linear_emm,
)
from .approximation import (  # noqa: E402
    ApproxStep,
    ApproxTrace,
    PenaltyDiagnostics,
    PenaltyFamily,
    approx_sequence,
    check_penalty,
    default_schedule,
    perturbed_triplet,
)
from .mc_oracle import (  # noqa: E402
    JumpRecords,
    PathwiseZn,
    SamplePack,
    SimConfig,
    entropy_estimate,
    martingale_defect,
    pathwise_log_zn,
    sample_terminal,
)
from .modelspec import (  # noqa: E402
    ModelSpec,
    load_model,
    parse_model,
    serialize_model,
)

__all__ = list(_core_all) + [
    "__version__",
    # mgf_analysis
    "ExpMomentInterval", "exp_moment_interval",
    "MinimumCase", "MinimumPoint", "minimize_mgf",
    "EsscherCase", "EsscherParameterStatus", "classify_esscher_parameter",
    # esscher
    "EsscherStatus", "EsscherResult", "esscher_transform", "esscher_entropy",
    "solve_linear_emm", "solve_geometric_emm", "memm_report",
    # approximation
    "PenaltyFamily", "perturbed_triplet", "ApproxStep", "ApproxTrace",
    "approx_sequence", "default_schedule",
    "PenaltyDiagnostics", "check_penalty",
    # mc_oracle
    "SimConfig", "JumpRecords", "SamplePack", "sample_terminal",
    "martingale_defect", "entropy_estimate", "PathwiseZn", "pathwise_log_zn",
    # modelspec
    "ModelSpec", "parse_model", "load_model", "serialize_model",
]
