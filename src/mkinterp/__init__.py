"""Scattered-data interpolation with strictly positive definite multi-kernels.

Interpolants of even order m are built from truncated feature expansions,
their coefficients solved from the multi-linear system ``A_m c^{m-1} = y``
by convex minimization over the rank-one-sum form of ``A_m``.
"""

from .exceptions import (
    DimensionMismatch,
    DuplicateNodes,
    InvalidExponent,
    NotConverged,
    OddOrderUnsupported,
    PointOutsideDomain,
    SingularDesignWarning,
    UntabulatedPoint,
    ZeroFunction,
)
from .features import (
    Domain,
    FeatureModel,
    eval_features,
    graded_multi_indices,
)
from .interpolant import (
    Interpolant,
    NodeSet,
    banach_norm_direct,
    banach_norm_via_tensor,
    evaluate,
    evaluate_many,
    feature_coefficients,
    fit,
    from_json,
    gateaux_coefficients,
    to_json,
)
from .power import (
    PowerReport,
    StudyResult,
    StudyRow,
    convergence_study,
    domain_grid,
    error_bound,
    fill_distance,
    power_function,
    power_report,
)
from .solver import (
    SolveReport,
    SolverOptions,
    residual_norm,
    solve_multilinear,
    solve_regularized,
)
from .tensors import (
    FeatureGram,
    contract_m,
    contract_m_minus_1,
)

__all__ = [
    "DimensionMismatch", "DuplicateNodes", "InvalidExponent",
    "NotConverged", "OddOrderUnsupported", "PointOutsideDomain",
    "SingularDesignWarning", "UntabulatedPoint", "ZeroFunction",
    "Domain", "FeatureModel", "eval_features",
    "graded_multi_indices",
    "Interpolant", "NodeSet", "banach_norm_direct", "banach_norm_via_tensor",
    "evaluate", "evaluate_many",
    "feature_coefficients", "fit", "from_json", "gateaux_coefficients", "to_json",
    "PowerReport", "StudyResult", "StudyRow", "convergence_study", "domain_grid",
    "error_bound", "fill_distance", "power_function", "power_report",
    "SolveReport", "SolverOptions", "residual_norm", "solve_multilinear",
    "solve_regularized",
    "FeatureGram", "contract_m", "contract_m_minus_1",
]
__version__ = "0.1.0"
