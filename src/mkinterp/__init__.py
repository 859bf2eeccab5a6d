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
    SingularGram,
    UntabulatedPoint,
    ZeroFunction,
)
from .features import (
    Domain,
    FeatureModel,
    SummabilityReport,
    check_summability,
    eval_features,
    eval_kernel2,
    eval_multikernel,
    graded_multi_indices,
)
from .interpolant import (
    Interpolant,
    NodeSet,
    banach_norm_direct,
    banach_norm_via_tensor,
    dual_pairing,
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
    power_function_p2_closed,
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
    MonotoneReport,
    SemiPDReport,
    check_semi_pd,
    check_strict_monotone,
    contract_m,
    contract_m_minus_1,
)

__all__ = [
    "DimensionMismatch", "DuplicateNodes", "InvalidExponent",
    "NotConverged", "OddOrderUnsupported", "PointOutsideDomain",
    "SingularDesignWarning", "SingularGram", "UntabulatedPoint", "ZeroFunction",
    "Domain", "FeatureModel", "SummabilityReport", "check_summability", "eval_features",
    "eval_kernel2", "eval_multikernel", "graded_multi_indices",
    "Interpolant", "NodeSet", "banach_norm_direct", "banach_norm_via_tensor",
    "dual_pairing", "evaluate", "evaluate_many",
    "feature_coefficients", "fit", "from_json", "gateaux_coefficients", "to_json",
    "PowerReport", "StudyResult", "StudyRow", "convergence_study", "domain_grid",
    "error_bound", "fill_distance", "power_function", "power_function_p2_closed",
    "power_report",
    "SolveReport", "SolverOptions", "residual_norm", "solve_multilinear",
    "solve_regularized",
    "FeatureGram", "MonotoneReport", "SemiPDReport", "check_semi_pd",
    "check_strict_monotone", "contract_m", "contract_m_minus_1",
]
__version__ = "0.1.0"
