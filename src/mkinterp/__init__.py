"""Scattered-data interpolation with strictly positive definite multi-kernels.

Interpolants of even order m are built from truncated feature expansions,
their coefficients solved from the multi-linear system ``A_m c^{m-1} = y``
by convex minimization over the rank-one-sum form of ``A_m``.

Each exported name is imported from its submodule on first use (PEP 562).
"""

from importlib import import_module

# Exported name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "DimensionMismatch": "exceptions", "DuplicateNodes": "exceptions",
    "InvalidExponent": "exceptions", "NotConverged": "exceptions",
    "OddOrderUnsupported": "exceptions", "PointOutsideDomain": "exceptions",
    "SingularDesignWarning": "exceptions", "UntabulatedPoint": "exceptions",
    "ZeroFunction": "exceptions", "Domain": "features", "FeatureModel": "features",
    "eval_features": "features", "graded_multi_indices": "features", "Interpolant": "interpolant",
    "NodeSet": "interpolant", "banach_norm_direct": "interpolant",
    "banach_norm_via_tensor": "interpolant", "evaluate": "interpolant",
    "evaluate_many": "interpolant", "feature_coefficients": "interpolant", "fit": "interpolant",
    "from_json": "interpolant", "gateaux_coefficients": "interpolant", "to_json": "interpolant",
    "PowerReport": "power", "StudyResult": "power", "StudyRow": "power",
    "convergence_study": "power", "domain_grid": "features", "error_bound": "power",
    "fill_distance": "power", "power_function": "power", "power_report": "power",
    "SolveReport": "solver", "SolverOptions": "solver", "residual_norm": "solver",
    "solve_multilinear": "solver", "solve_regularized": "solver", "FeatureGram": "tensors",
    "contract_m": "tensors", "contract_m_minus_1": "tensors",
}
_SUBMODULES = {"cli", *_EXPORTS.values()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
