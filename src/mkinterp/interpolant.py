"""Interpolant construction, evaluation, Banach norms, and duality maps.

A fitted interpolant of even order m expands in the feature basis as
``s_m = sum_k alpha_k phi_k`` with ``alpha_k = (v_k . c)^{m-1}``, which is
mathematically identical to the tensor-basis form ``B_m(x) c^{m-1}`` but
costs O(K) per evaluation.  :func:`evaluate_many` contracts the
per-coordinate factor tables with ``sqrt(w) alpha`` and never forms the
(N, K) feature array.  Its norm in the sequence space with exponent
``p = m/(m-1)`` equals ``(A_m c^m)^{1-1/m}``; both routes are exposed so
the identity can be checked numerically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DuplicateNodes,
    InvalidExponent,
    NotConverged,
    ZeroFunction,
)
from .features import Domain, FeatureModel, _feature_sum, require_even_order
from .solver import SolverOptions, SolveReport, solve_multilinear
from .tensors import FeatureGram, contract_m

MIN_NODE_SEPARATION = 1e-12


@dataclass(frozen=True)
class NodeSet:
    """Pairwise-distinct data points with their values."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatch("points must be an (n, d) array")
        if vals.ndim != 1 or vals.size != pts.shape[0]:
            raise DimensionMismatch("values must be one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        # the closest pair i < j, scanned one node at a time in O(n d) memory
        closest_sq, pair = np.inf, None
        for i in range(pts.shape[0] - 1):
            dist_sq = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
            j = int(np.argmin(dist_sq))
            if dist_sq[j] < closest_sq:
                closest_sq, pair = float(dist_sq[j]), (i, i + 1 + j)
        if np.sqrt(closest_sq) <= MIN_NODE_SEPARATION:
            raise DuplicateNodes(*pair)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Interpolant:
    """Immutable fitted interpolant; all evaluation methods are pure."""

    model: FeatureModel
    nodes: NodeSet
    order: int
    coefficients: np.ndarray
    gram: FeatureGram
    report: SolveReport | None = None


def fit(model: FeatureModel, nodes: NodeSet, m: int,
        opts: SolverOptions | None = None) -> Interpolant:
    """Solve the multi-linear system and wrap the result.

    Raises :class:`NotConverged` (carrying the best-effort report) if the
    solver cannot meet its residual tolerance.
    """
    return _fit_gram(model, nodes, m, FeatureGram.from_model(model, nodes.points), opts)


def _fit_gram(model: FeatureModel, nodes: NodeSet, m: int, gram: FeatureGram,
              opts: SolverOptions | None = None) -> Interpolant:
    """:func:`fit` on the node Gram ``gram`` of `model` at ``nodes.points``."""
    report = solve_multilinear(gram, m, nodes.values, opts)
    if not report.converged:
        raise NotConverged(report)
    return Interpolant(model, nodes, m, report.coefficients, gram, report)


def feature_coefficients(s: Interpolant) -> np.ndarray:
    """Expansion coefficients ``alpha_k = (v_k . c)^{m-1}`` of the interpolant."""
    t = s.gram.V.T @ s.coefficients
    return t ** (s.order - 1)


def evaluate(s: Interpolant, x) -> float:
    """Evaluate ``s_m(x) = sum_k alpha_k phi_k(x)`` in O(K)."""
    return float(evaluate_many(s, [x])[0])


def evaluate_many(s: Interpolant, points) -> np.ndarray:
    """Evaluate the interpolant at the rows of an (N, d) array.

    Contracts the per-coordinate factor tables with the coefficients (see
    :func:`~mkinterp.features._feature_sum`), block by block, so no (N, K)
    feature array is built and memory does not grow with N beyond the result.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    return _feature_sum(s.model, X, feature_coefficients(s))


def _check_exponent(p: float) -> float:
    p = float(p)
    if not 1.0 < p < np.inf:
        raise InvalidExponent(f"exponent p must lie in (1, inf), got {p}")
    return p


def banach_norm_direct(alpha, p: float) -> float:
    """The l_p norm of a coefficient sequence."""
    p = _check_exponent(p)
    alpha = np.asarray(alpha, dtype=float)
    return float(np.sum(np.abs(alpha) ** p) ** (1.0 / p))


def banach_norm_via_tensor(s: Interpolant) -> float:
    """``(A_m c^m)^{1-1/m}``; equals the l_{m/(m-1)} norm of the coefficients."""
    value = contract_m(s.gram, s.order, s.coefficients)
    return float(max(value, 0.0) ** ((s.order - 1) / s.order))


def gateaux_coefficients(alpha, p: float) -> np.ndarray:
    """Coefficients of the norm's Gateaux derivative at a nonzero function.

    ``beta_k = alpha_k |alpha_k|^{p-2} / ||alpha||_p^{p-1}``; the result has
    unit l_q norm with q = p/(p-1).
    """
    p = _check_exponent(p)
    alpha = np.asarray(alpha, dtype=float)
    norm = banach_norm_direct(alpha, p)
    if norm == 0.0:
        raise ZeroFunction("Gateaux derivative undefined at the zero function")
    # sign(a)|a|^{p-1} avoids 0 * inf at zero coefficients when p < 2
    return np.sign(alpha) * np.abs(alpha) ** (p - 1) / norm ** (p - 1)


def dual_pairing(alpha, beta) -> float:
    """Dual bilinear product of coefficient sequences (plain dot product)."""
    return float(np.asarray(alpha, float) @ np.asarray(beta, float))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json(s: Interpolant) -> str:
    """Serialize to JSON; floats are written in shortest round-trip form."""
    doc = {
        "family": s.model.family,
        "domain": {
            "lower": s.model.domain.lower.tolist(),
            "upper": s.model.domain.upper.tolist(),
        },
        "truncation": s.model.truncation,
        "weights": s.model.weights.tolist(),
        "order": s.order,
        "nodes": s.nodes.points.tolist(),
        "values": s.nodes.values.tolist(),
        "coefficients": np.asarray(s.coefficients).tolist(),
    }
    if s.model.family == "custom":
        doc["table_points"] = s.model.table_points.tolist()
        doc["table_features"] = s.model.table_features.tolist()
    return json.dumps(doc, indent=2)


def _integer(doc, key) -> int:
    """``doc[key]`` as an int: a JSON integer or a float equal to its int."""
    value = doc[key]
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _model_from_doc(doc) -> FeatureModel:
    domain = Domain(doc["domain"]["lower"], doc["domain"]["upper"])
    family = doc["family"]
    K = _integer(doc, "truncation")
    weights = np.asarray(doc["weights"], dtype=float)
    if weights.shape != (K,):  # before a huge K is enumerated
        raise ValueError(f"weights must be {K} numbers, one per feature")
    if family == "power":
        return FeatureModel.power_series(domain, K, weights=weights)
    if family == "trig":
        return FeatureModel.trigonometric(domain, K, weights=weights)
    if family == "custom":
        model = FeatureModel.custom_table(
            doc["table_points"], doc["table_features"],
            weights=weights, domain=domain,
        )
        if model.truncation != K:
            raise ValueError(f"truncation {K} does not match the {model.truncation} "
                             "tabulated features")
        return model
    raise ValueError(f"unknown feature family {family!r}")


def from_json(text: str) -> Interpolant:
    """Rebuild an interpolant from its JSON form (inverse of :func:`to_json`).

    Rejects a non-integral order or truncation, a custom table whose width
    is not the truncation, an odd order or one below 2,
    non-finite nodes or values, coefficients that are not one finite number
    per node, and an order so large that the feature coefficients overflow.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("interpolant document must be a JSON object")
    for key in ("family", "domain", "truncation", "order", "nodes", "values",
                "coefficients"):
        if key not in doc:
            raise KeyError(f"interpolant document missing {key!r}")
    model = _model_from_doc(doc)
    nodes = NodeSet(np.asarray(doc["nodes"], float), np.asarray(doc["values"], float))
    order = _integer(doc, "order")
    require_even_order(order)
    coefficients = np.asarray(doc["coefficients"], dtype=float)
    if not (np.all(np.isfinite(nodes.points)) and np.all(np.isfinite(nodes.values))):
        raise ValueError("nodes and values must be finite")
    if coefficients.shape != (nodes.n,) or not np.all(np.isfinite(coefficients)):
        raise ValueError(f"coefficients must be {nodes.n} finite numbers, one per node")
    s = Interpolant(model, nodes, order, coefficients,
                    FeatureGram.from_model(model, nodes.points))
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite(feature_coefficients(s)))
    if not finite:
        raise ValueError(f"feature coefficients overflow at order {doc['order']!r}")
    return s
