"""Interpolant construction, evaluation, Banach norms, and duality maps.

A fitted interpolant of even order m expands in the feature basis as
``s_m = sum_k alpha_k phi_k`` with ``alpha_k = (v_k . c)^{m-1}``, which is
mathematically identical to the tensor-basis form ``B_m(x) c^{m-1}`` but
costs O(K) per evaluation.  Its norm in the sequence space with exponent
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
from .features import Domain, FeatureModel, eval_features, point_blocks, require_even_order
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
        if vals.ndim != 1 or vals.size != pts.shape[0]:
            raise DimensionMismatch("values must be one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diffs ** 2, axis=2))
        iu = np.triu_indices(pts.shape[0], k=1)
        if iu[0].size and dist[iu].min() <= MIN_NODE_SEPARATION:
            flat = int(np.argmin(dist[iu]))
            raise DuplicateNodes(int(iu[0][flat]), int(iu[1][flat]))

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
    """Evaluate the interpolant at the rows of an (N, d) array, O(K) each.

    Points are taken in blocks (see :func:`point_blocks`), so memory does
    not grow with N beyond the result.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    alpha = feature_coefficients(s)
    values = np.empty(X.shape[0])
    for rows in point_blocks(s.model, X.shape[0]):
        values[rows] = eval_features(s.model, X[rows]) @ alpha
    return values


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
    if family == "power":
        return FeatureModel.power_series(domain, K, weights=weights)
    if family == "trig":
        return FeatureModel.trigonometric(domain, K, weights=weights)
    if family == "custom":
        return FeatureModel.custom_table(
            doc["table_points"], doc["table_features"],
            weights=weights, domain=domain,
        )
    raise ValueError(f"unknown feature family {family!r}")


def from_json(text: str) -> Interpolant:
    """Rebuild an interpolant from its JSON form (inverse of :func:`to_json`).

    Rejects a non-integral order or truncation, an odd order or one below 2,
    non-finite nodes or values, and coefficients that are not one finite
    number per node.
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
    return Interpolant(model, nodes, order, coefficients,
                       FeatureGram.from_model(model, nodes.points))
