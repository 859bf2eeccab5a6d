"""Node sets, interpolant construction, evaluation, Banach norms, and duality maps.

A fitted interpolant of even order m expands in the feature basis as
``s_m = sum_k alpha_k phi_k`` with ``alpha_k = (v_k . c)^{m-1}``, the
tensor-basis form ``B_m(x) c^{m-1}`` at O(K) per evaluation from the K
numbers ``t_k = v_k . c`` that an :class:`Interpolant` holds; ``t`` and the
evaluation are the two directions of the sum factorization, and neither
forms a feature array.  Its norm with exponent ``p = m/(m-1)`` equals
``(A_m c^m)^{1-1/m}``; both routes are exposed so the identity can be
checked.  A :class:`NodeSet` finds coincident nodes by sort-and-sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import (
    DimensionMismatch,
    DuplicateNodes,
    InvalidExponent,
    NotConverged,
    ZeroFunction,
)
from .features import (Domain, FeatureModel, _feature_adjoint, _feature_sum, _integer,
                       require_even_order)
from .tensors import FeatureGram

if TYPE_CHECKING:  # the solver is imported by the first fit, not by evaluation
    from .solver import SolveReport, SolverOptions

MIN_NODE_SEPARATION = 1e-12


def _sweep_direction(dim: int) -> np.ndarray:
    """``u_j`` in proportion to ``1 / (j + sqrt 2)``, no two in a rational
    ratio; ``||u||_1 = 1/4``, so projections of finite points and their
    differences cannot overflow."""
    u = 1.0 / (np.arange(1, dim + 1) + np.sqrt(2.0))
    return u / (4 * u.sum())


def _coincident_pair(pts: np.ndarray) -> tuple:
    """Squared distance and ``(i, j)``, i < j, of the first closest pair of finite rows
    if within ``MIN_NODE_SEPARATION``, else ``(inf, None)``: sort and sweep on
    :func:`_sweep_direction` (see README)."""
    n, dim = pts.shape
    u = _sweep_direction(dim)
    slack = 4 * (dim + 2) * np.finfo(float).eps  # relative rounding of projections, distances
    projections = pts @ u
    order = np.argsort(projections, kind="stable")
    ordered = projections[order]
    window = (1 + slack) * (MIN_NODE_SEPARATION * np.linalg.norm(u)
                            + 2 * slack * (abs(pts) @ u)[order])
    reach = np.searchsorted(ordered, ordered + window, side="right") - np.arange(1, n + 1)
    active, best = np.flatnonzero(reach), (np.inf, n, n)
    for k in range(1, n):
        active = active[reach[active] >= k]
        if not active.size:
            break
        a, b = order[active], order[active + k]
        i, j = np.minimum(a, b), np.maximum(a, b)
        dist_sq = np.zeros(active.size)
        with np.errstate(over="ignore"):
            for column in (pts[j] - pts[i]).T:
                dist_sq += column * column
        first = np.lexsort((j, i, dist_sq))[0]
        best = min(best, (float(dist_sq[first]), int(i[first]), int(j[first])))
    if not np.sqrt(best[0]) <= MIN_NODE_SEPARATION:
        return np.inf, None
    return best[0], best[1:]


@dataclass(frozen=True)
class NodeSet:
    """One or more pairwise-distinct data points with their values."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatch("points must be an (n, d) array")
        if not pts.shape[0]:
            raise DimensionMismatch("node set has no points")
        if vals.ndim != 1 or vals.size != pts.shape[0]:
            raise DimensionMismatch("values must be one per point")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise ValueError("nodes and values must be finite")
        pair = _coincident_pair(pts)[1]
        if pair:
            raise DuplicateNodes(*pair)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class Interpolant:
    """Immutable fitted interpolant holding ``t = V^T c`` (K floats), not the
    n x K node Gram V; all evaluation methods are pure."""

    model: FeatureModel
    nodes: NodeSet
    order: int
    coefficients: np.ndarray
    t: np.ndarray
    report: SolveReport | None = None

    @property
    def gram(self) -> FeatureGram:
        """The node Gram V, rebuilt from the model on each access."""
        return FeatureGram.from_model(self.model, self.nodes.points)

    @cached_property
    def _alpha(self) -> np.ndarray:
        """``t ** (m-1)``, formed on first use and read-only (see :func:`feature_coefficients`)."""
        alpha = self.t ** (self.order - 1)
        alpha.flags.writeable = False
        return alpha


def fit(model: FeatureModel, nodes: NodeSet, m: int,
        opts: SolverOptions | None = None) -> Interpolant:
    """Solve the multi-linear system and wrap the result; :class:`NotConverged`, carrying
    the best-effort report, if the solver cannot meet its residual tolerance."""
    s = _solved(model, nodes, m, opts)
    if not s.report.converged:
        raise NotConverged(s.report)
    return s


def _solved(model: FeatureModel, nodes: NodeSet, m: int, opts: SolverOptions | None = None,
            V: np.ndarray | None = None) -> Interpolant:
    """The order-m interpolant of `nodes`, converged or not; V: the node features, if at hand."""
    from .solver import solve_multilinear
    gram = FeatureGram.from_model(model, nodes.points) if V is None else FeatureGram(V)
    report = solve_multilinear(gram, m, nodes.values, opts)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed fit has no finite t
        t = _feature_adjoint(model, nodes.points, report.coefficients)
    return Interpolant(model, nodes, require_even_order(m), report.coefficients, t, report)


def feature_coefficients(s: Interpolant) -> np.ndarray:
    """Expansion coefficients ``alpha_k = (v_k . c)^{m-1}`` of the interpolant, formed once
    per interpolant (O(K)) and shared, read-only, by every later call."""
    return s._alpha


def evaluate(s: Interpolant, x) -> float:
    """Evaluate ``s_m(x) = sum_k alpha_k phi_k(x)`` in O(K)."""
    return float(evaluate_many(s, [x])[0])


def evaluate_many(s: Interpolant, points) -> np.ndarray:
    """Evaluate the interpolant at the rows of an (N, d) array by sum factorization
    (:func:`~mkinterp.features._feature_sum`), with no (N, K) array."""
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
    value = float(np.sum(s.t ** s.order))
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


def _member(doc, *path):
    """``doc[path[0]][path[1]]...``; a missing member is a KeyError naming its dotted path."""
    for depth, key in enumerate(path, 1):
        try:
            doc = doc[key]
        except KeyError:
            raise KeyError(f"interpolant document missing {'.'.join(path[:depth])!r}") from None
    return doc


def _model_from_doc(doc) -> FeatureModel:
    domain = Domain(_member(doc, "domain", "lower"), _member(doc, "domain", "upper"))
    family = doc["family"]
    K = _integer("truncation", doc["truncation"])
    weights = np.asarray(_member(doc, "weights"), dtype=float)
    if weights.shape != (K,):  # before a huge K is enumerated
        raise ValueError(f"weights must be {K} numbers, one per feature")
    if family == "power":
        return FeatureModel.power_series(domain, K, weights=weights)
    if family == "trig":
        return FeatureModel.trigonometric(domain, K, weights=weights)
    if family == "custom":
        return FeatureModel.custom_table(_member(doc, "table_points"),
                                         _member(doc, "table_features"),
                                         weights=weights, domain=domain)
    raise ValueError(f"unknown feature family {family!r}")


def from_json(text: str) -> Interpolant:
    """Rebuild an interpolant from its JSON form (inverse of :func:`to_json`).

    Rejects a non-integral order or truncation, a custom table whose width
    is not the truncation, an odd order or one below 2, no nodes,
    non-finite nodes or values, coefficients that are not one finite number
    per node, and an order so large that the feature coefficients overflow.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("interpolant document must be a JSON object")
    for key in ("family", "domain", "truncation", "order", "nodes", "values", "coefficients"):
        _member(doc, key)
    model = _model_from_doc(doc)
    nodes = NodeSet(np.asarray(doc["nodes"], float), np.asarray(doc["values"], float))
    order = require_even_order(doc["order"])
    coefficients = np.asarray(doc["coefficients"], dtype=float)
    if coefficients.shape != (nodes.n,) or not np.all(np.isfinite(coefficients)):
        raise ValueError(f"coefficients must be {nodes.n} finite numbers, one per node")
    with np.errstate(over="ignore", invalid="ignore"):
        t = _feature_adjoint(model, nodes.points, coefficients)
        s = Interpolant(model, nodes, order, coefficients, t)
        finite = np.all(np.isfinite(feature_coefficients(s)))
    if not finite:
        raise ValueError(f"feature coefficients overflow at order {doc['order']!r}")
    return s
