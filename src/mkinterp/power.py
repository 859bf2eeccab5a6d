"""Generalized power function, fill distance, and convergence studies.

The power function of order m at a point x is the minimal sequence-space
distance (exponent m) from the base-kernel section at x to the span of the
sections at the data nodes.  In the truncated feature basis it is the
convex minimization

    P_m(x)^m = min_theta sum_k ( phi_k(x) - sum_i theta_i phi_k(x_i) )^m,

solved by the same damped-Newton core as the interpolation system
(``solver._minimize_even_power``), started from the l2 minimizer.  That
start comes from one least-squares solve per block of points, and the norm
of its residual is P_2 itself, the classical power function.  The closed
form ``P_2(x)^2 = Phi2(x, x) - B_2(x)^T A_2^{-1} B_2(x)`` stays available
as an independent cross-check.  The pointwise interpolation error of any
target with known norm is bounded by ``2 ||f|| P_m(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SingularGram
from .features import Domain, FeatureModel, eval_features, point_blocks, require_even_order
from .interpolant import NodeSet, _fit_gram, banach_norm_direct, feature_coefficients
from .solver import SolverOptions, _minimize_even_power
from .tensors import FeatureGram


def _power_newton(V, b, theta, m, opts: SolverOptions) -> float:
    """``min_theta q`` with ``q = sum_k (b - V^T theta)_k^m``, to the power 1/m.

    ``V`` holds the node features (n x K), ``b`` the features at the point
    and theta the l2 start.  ``q = m F`` for the solver's core with
    ``u = -b``, ``W = V^T`` and no linear term (m is even, so the sign of
    the residual does not matter); it stops once
    ``||grad q|| <= 1e-13 (1 + q)``.
    """
    _, F, *_ = _minimize_even_power(
        V.T, -b, None, theta, m, opts.max_iterations,
        lambda gnorm, F: m * gnorm <= 1e-13 * (1.0 + m * F))
    return float(max(m * F, 0.0) ** (1.0 / m))


def _power_values(V, B, m, opts: SolverOptions):
    """``(P_2, P_m)`` at each row of the feature block B (N x K), nodes V (n x K).

    One least-squares solve with N right-hand sides gives every l2
    minimizer theta.  The row norms of the residual ``B - theta^T V`` are
    P_2, the distance from phi(x) to the span of the node sections; for
    m > 2 each theta starts the order-m descent.
    """
    thetas, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
    p_2 = np.linalg.norm(B - thetas.T @ V, axis=1)
    if m == 2:
        return p_2, p_2
    return p_2, np.array([_power_newton(V, b, theta, m, opts)
                          for b, theta in zip(B, thetas.T)])


def power_function(model: FeatureModel, nodes: NodeSet, m: int, x,
                   opts: SolverOptions | None = None) -> float:
    """Order-m power function at x via convex minimization in feature space.

    Returns ``q*^{1/m}`` where ``q*`` is the minimum of the even-power
    objective above; zero (up to solver tolerance) whenever x is a node or
    the features are exactly representable on the nodes.
    """
    require_even_order(m)
    V = eval_features(model, nodes.points)  # n x K
    B = eval_features(model, x)[None, :]
    return float(_power_values(V, B, m, opts or SolverOptions())[1][0])


def power_function_p2_closed(model: FeatureModel, nodes: NodeSet, x) -> float:
    """Classical power function from the Gram matrix closed form.

    ``P_2(x)^2 = Phi2(x, x) - B_2(x)^T A_2^{-1} B_2(x)`` with ``A_2 = V V^T``
    and ``B_2(x) = V phi(x)``, which cancels near the nodes: an independent
    cross-check of m = 2.  Raises :class:`SingularGram` for a singular A_2.
    """
    V = eval_features(model, nodes.points)
    b = eval_features(model, x)
    b2 = V @ b
    try:
        weights = np.linalg.solve(V @ V.T, b2)
    except np.linalg.LinAlgError as err:
        raise SingularGram("Gram matrix A_2 is singular") from err
    return float(np.sqrt(max(b @ b - b2 @ weights, 0.0)))


def domain_grid(domain: Domain, per_dim: int) -> np.ndarray:
    """Uniform tensor grid over the box, endpoints included, row-major."""
    if per_dim < 2:
        raise ValueError("per_dim must be at least 2")
    axes = [np.linspace(domain.lower[j], domain.upper[j], per_dim)
            for j in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_spacing(domain: Domain, per_dim: int) -> float:
    """Spacing of :func:`domain_grid`; the uncertainty of the reported sup."""
    widths = (domain.upper - domain.lower) / (per_dim - 1)
    return float(np.linalg.norm(widths))


def fill_distance(nodes: NodeSet, domain: Domain, grid_per_dim: int) -> float:
    """Grid approximation of ``sup_x min_i ||x - x_i||_2``.

    The sup is taken over a uniform tensor grid, so the result is accurate
    to the grid spacing (see :func:`grid_spacing`).
    """
    grid = domain_grid(domain, grid_per_dim)
    nearest_sq = np.full(grid.shape[0], np.inf)
    for node in nodes.points:
        np.minimum(nearest_sq, np.sum((grid - node) ** 2, axis=1), out=nearest_sq)
    return float(np.sqrt(nearest_sq.max()))


def error_bound(f_norm: float, p_m: float) -> float:
    """Pointwise bound ``2 ||f|| P_m(x)`` on the interpolation error."""
    if f_norm < 0 or p_m < 0:
        raise ValueError("f_norm and p_m must be nonnegative")
    return 2.0 * f_norm * p_m


@dataclass(frozen=True)
class PowerReport:
    """Pointwise power-function values and error bounds on a grid."""

    eval_points: np.ndarray
    p_m: np.ndarray
    p_2: np.ndarray
    bound: np.ndarray
    fill_distance: float
    order: int


def power_report(model: FeatureModel, nodes: NodeSet, m: int, eval_points,
                 f_norm: float = 1.0, opts: SolverOptions | None = None,
                 grid_per_dim: int = 101) -> PowerReport:
    """Evaluate P_m, the classical P_2, and the error bound at each point.

    The node features are built once; the points go through in blocks
    (see :func:`point_blocks`), one feature evaluation and one multi-RHS
    least-squares solve per block, which gives P_2 and starts P_m.
    """
    require_even_order(m)
    opts = opts or SolverOptions()
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    V = eval_features(model, nodes.points)
    p_m = np.empty(eval_points.shape[0])
    p_2 = np.empty(eval_points.shape[0])
    for rows in point_blocks(model, eval_points.shape[0]):
        B = eval_features(model, eval_points[rows])
        p_2[rows], p_m[rows] = _power_values(V, B, m, opts)
    bound = 2.0 * f_norm * p_m
    h = fill_distance(nodes, model.domain, grid_per_dim)
    return PowerReport(eval_points, p_m, p_2, bound, h, m)


@dataclass(frozen=True)
class StudyRow:
    n: int
    h: float
    max_error: float
    max_bound: float


@dataclass(frozen=True)
class StudyResult:
    rows: list
    slope: float | None  # log-log slope of max_error against h

    def bound_dominates(self, slack: float) -> bool:
        return all(row.max_error <= row.max_bound + slack for row in self.rows)


def _equispaced_nodes(domain: Domain, n: int) -> np.ndarray:
    # cell midpoints: quasi-uniform, and avoids coincident feature rows at
    # the two endpoints for periodic families
    if domain.dim != 1:
        raise ValueError("default node placement is 1-d; pass node_generator")
    lo, hi = domain.lower[0], domain.upper[0]
    return (lo + (np.arange(n) + 0.5) * (hi - lo) / n)[:, None]


def convergence_study(model: FeatureModel, f_alpha, m: int, node_counts,
                      eval_grid, opts: SolverOptions | None = None,
                      grid_per_dim: int = 201,
                      node_generator=None) -> StudyResult:
    """Fill-distance refinement study for a target in the truncated span.

    The target is ``f = sum_k f_alpha[k] phi_k``, whose norm with exponent
    m/(m-1) is exact from its coefficients.  Each row fits the order-m
    interpolant on `n` nodes (equispaced for 1-d domains unless a
    `node_generator(n)` is supplied) and records the fill distance, the
    worst error over `eval_grid`, and the worst pointwise bound
    ``2 ||f|| P_m``.
    """
    require_even_order(m)
    opts = opts or SolverOptions()
    f_alpha = np.asarray(f_alpha, dtype=float)
    eval_grid = np.atleast_2d(np.asarray(eval_grid, dtype=float))
    f_norm = banach_norm_direct(f_alpha, m / (m - 1))
    rows = []
    for n in node_counts:
        pts = node_generator(n) if node_generator else _equispaced_nodes(model.domain, n)
        V = eval_features(model, pts)
        nodes = NodeSet(pts, V @ f_alpha)
        alpha = feature_coefficients(_fit_gram(model, nodes, m, FeatureGram(V), opts))
        max_error = max_bound = 0.0
        for block in point_blocks(model, eval_grid.shape[0]):
            B = eval_features(model, eval_grid[block])
            errors = np.abs(B @ f_alpha - B @ alpha)
            bounds = 2.0 * f_norm * _power_values(V, B, m, opts)[1]
            max_error = max(max_error, float(errors.max()))
            max_bound = max(max_bound, float(bounds.max()))
        rows.append(StudyRow(
            n=int(n),
            h=fill_distance(nodes, model.domain, grid_per_dim),
            max_error=max_error,
            max_bound=max_bound,
        ))
    slope = None
    if len(rows) >= 2 and all(r.max_error > 0 for r in rows):
        hs = np.log([r.h for r in rows])
        es = np.log([r.max_error for r in rows])
        slope = float(np.polyfit(hs, es, 1)[0])
    return StudyResult(rows=rows, slope=slope)
