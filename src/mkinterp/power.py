"""Generalized power function, fill distance, and convergence studies.

The power function of order m at a point x is the minimal sequence-space
distance (exponent m) from the base-kernel section at x to the span of the
sections at the data nodes.  In the truncated feature basis it is the
convex minimization

    P_m(x)^m = min_theta sum_k ( phi_k(x) - sum_i theta_i phi_k(x_i) )^m,

solved by the same damped-Newton core as the interpolation system
(``solver._minimize_even_power``), every point of a block in one stack.
The l2 minimizers come from one least-squares solve per block, and the norm
of their residual is P_2 itself, the classical power function; its closed
form through ``A_2^{-1}`` is a test oracle (``tests/oracles.py``), not a
second route here.  From there the descent continues through the exponents
(one Newton step at each of p = 3 and 3.5 for m = 4, at p = 3, ..., m-1
above), as fits do, and then runs at order m until the Newton decrement is
small relative to the potential (Boyd and Vandenberghe, Convex
Optimization, 9.5.1).  That stop is relative, so P_m is accurate where it
is tiny too.  The pointwise interpolation error of any target with known
norm is bounded by ``2 ||f|| P_m(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import Domain, FeatureModel, eval_features, point_blocks, require_even_order
from .interpolant import NodeSet, _fit_gram, banach_norm_direct, feature_coefficients
from .solver import SolverOptions, _minimize_even_power
from .tensors import FeatureGram

# A point stops once its Newton decrement -grad F . step is this small relative to F.
_DECREMENT_TOL = 1e-12


def _small_decrement(gnorm, F, decrement):
    return decrement is not None and decrement <= _DECREMENT_TOL * F


def _power_values(V, B, m, opts: SolverOptions):
    """``(P_2, P_m, iterations, stop_reasons)`` at each row of the feature block B
    (N x K), nodes V (n x K).

    One least-squares solve with N right-hand sides gives every l2
    minimizer theta.  The row norms of the residual ``B - theta^T V`` are
    P_2, the distance from phi(x) to the span of the node sections.  For
    m > 2 the thetas start the core on ``F = q / m``, ``q = sum_k |b - V^T
    theta|_k^p``, with ``u = -B``, ``W = V^T`` and no linear term: one step
    at each continuation exponent, then the order-m descent, all rows in
    lock-step.  ``iterations`` counts a point's accepted Newton steps, the
    continuation steps included, within ``opts.max_iterations``.
    """
    thetas, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
    p_2 = np.linalg.norm(B - thetas.T @ V, axis=1)
    if m == 2:
        return p_2, p_2, np.zeros(len(B), dtype=int), np.full(len(B), "converged")
    z, steps = thetas.T, 0
    for p in ((3, 3.5) if m == 4 else range(3, m))[:opts.max_iterations]:
        z, _, _, taken, _, _ = _minimize_even_power(V.T, -B, None, z, p, 1, _small_decrement)
        steps = steps + taken
    _, F, _, iterations, reasons, _ = _minimize_even_power(
        V.T, -B, None, z, m, opts.max_iterations - steps, _small_decrement)
    return p_2, np.maximum(m * F, 0.0) ** (1.0 / m), steps + iterations, reasons


def power_function(model: FeatureModel, nodes: NodeSet, m: int, x,
                   opts: SolverOptions | None = None) -> float:
    """Order-m power function at the one point x: :func:`power_report` there.

    Returns ``q*^{1/m}`` where ``q*`` is the minimum of the even-power
    objective above; zero (up to solver tolerance) whenever x is a node or
    the features are exactly representable on the nodes.
    """
    return float(power_report(model, nodes, m, np.atleast_2d(x), opts=opts).p_m[0])


def domain_grid(domain: Domain, per_dim: int) -> np.ndarray:
    """Uniform tensor grid over the box, endpoints included, row-major."""
    if per_dim < 2:
        raise ValueError("per_dim must be at least 2")
    axes = [np.linspace(domain.lower[j], domain.upper[j], per_dim)
            for j in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fill_distance(nodes: NodeSet, domain: Domain, grid_per_dim: int) -> float:
    """Grid approximation of ``sup_x min_i ||x - x_i||_2``.

    The sup is taken over a uniform tensor grid, so the result is accurate
    to the grid spacing, the diagonal of one grid cell.  Raises ValueError if
    it overflows.
    """
    grid = domain_grid(domain, grid_per_dim)
    nearest_sq = np.full(grid.shape[0], np.inf)
    with np.errstate(over="ignore"):
        for node in nodes.points:
            np.minimum(nearest_sq, np.sum((grid - node) ** 2, axis=1), out=nearest_sq)
    h = float(np.sqrt(nearest_sq.max()))
    if not np.isfinite(h):
        raise ValueError("fill distance overflows on this domain")
    return h


def error_bound(f_norm: float, p_m):
    """Pointwise bound ``2 ||f|| P_m(x)`` on the interpolation error, elementwise.

    Raises ValueError for a negative or non-finite ``f_norm``, a negative
    ``p_m``, or a bound that is not finite (an overflow or a non-finite p_m).
    """
    if not 0.0 <= f_norm < np.inf:
        raise ValueError(f"f_norm must be finite and nonnegative, got {f_norm}")
    p_m = np.asarray(p_m, dtype=float)
    if np.any(p_m < 0):
        raise ValueError("p_m must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 2.0 * (f_norm * p_m)
    if not np.all(np.isfinite(bound)):
        raise ValueError(f"error bound 2 ||f|| P_m is not finite for f_norm {f_norm}")
    return bound


@dataclass(frozen=True)
class PowerReport:
    """Pointwise power-function values and error bounds on a grid.

    ``iterations`` counts the Newton steps of each point's P_m descent, its
    continuation steps included; ``stop_reasons`` says how each ended, as
    :class:`~mkinterp.solver.SolveReport` does (``"converged"`` once the
    Newton decrement is small relative to P_m^m).
    """

    eval_points: np.ndarray
    p_m: np.ndarray
    p_2: np.ndarray
    bound: np.ndarray
    order: int
    iterations: np.ndarray
    stop_reasons: np.ndarray


def power_report(model: FeatureModel, nodes: NodeSet, m: int, eval_points,
                 f_norm: float = 1.0, opts: SolverOptions | None = None) -> PowerReport:
    """Evaluate P_m, the classical P_2, and the error bound at each point.

    The node features are built once; the points go through in blocks
    (see :func:`point_blocks`), one feature evaluation and one multi-RHS
    least-squares solve per block, which gives P_2 and starts P_m, and one
    lock-step descent of the block's points per exponent.
    """
    require_even_order(m)
    error_bound(f_norm, 0.0)  # a bad f_norm fails before any P_m work
    opts = opts or SolverOptions()
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    V = eval_features(model, nodes.points)
    count = eval_points.shape[0]
    p_m, p_2 = np.empty(count), np.empty(count)
    iterations, reasons = np.empty(count, dtype=int), np.empty(count, dtype="U14")
    for rows in point_blocks(model, count):
        B = eval_features(model, eval_points[rows])
        p_2[rows], p_m[rows], iterations[rows], reasons[rows] = _power_values(V, B, m, opts)
    return PowerReport(eval_points, p_m, p_2, error_bound(f_norm, p_m), m, iterations, reasons)


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
        raise ValueError(f"convergence studies need a 1-d domain, got {domain.dim}-d")
    lo, hi = domain.lower[0], domain.upper[0]
    return (lo + (np.arange(n) + 0.5) * (hi - lo) / n)[:, None]


def convergence_study(model: FeatureModel, f_alpha, m: int, node_counts,
                      eval_grid, opts: SolverOptions | None = None,
                      grid_per_dim: int = 201) -> StudyResult:
    """Fill-distance refinement study for a target in the truncated span.

    The target is ``f = sum_k f_alpha[k] phi_k``, whose norm with exponent
    m/(m-1) is exact from its coefficients.  Each row fits the order-m
    interpolant on `n` equispaced nodes of the 1-d domain and records the
    fill distance, the worst error over `eval_grid`, and the worst pointwise
    bound ``2 ||f|| P_m``.
    """
    require_even_order(m)
    opts = opts or SolverOptions()
    f_alpha = np.asarray(f_alpha, dtype=float)
    eval_grid = np.atleast_2d(np.asarray(eval_grid, dtype=float))
    f_norm = banach_norm_direct(f_alpha, m / (m - 1))
    rows = []
    for n in node_counts:
        pts = _equispaced_nodes(model.domain, n)
        V = eval_features(model, pts)
        nodes = NodeSet(pts, V @ f_alpha)
        alpha = feature_coefficients(_fit_gram(model, nodes, m, FeatureGram(V), opts))
        max_error = max_bound = 0.0
        for block in point_blocks(model, eval_grid.shape[0]):
            B = eval_features(model, eval_grid[block])
            errors = np.abs(B @ f_alpha - B @ alpha)
            bounds = error_bound(f_norm, _power_values(V, B, m, opts)[1])
            max_error = max(max_error, float(errors.max()))
            max_bound = max(max_bound, float(bounds.max()))
        h = fill_distance(nodes, model.domain, grid_per_dim)
        rows.append(StudyRow(n=int(n), h=h, max_error=max_error, max_bound=max_bound))
    slope = None
    if len(rows) >= 2 and all(r.max_error > 0 for r in rows):
        hs = np.log([r.h for r in rows])
        es = np.log([r.max_error for r in rows])
        slope = float(np.polyfit(hs, es, 1)[0])
    return StudyResult(rows=rows, slope=slope)
