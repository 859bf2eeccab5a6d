"""Generalized power function, fill distance, and convergence studies.

The power function of order m at x is the distance (exponent m) from the
base-kernel section at x to the span of the sections at the nodes,
``P_m(x)^m = min_theta sum_k (phi_k(x) - sum_i theta_i phi_k(x_i))^m``.
The solver's damped-Newton core descends to it from the l2 minimizer, whose
residual norm is P_2.  A target of known norm errs by at most
``2 ||f|| P_m(x)``; the README gives the descent and the study's pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .exceptions import DimensionMismatch, NotConverged
from .features import (BLOCK_VALUES, Domain, FeatureModel, _integer, domain_grid,
                       eval_features, point_blocks, require_even_order)
from .interpolant import Interpolant, NodeSet, banach_norm_direct, feature_coefficients
from .solver import SolverOptions, _abs_pow, _minimize_even_power, solve_multilinear
from .tensors import FeatureGram

# A point stops once its Newton decrement -grad F . step is this small relative to F.
_DECREMENT_TOL = 1e-12
# A point's descent runs where ||r_2||_m times (1 + this) reaches the best P_m found.
_REACH_MARGIN = 1e-9
# Fewest points of a descent that pay for the table of the nodes' pair products,
# and for the duality-gap stop test.
_PAIR_ROWS = 16
# Largest table of the nodes' pair products (2 MiB); past it Hessians are formed per row.
_PAIR_VALUES = 1 << 18
# Points per axis of the grid on which a convergence study takes the fill distance.
_FILL_GRID_PER_DIM = 201


def _least_squares(V, B):
    """The l2 minimizers (N x n) and residuals ``B - theta^T V`` (row norms P_2) of the
    feature block B (N x K) on nodes V (n x K), by one solve with N right-hand sides."""
    thetas, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
    return thetas.T, B - thetas.T @ V


def _range_basis(V):
    """An orthonormal basis of range(V^T), by one QR of V^T, or None where
    n >= K: null(V) is then {0} and gives no lower bound on P_m."""
    n, K = V.shape
    return np.linalg.qr(V.T)[0] if n < K else None


def pair_products(W):
    """``(M, index)``: the K x n(n+1)/2 table ``M[:, j] = W[:, a] W[:, b]`` over the pairs
    a <= b and each pair's column (either order), so ``W^T diag(d) W = (d @ M)[index]``;
    None past ``_PAIR_VALUES`` doubles."""
    K, n = W.shape
    width = n * (n + 1) // 2
    if K * width > _PAIR_VALUES:
        return None
    M, index = np.empty((K, width)), np.empty((n, n), dtype=np.intp)
    lo = 0
    for a in range(n):
        np.multiply(W[:, a:], W[:, a, None], out=M[:, lo:lo + n - a])
        index[a, a:] = index[a:, a] = np.arange(lo, lo + n - a)
        lo += n - a
    return M, index


def _dual_bound(W, basis, r, z, p):
    """Hoelder's lower bound on ``min_z ||u + W z||_p`` at each row of the stack z, from
    its residual ``r = u + W z`` and an orthonormal ``basis`` of range(W), less its
    rounding allowance and clipped at 0 (see README)."""
    eps, K = np.finfo(float).eps, r.shape[-1]
    psi = r * _abs_pow(r, p - 2)
    dual = psi - (psi @ basis) @ basis.T
    terms = dual * r
    allowance = (eps * np.linalg.norm(W) * math.sqrt(K) * np.linalg.norm(z, axis=-1)
                 * np.linalg.norm(dual, axis=-1) + K * eps * np.abs(terms).sum(axis=-1))
    dual_norm = (np.abs(dual) ** (p / (p - 1))).sum(axis=-1) ** ((p - 1) / p)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (np.abs(terms.sum(axis=-1)) - allowance) / dual_norm
    return np.where((bound > 0) & np.isfinite(bound), bound, 0.0)


def _descend(V, B, z, m, opts: SolverOptions, basis=None):
    """``(P_m, iterations, stop_reasons, thetas)`` at each row of B from the stack z: one core
    step at each continuation exponent, then order m (see README), within
    ``opts.max_iterations`` steps a point.  A stack of at least ``_PAIR_ROWS`` points uses
    the pair table and, given ``basis`` (:func:`_range_basis`), stops on the duality gap."""
    stacked = len(B) >= _PAIR_ROWS
    pairs = pair_products(V.T) if stacked else None
    lower = None if basis is None or not stacked else (
        lambda r, z: _abs_pow(_dual_bound(V.T, basis, r, z, m), m) / m)
    steps = 0
    for p in ((3, 3.5) if m == 4 else range(3, m))[:opts.max_iterations]:
        z, _, _, taken, _ = _minimize_even_power(V.T, -B, None, z, p, 1, dtol=_DECREMENT_TOL,
                                                 pairs=pairs)
        steps = steps + taken
    z, F, _, iterations, reasons = _minimize_even_power(
        V.T, -B, None, z, m, opts.max_iterations - steps, dtol=_DECREMENT_TOL, pairs=pairs,
        lower=lower)
    return np.maximum(m * F, 0.0) ** (1.0 / m), steps + iterations, reasons, z


def _max_power(V, B, m, opts: SolverOptions, best: float) -> float:
    """The larger of ``best`` and the largest P_m over the rows of B; a row
    descends only where its bound ``||r_2||_m`` can reach ``best`` (see README)."""
    thetas, residual = _least_squares(V, B)
    upper = _abs_pow(residual, m).sum(axis=1) ** (1.0 / m)
    if m == 2:
        return np.maximum(best, upper.max())
    top = np.arange(len(B)) == np.argmax(upper)
    for rows in (top, ~top):
        rows &= ~(upper * (1.0 + _REACH_MARGIN) < best)  # a NaN bound is descended too
        if rows.any():
            best = np.maximum(best, _descend(V, B[rows], thetas[rows], m, opts)[0].max())
    return best


def power_function(model: FeatureModel, nodes: NodeSet, m: int, x,
                   opts: SolverOptions | None = None) -> float:
    """Order-m power function at the one point x: :func:`power_report` there; zero (up to
    solver tolerance) at a node or where the nodes represent the features exactly."""
    return float(power_report(model, nodes, m, np.atleast_2d(x), opts=opts).p_m[0])


def fill_distance(nodes: NodeSet, domain: Domain, grid_per_dim: int) -> float:
    """``sup_x min_i ||x - x_i||_2`` over a uniform tensor grid, so to within the diagonal
    of one grid cell.  DimensionMismatch for nodes of another dimension than the
    domain's; ValueError if it overflows."""
    points, dim = nodes.points, domain.dim
    if points.shape[1] != dim:
        raise DimensionMismatch(f"nodes have dimension {points.shape[1]}, domain has "
                                f"dimension {dim}")
    grid = domain_grid(domain, grid_per_dim)
    nearest_sq = np.full(grid.shape[0], np.inf)
    # blocks of grid points against blocks of nodes, at most BLOCK_VALUES differences each
    per_block = min(len(points), max(1, BLOCK_VALUES // dim))
    step = max(1, BLOCK_VALUES // (per_block * dim))
    with np.errstate(over="ignore"):
        for lo, at in product(range(0, len(grid), step), range(0, len(points), per_block)):
            near = nearest_sq[lo:lo + step]
            part = grid[lo:lo + step, None] - points[None, at:at + per_block]
            np.minimum(near, np.sum(part ** 2, axis=2).min(axis=1), out=near)
    h = float(np.sqrt(nearest_sq.max()))
    if not np.isfinite(h):
        raise ValueError("fill distance overflows on this domain")
    return h


def error_bound(f_norm: float, p_m):
    """Pointwise bound ``2 ||f|| P_m(x)`` on the interpolation error, elementwise; ValueError
    for a negative or non-finite ``f_norm``, a negative ``p_m`` or a bound not finite."""
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
    Newton decrement or the duality gap is small relative to P_m^m).
    ``p_m_lower`` is the duality bound at each point's last iterate, at most
    P_m there, and 0 where the nodes are at least K.
    """

    eval_points: np.ndarray
    p_m: np.ndarray
    p_2: np.ndarray
    bound: np.ndarray
    order: int
    iterations: np.ndarray
    stop_reasons: np.ndarray
    p_m_lower: np.ndarray


def power_report(model: FeatureModel, nodes: NodeSet, m: int, eval_points,
                 f_norm: float = 1.0, opts: SolverOptions | None = None) -> PowerReport:
    """Evaluate P_m, the classical P_2, and the error bound at each point, a block of
    points (:func:`point_blocks`) at a time (see README)."""
    m = require_even_order(m)
    error_bound(f_norm, 0.0)  # a bad f_norm fails before any P_m work
    opts = opts or SolverOptions()
    eval_points = np.atleast_2d(np.asarray(eval_points, dtype=float))
    V = eval_features(model, nodes.points)
    basis = _range_basis(V)
    count = eval_points.shape[0]
    p_m, p_2, lower = np.empty(count), np.empty(count), np.zeros(count)
    iterations, reasons = np.empty(count, dtype=int), np.empty(count, dtype="U14")
    for rows in point_blocks(model, count):
        B = eval_features(model, eval_points[rows])
        thetas, residual = _least_squares(V, B)
        p_2[rows] = np.linalg.norm(residual, axis=1)
        if m == 2:
            p_m[rows], iterations[rows], reasons[rows] = p_2[rows], 0, "converged"
        else:
            p_m[rows], iterations[rows], reasons[rows], thetas = _descend(
                V, B, thetas, m, opts, basis)
        if basis is not None:
            lower[rows] = _dual_bound(V.T, basis, thetas @ V - B, thetas, m)
    return PowerReport(eval_points, p_m, p_2, error_bound(f_norm, p_m), m, iterations, reasons,
                       lower)


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
                      eval_grid, opts: SolverOptions | None = None) -> StudyResult:
    """Fill-distance refinement study for the target ``f = sum_k f_alpha[k] phi_k``.

    Each row fits the order-m interpolant on `n` equispaced nodes of the 1-d
    domain and records the fill distance (on a grid of ``_FILL_GRID_PER_DIM``
    points), the worst error over `eval_grid` and the worst bound ``2 ||f|| P_m``
    (``_max_power``); each block of the grid is evaluated once, for every row.
    ValueError, before any fit, for an f_alpha that is not K finite numbers, an
    empty grid, or node counts that are not integers, at least 1 and strictly increasing.
    """
    m = require_even_order(m)
    opts = opts or SolverOptions()
    f_alpha = np.asarray(f_alpha, dtype=float)
    if f_alpha.shape != (model.truncation,) or not np.all(np.isfinite(f_alpha)):
        raise ValueError(f"f_alpha must be {model.truncation} finite numbers, one per feature")
    eval_grid = np.atleast_2d(np.asarray(eval_grid, dtype=float))
    if not eval_grid.size:
        raise ValueError("eval_grid has no points")
    f_norm = banach_norm_direct(f_alpha, m / (m - 1))
    counts = [_integer("node count", n) for n in node_counts]
    if any(b <= a for a, b in zip([0, *counts], counts)):
        raise ValueError("node_counts must be strictly increasing and at least 1")
    fits = []
    for n in counts:
        pts = _equispaced_nodes(model.domain, n)
        V = eval_features(model, pts)
        nodes = NodeSet(pts, V @ f_alpha)
        report = solve_multilinear(FeatureGram(V), m, nodes.values, opts)
        if not report.converged:  # `fit` would evaluate V again
            raise NotConverged(report)
        fits.append((Interpolant(model, nodes, m, report.coefficients, report), V))
    errors, powers = [0.0] * len(fits), [0.0] * len(fits)
    for block in point_blocks(model, eval_grid.shape[0]):
        B = eval_features(model, eval_grid[block])
        target = B @ f_alpha
        for i, (s, V) in enumerate(fits):
            errors[i] = max(errors[i], float(np.abs(target - B @ feature_coefficients(s)).max()))
            powers[i] = _max_power(V, B, m, opts, powers[i])
    rows = [StudyRow(n=s.nodes.n, h=fill_distance(s.nodes, model.domain, _FILL_GRID_PER_DIM),
                     max_error=error, max_bound=float(error_bound(f_norm, power)))
            for (s, _), error, power in zip(fits, errors, powers)]
    slope = None
    if len(rows) >= 2 and all(r.max_error > 0 for r in rows):
        hs = np.log([r.h for r in rows])
        es = np.log([r.max_error for r in rows])
        slope = float(np.polyfit(hs, es, 1)[0])
    return StudyResult(rows=rows, slope=slope)
