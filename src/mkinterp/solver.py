"""Solvers for the multi-linear interpolation system and its regularization.

The interpolation coefficients solve ``A_m c^{m-1} = y``.  Because
``A_m c^m = sum_k (v_k . c)^m`` is a sum of even powers of linear forms,
the potential

    F(c) = (1/m) A_m c^m - y . c

is convex with gradient ``A_m c^{m-1} - y`` (the system residual itself)
and Hessian ``(m-1) sum_k (v_k . c)^{m-2} v_k v_k^T``.  A damped Newton
iteration with Armijo backtracking therefore solves the system; for m = 2
it reduces to the plain linear solve ``(V V^T) c = y``.  Convergence is
declared on the residual 2-norm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DimensionMismatch, SingularDesignWarning
from .features import require_even_order
from .tensors import FeatureGram, contract_m_minus_1

_MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the interpolation and regularized solvers.

    ``init`` selects the starting point: ``"zero"`` or ``"linear"`` (solve
    the m = 2 system, then rescale to the right homogeneity).
    ``multistart`` only affects :func:`solve_regularized`; the
    interpolation problem is strictly convex and needs a single start.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 200
    ridge_floor: float = 1e-12
    line_search_shrink: float = 0.5
    armijo_constant: float = 1e-4
    init: str = "linear"
    multistart: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if not 0 < self.line_search_shrink < 1:
            raise ValueError("line_search_shrink must lie in (0, 1)")
        if not 0 < self.armijo_constant < 1:
            raise ValueError("armijo_constant must lie in (0, 1)")
        if self.init not in ("zero", "linear"):
            raise ValueError("init must be 'zero' or 'linear'")


@dataclass(frozen=True)
class SolveReport:
    coefficients: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    objective_trace: list = field(default_factory=list)
    local_minima: list | None = None


def residual_norm(gram: FeatureGram, m: int, c, y) -> float:
    """``|| A_m c^{m-1} - y ||_2``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    return float(np.linalg.norm(contract_m_minus_1(gram, m, c) - y))


def _potential(V, c, y, m):
    t = V.T @ c
    return float(np.sum(t ** m) / m - y @ c)


def _hessian(V, t, m):
    # (m-1) * V diag(t^{m-2}) V^T; t^{m-2} >= 0 for even m, so PSD.
    return (m - 1) * (V * t ** (m - 2)) @ V.T


def _newton_direction(V, t, grad, m, opts):
    n = V.shape[0]
    H = _hessian(V, t, m)
    scale = max(1.0, np.trace(H) / n)
    ridge = opts.ridge_floor * scale
    for _ in range(20):
        try:
            step = -np.linalg.solve(H + ridge * np.eye(n), grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and grad @ step < 0:
            return step
        ridge *= 100.0
    return -grad  # degenerate Hessian (e.g. c = 0 with m >= 4)


def _armijo(V, c, y, m, direction, grad, opts):
    f0 = _potential(V, c, y, m)
    slope = float(grad @ direction)
    # floor the sufficient-decrease test at rounding noise so full Newton
    # steps are still taken once the objective change is below precision
    noise = 1e-15 * (1.0 + abs(f0))
    eta = 1.0
    cand = c + direction
    for _ in range(_MAX_BACKTRACKS):
        cand = c + eta * direction
        if _potential(V, cand, y, m) <= f0 + opts.armijo_constant * eta * slope + noise:
            break
        eta *= opts.line_search_shrink
    return cand


def _initial_guess(gram: FeatureGram, m: int, y, opts: SolverOptions):
    if opts.init == "zero":
        return np.zeros(gram.n)
    V = gram.V
    c0, *_ = np.linalg.lstsq(V @ V.T, y, rcond=None)
    if m > 2:
        t = V.T @ c0
        denom = float(np.sum(t ** m))
        num = float(y @ c0)
        if denom > 0 and num > 0:
            c0 = c0 * (num / denom) ** (1.0 / m)
    return c0


def solve_multilinear(gram: FeatureGram, m: int, y,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Solve ``A_m c^{m-1} = y`` by damped Newton on the convex potential.

    Returns a report whose ``converged`` flag certifies
    ``||A_m c^{m-1} - y||_2 <= residual_tol``; on failure the best iterate
    and its diagnostics are returned with ``converged=False``.  An iterate
    whose residual or potential is not finite (overflow) ends the solve at
    once.
    """
    opts = opts or SolverOptions()
    require_even_order(m)
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    if not gram.full_row_rank:
        warnings.warn(
            "feature Gram lacks full row rank; the multi-linear system may be "
            "inconsistent and the solution non-unique",
            SingularDesignWarning,
            stacklevel=2,
        )

    V = gram.V
    # an overflowed iterate is reported below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        c = _initial_guess(gram, m, y, opts)
    trace = []
    iterations = 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            t = V.T @ c
            grad = V @ (t ** (m - 1)) - y
            res = float(np.linalg.norm(grad))
            potential = _potential(V, c, y, m)
        trace.append(potential)
        if res <= opts.residual_tol:
            return SolveReport(c, res, iterations, True, trace)
        finite = np.isfinite(res) and np.isfinite(potential)
        if iterations >= opts.max_iterations or not finite:
            return SolveReport(c, res, iterations, False, trace)
        direction = _newton_direction(V, t, grad, m, opts)
        c = _armijo(V, c, y, m, direction, grad, opts)
        iterations += 1


def _reg_objective(V, c, y, sigma, m):
    t = V.T @ c
    r = V @ (t ** (m - 1)) - y
    return float(r @ r + sigma * np.sum(t ** m)), r, t


def _reg_gradient(V, r, t, sigma, m):
    # d/dc ||A_m c^{m-1} - y||^2 = 2 J r with J the (symmetric) Jacobian
    # of c -> A_m c^{m-1}; d/dc sigma A_m c^m = sigma m A_m c^{m-1}.
    jr = (m - 1) * V @ (t ** (m - 2) * (V.T @ r))
    return 2.0 * jr + sigma * m * V @ (t ** (m - 1))


def _descend(V, y, sigma, m, c, opts, grad_tol):
    """Gradient descent with Barzilai-Borwein steps and Armijo backtracking."""
    obj, r, t = _reg_objective(V, c, y, sigma, m)
    grad = _reg_gradient(V, r, t, sigma, m)
    step = 1.0 / max(1.0, float(np.linalg.norm(grad)))
    iterations = 0
    while float(np.linalg.norm(grad)) > grad_tol and iterations < opts.max_iterations:
        eta = step
        for _ in range(_MAX_BACKTRACKS):
            cand = c - eta * grad
            cand_obj, cand_r, cand_t = _reg_objective(V, cand, y, sigma, m)
            if cand_obj <= obj - opts.armijo_constant * eta * float(grad @ grad):
                break
            eta *= opts.line_search_shrink
        new_grad = _reg_gradient(V, cand_r, cand_t, sigma, m)
        s = cand - c
        g_diff = new_grad - grad
        denom = float(s @ g_diff)
        step = float(s @ s) / denom if denom > 0 else 1.0 / max(1.0, float(np.linalg.norm(new_grad)))
        step = min(max(step, 1e-12), 1e12)
        c, obj, grad = cand, cand_obj, new_grad
        iterations += 1
    return c, obj, float(np.linalg.norm(grad)), iterations


def solve_regularized(gram: FeatureGram, m: int, y, sigma: float,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Minimize ``||A_m c^{m-1} - y||^2 + sigma A_m c^m`` by multistart descent.

    The objective is not provably convex, so ``opts.multistart`` seeded
    starting points are descended independently; the best minimizer is
    returned and all distinct local minima found are reported in
    ``local_minima``.
    """
    opts = opts or SolverOptions()
    require_even_order(m)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")

    V = gram.V
    grad_tol = max(opts.residual_tol, 1e-12) * (1.0 + float(np.linalg.norm(y)))
    rng = np.random.default_rng(opts.rng_seed)
    starts = [_initial_guess(gram, m, y, replace(opts, init="linear")),
              np.zeros(gram.n)]
    scale = 1.0 + float(np.linalg.norm(starts[0]))
    while len(starts) < max(1, opts.multistart):
        starts.append(scale * rng.standard_normal(gram.n))

    results = []
    total_iterations = 0
    for c0 in starts[: max(1, opts.multistart)]:
        c, obj, gnorm, iters = _descend(V, y, sigma, m, c0, opts, grad_tol)
        total_iterations += iters
        results.append((obj, gnorm, c))
    results.sort(key=lambda item: item[0])
    best_obj, best_gnorm, best_c = results[0]

    minima = []
    for _, _, c in results:
        if all(np.linalg.norm(c - other) > 1e-4 * (1 + np.linalg.norm(other))
               for other in minima):
            minima.append(c)

    return SolveReport(
        coefficients=best_c,
        residual_norm=residual_norm(gram, m, best_c, y),
        iterations=total_iterations,
        converged=best_gnorm <= grad_tol,
        objective_trace=[best_obj],
        local_minima=minima,
    )
