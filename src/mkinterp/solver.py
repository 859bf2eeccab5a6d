"""Solvers for the multi-linear interpolation system and its regularization.

The interpolation coefficients solve ``A_m c^{m-1} = y``.  Because
``A_m c^m = sum_k (v_k . c)^m`` is a sum of even powers of linear forms,
the potential

    F(c) = (1/m) A_m c^m - y . c

is convex with gradient ``A_m c^{m-1} - y`` (the system residual itself)
and Hessian ``(m-1) sum_k (v_k . c)^{m-2} v_k v_k^T``.  The power function
(:mod:`mkinterp.power`) minimizes a potential of the same shape, so one
damped Newton core, ``_minimize_even_power``, serves both problems:

    F(z) = (1/m) sum_k (u + W z)_k^m + l . z

with ``u = 0``, ``W = V^T``, ``l = -y`` here.  Each caller brings its own
stop test; interpolation stops on the residual 2-norm.  For m = 2 the core
reduces to the linear solve ``(V V^T) c = y``.

The regularized fit minimizes ``||A_m c^{m-1} - y||^2 + sigma A_m c^m``, a
strictly convex problem in ``alpha = (V^T c)^{m-1}``, at the unique root of
``A_m c^{m-1} + lam c = y``, ``lam = sigma m / (2(m-1))`` (the representer
theorem in a reproducing kernel Banach space; Zhang, Xu and Zhang, JMLR 10,
2009).  That root minimizes F plus ``(lam/2)|c|^2``, one more core solve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, SingularDesignWarning
from .features import require_even_order
from .tensors import FeatureGram, contract_m_minus_1

# Newton and line-search constants, shared by every descent in this module.
_RIDGE_FLOOR = 1e-12
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
# Rounding noise of F, relative to the summed magnitude of its terms.
_NOISE = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the interpolation and regularized solvers.

    ``init`` selects the starting point: ``"zero"`` or ``"linear"`` (solve
    the m = 2 system, then rescale to the right homogeneity).
    ``rng_seed`` has no reader; it stays because the benchmark harness
    (``bench/workloads.py``) sets it.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 200
    init: str = "linear"
    rng_seed: int = 0

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.init not in ("zero", "linear"):
            raise ValueError("init must be 'zero' or 'linear'")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    ``stop_reason`` is ``"converged"``, ``"max_iterations"``, ``"stalled"``
    (no step passes the line search, so the last iterate is kept) or
    ``"non_finite"`` (the residual or the potential overflowed).
    """

    coefficients: np.ndarray
    residual_norm: float
    iterations: int
    stop_reason: str
    objective_trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def residual_norm(gram: FeatureGram, m: int, c, y) -> float:
    """``|| A_m c^{m-1} - y ||_2``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    return float(np.linalg.norm(contract_m_minus_1(gram, m, c) - y))


def _newton_direction(W, r, grad, m, lam):
    # a helper, so that the n x n Hessian is freed before the next is built
    n = W.shape[1]
    # (m-1) * W^T diag(r^{m-2}) W; r^{m-2} >= 0 for even m, so PSD.
    H = (m - 1) * (W.T * r ** (m - 2)) @ W
    # relative to H's scale, which tiny residuals (P_m near nodes) make tiny
    ridge = _RIDGE_FLOOR * (H.trace() / n or 1.0)
    diagonal = H.diagonal() + lam
    for _ in range(20):
        H.flat[:: n + 1] = diagonal + ridge
        try:
            step = -np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and grad @ step < 0:
            return step
        ridge *= 100.0
    return -grad  # degenerate Hessian (e.g. z = 0 with u = 0 and m >= 4)


def _minimize_even_power(W, u, ell, z, m, max_iterations, done, lam=0.0):
    """Damped Newton on ``F(z) = (1/m) sum_k (u + W z)_k^m + ell . z + (lam/2)|z|^2``.

    ``W`` is K x n, ``u`` a K-vector or 0, ``ell`` an n-vector or None for
    zero, m even, ``lam >= 0``; ``done(gnorm, F)`` is the caller's stop
    test.  Returns ``(z, F, gnorm, iterations, stop_reason, trace)``, F per
    iterate in trace.

    The line search tests the difference ``F(cand) - F`` (the sum
    ``F + c eta slope`` rounds back to F) and trusts a fall only beyond F's
    rounding noise, relative to the summed magnitude of its terms.  Within
    the noise a candidate must lower the gradient norm strictly, by the
    Armijo fraction (the approximate-Wolfe idea of Hager and Zhang, SIAM J.
    Optim. 16(1), 2005).  Overflow fails the line search or ends the solve.
    """
    def evaluate(z):  # r = u + W z, F and the magnitude of F's terms
        r = W @ z + u
        power_sum = float((r ** m).sum()) / m
        if lam:
            power_sum += 0.5 * lam * float(z @ z)
        if ell is None:
            return r, power_sum, power_sum
        return r, power_sum + float(ell @ z), power_sum + float(np.abs(ell) @ np.abs(z))

    def gradient(r, z):
        grad = W.T @ (r ** (m - 1))
        if lam:
            grad = grad + lam * z
        return grad if ell is None else grad + ell

    with np.errstate(over="ignore", invalid="ignore"):
        r, F, magnitude = evaluate(z)
        grad = gradient(r, z)
        trace = []
        iterations = 0
        while True:
            gnorm = math.sqrt(grad @ grad)
            trace.append(F)
            if done(gnorm, F):
                return z, F, gnorm, iterations, "converged", trace
            if not (math.isfinite(gnorm) and math.isfinite(F)):
                return z, F, gnorm, iterations, "non_finite", trace
            if iterations >= max_iterations:
                return z, F, gnorm, iterations, "max_iterations", trace
            step = _newton_direction(W, r, grad, m, lam)
            slope = float(grad @ step)
            noise = _NOISE * magnitude
            eta = 1.0
            for _ in range(_MAX_BACKTRACKS):
                cand = z + eta * step
                cand_r, cand_F, cand_magnitude = evaluate(cand)
                drop = cand_F - F
                decrease = _ARMIJO * eta * slope
                if drop <= decrease + noise:
                    cand_grad = gradient(cand_r, cand)
                    if (drop <= min(decrease, -noise) or math.sqrt(cand_grad @ cand_grad)
                            < (1.0 - _ARMIJO * eta) * gnorm):
                        break
                eta *= _SHRINK
            else:
                return z, F, gnorm, iterations, "stalled", trace
            z, r, F, magnitude, grad = cand, cand_r, cand_F, cand_magnitude, cand_grad
            iterations += 1


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


def _solve(gram: FeatureGram, m: int, y, sigma: float, opts: SolverOptions | None):
    """Root of ``A_m c^{m-1} + lam c = y``; see the module docstring."""
    opts = opts or SolverOptions()
    require_even_order(m)
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    lam = sigma * m / (2 * (m - 1))
    # lam > 0 makes the potential strictly convex whatever the rank
    if not lam and not gram.full_row_rank:
        warnings.warn("feature Gram lacks full row rank; the multi-linear system may be "
                      "inconsistent and the solution non-unique",
                      SingularDesignWarning, stacklevel=3)

    # an overflowed start is reported as non_finite rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        c = _initial_guess(gram, m, y, opts)
        c, _, res, iterations, reason, trace = _minimize_even_power(
            gram.V.T, 0.0, -y, c, m, opts.max_iterations,
            lambda gnorm, F: gnorm <= opts.residual_tol, lam)
        if lam:  # the misfit, not the root residual the core stopped on
            res = residual_norm(gram, m, c, y)
    return SolveReport(c, res, iterations, reason, trace)


def solve_multilinear(gram: FeatureGram, m: int, y,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Solve ``A_m c^{m-1} = y`` by damped Newton on the convex potential.

    Returns a report whose ``converged`` flag certifies
    ``||A_m c^{m-1} - y||_2 <= residual_tol``; otherwise its ``stop_reason``
    says why the solve ended, with the last iterate and its diagnostics.
    """
    return _solve(gram, m, y, 0.0, opts)


def solve_regularized(gram: FeatureGram, m: int, y, sigma: float,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Minimize ``||A_m c^{m-1} - y||^2 + sigma A_m c^m`` by one Newton solve.

    ``converged`` certifies ``||A_m c^{m-1} + lam c - y||_2 <= residual_tol``
    with ``lam = sigma m / (2(m-1))``; ``residual_norm`` is the misfit
    ``||A_m c^{m-1} - y||_2``, ``objective_trace`` the potential per iterate.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return _solve(gram, m, y, sigma, opts)
