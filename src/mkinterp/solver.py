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

The core takes any real exponent p >= 2 in place of m, with ``|r|^p`` in F,
so a fit can start by exponent continuation (the p-homotopy of iteratively
reweighted least squares; Burrus, Barreto and Selesnick, IEEE Trans. Signal
Process. 42(11), 1994): from the l2 solution, one damped Newton step at
each p = 3, ..., m-1 brings the start nearer the order-m minimizer, so
the order-m descent spends fewer Newton steps in its slowly converging tail.
A continued start that ends with a higher order-m potential than the plain
rescaled l2 solution is discarded.

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
from .tensors import FeatureGram, _certifies_full_rank, contract_m_minus_1

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

    ``init`` selects the starting point: ``"zero"`` or ``"linear"``: solve
    the m = 2 system, then, for m > 2 and ``max_iterations > 0``, continue
    it through the exponents p = 3, ..., m-1 with one Newton step each,
    rescaling to each order's homogeneity.  The continued start is kept only
    if its order-m potential is no higher than that of the l2 solution
    rescaled to order m, which is the start otherwise.
    ``rng_seed`` has no reader; it stays because the benchmark harness
    (``bench/workloads.py``) sets it.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 200
    init: str = "linear"
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.residual_tol < math.inf:
            raise ValueError(f"residual_tol must be finite and positive, got {self.residual_tol}")
        if self.init not in ("zero", "linear"):
            raise ValueError("init must be 'zero' or 'linear'")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    ``stop_reason`` is ``"converged"``, ``"max_iterations"``, ``"stalled"``
    (no step passes the line search, so the last iterate is kept) or
    ``"non_finite"`` (the residual or the potential overflowed).
    ``iterations`` counts every accepted Newton step, the continuation
    steps of the ``"linear"`` start included, and with them never exceeds
    ``max_iterations``; ``objective_trace`` holds the order-m potential of
    each order-m iterate only.
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


def _hessian(W, r, p):
    """``(p-1) W^T diag(|r|^{p-2}) W``, PSD, as ``(p-1) Y^T Y``.

    ``Y = diag(|r|^{(p-2)/2}) W``; numpy forms ``Y^T Y`` on one buffer by a
    symmetric rank-K update, which halves the flops of a general product
    and makes H exactly symmetric.  At even integer p the row scale is
    ``r^{(p-2)/2}``, whose sign Y^T Y squares away.
    """
    scale = r ** ((p - 2) // 2) if p % 2 == 0 else np.abs(r) ** ((p - 2) / 2)
    Y = W * scale[:, None]
    H = Y.T @ Y
    H *= p - 1
    return H


def _newton_direction(W, r, grad, p, lam):
    # a helper, so that the n x n Hessian is freed before the next is built
    n = W.shape[1]
    H = _hessian(W, r, p)
    # relative to H's scale, which tiny residuals (P_m near nodes) make tiny;
    # it also makes a zero Hessian (z = 0 with u = 0 and p > 2) solvable
    ridge = _RIDGE_FLOOR * (H.trace() / n or 1.0)
    H.flat[:: n + 1] = (H.diagonal() + lam) + ridge
    try:
        step = -np.linalg.solve(H, grad)
    except np.linalg.LinAlgError:
        return -grad
    return step if grad @ step < 0 else -grad


def _potential(W, u, ell, z, p, lam):
    """``(r, F, magnitude)``: ``r = u + W z``, the core's F at z and the
    summed magnitude of F's terms (the scale of its rounding noise)."""
    r = W @ z + u
    power_sum = float((r ** p if p % 2 == 0 else np.abs(r) ** p).sum()) / p
    if lam:
        power_sum += 0.5 * lam * float(z @ z)
    if ell is None:
        return r, power_sum, power_sum
    return r, power_sum + float(ell @ z), power_sum + float(np.abs(ell) @ np.abs(z))


def _gradient(W, ell, r, z, p, lam):
    """The core's gradient at z, from its residual ``r = u + W z``."""
    grad = W.T @ (r ** (p - 1) if p % 2 == 0 else r * np.abs(r) ** (p - 2))
    if lam:
        grad = grad + lam * z
    return grad if ell is None else grad + ell


def _minimize_even_power(W, u, ell, z, p, max_iterations, done, lam=0.0):
    """Damped Newton on ``F(z) = (1/p) sum_k |u + W z|_k^p + ell . z + (lam/2)|z|^2``.

    ``W`` is K x n, ``u`` a K-vector or 0, ``ell`` an n-vector or None for
    zero, p a real exponent >= 2 (the potential is an even function of the
    residual), ``lam >= 0``; ``done(gnorm, F)`` is the caller's stop test.
    The gradient is ``W^T (sign(r) |r|^{p-1})`` plus the linear terms.  At
    even integer p (given as an int or as an integral float) the powers are
    ``r**p``, ``r**(p-1)`` and ``r**((p-2)//2)``, so the iterates do not
    depend on how p was given.  Returns
    ``(z, F, gnorm, iterations, stop_reason, trace)``, F per iterate in trace.

    The line search tests the difference ``F(cand) - F`` (the sum
    ``F + c eta slope`` rounds back to F) and trusts a fall only beyond F's
    rounding noise, relative to the summed magnitude of its terms.  Within
    the noise a candidate must lower the gradient norm strictly, by the
    Armijo fraction (the approximate-Wolfe idea of Hager and Zhang, SIAM J.
    Optim. 16(1), 2005).  Overflow fails the line search or ends the solve.
    """
    if p % 2 == 0:
        p = int(p)

    with np.errstate(over="ignore", invalid="ignore"):
        r, F, magnitude = _potential(W, u, ell, z, p, lam)
        grad = _gradient(W, ell, r, z, p, lam)
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
            step = _newton_direction(W, r, grad, p, lam)
            slope = float(grad @ step)
            noise = _NOISE * magnitude
            eta = 1.0
            for _ in range(_MAX_BACKTRACKS):
                cand = z + eta * step
                cand_r, cand_F, cand_magnitude = _potential(W, u, ell, cand, p, lam)
                drop = cand_F - F
                decrease = _ARMIJO * eta * slope
                if drop <= decrease + noise:
                    cand_grad = _gradient(W, ell, cand_r, cand, p, lam)
                    if (drop <= min(decrease, -noise) or math.sqrt(cand_grad @ cand_grad)
                            < (1.0 - _ARMIJO * eta) * gnorm):
                        break
                eta *= _SHRINK
            else:
                return z, F, gnorm, iterations, "stalled", trace
            z, r, F, magnitude, grad = cand, cand_r, cand_F, cand_magnitude, cand_grad
            iterations += 1


def _rescale(W, c, y, p):
    """c times ``(y . c / sum_k |t_k|^p)^{1/p}``, ``t = W c``, the homogeneity of order p.

    Left unscaled when either sum is not positive.
    """
    t = W @ c
    denom = float((t ** p if p % 2 == 0 else np.abs(t) ** p).sum())
    num = float(y @ c)
    if denom > 0 and num > 0:
        c = c * (num / denom) ** (1.0 / p)
    return c


def _l2_start(gram: FeatureGram, y):
    """``(c, certified)``: the solution of ``(V V^T) c = y`` and whether the eigenvalue
    certificate (:func:`_certifies_full_rank`) cleared V; the fit's one ``V V^T`` is freed
    on return."""
    G = gram.V @ gram.V.T
    if _certifies_full_rank(G, gram.K):
        return np.linalg.solve(G, y), True
    return np.linalg.lstsq(G, y, rcond=None)[0], False


def _continued_start(W, c, m, y, lam, max_iterations, done):
    """``(start, steps)``: the ``"linear"`` start of :class:`SolverOptions` from
    the l2 solution c, and the Newton steps spent on it (one per order p)."""
    start = _rescale(W, c, y, m)
    if max_iterations == 0:
        return start, 0
    steps = 0
    for p in range(3, min(m, 3 + max_iterations)):
        c, _, _, taken, _, _ = _minimize_even_power(
            W, 0.0, -y, _rescale(W, c, y, p), p, 1, done, lam)
        steps += taken
    c = _rescale(W, c, y, m)
    if _potential(W, 0.0, -y, c, m, lam)[1] <= _potential(W, 0.0, -y, start, m, lam)[1]:
        return c, steps
    return start, steps


def _solve(gram: FeatureGram, m: int, y, sigma: float, opts: SolverOptions | None):
    """Root of ``A_m c^{m-1} + lam c = y``; see the module docstring."""
    opts = opts or SolverOptions()
    require_even_order(m)
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    lam = sigma * m / (2 * (m - 1))

    def done(gnorm, F):
        return gnorm <= opts.residual_tol

    # an overflowed start is reported as non_finite rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        linear = opts.init == "linear"
        c, certified = _l2_start(gram, y) if linear else (np.zeros(gram.n), False)
        # lam > 0 makes the potential strictly convex whatever the rank
        if not (lam or certified or gram.full_row_rank):
            detail = (f"truncation K={gram.K} < n={gram.n}" if gram.K < gram.n
                      else "rank-deficient feature Gram")
            warnings.warn(f"singular design ({detail})", SingularDesignWarning, stacklevel=3)
        steps = 0
        if linear and m > 2:
            c, steps = _continued_start(gram.V.T, c, m, y, lam, opts.max_iterations, done)
        c, _, res, iterations, reason, trace = _minimize_even_power(
            gram.V.T, 0.0, -y, c, m, opts.max_iterations - steps, done, lam)
        if lam:  # the misfit, not the root residual the core stopped on
            res = residual_norm(gram, m, c, y)
    return SolveReport(c, res, steps + iterations, reason, trace)


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
