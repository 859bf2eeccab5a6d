"""Solvers for the multi-linear interpolation system ``A_m c^{m-1} = y``.

``A_m c^m = sum_k (v_k . c)^m`` is a sum of even powers of linear forms, so
the potential ``F(c) = (1/m) A_m c^m - y . c`` is convex and its gradient is
the system residual.  One damped Newton core, ``_minimize_even_power``,
minimizes it for fits, with a ``(lam/2)|c|^2`` term for the regularized fit
(Zhang, Xu and Zhang, JMLR 10, 2009), and a potential of the same shape for
the power function (:mod:`mkinterp.power`).  A fit starts from the l2
solution and continues in the exponent (Burrus, Barreto and Selesnick, IEEE
Trans. Signal Process. 42(11), 1994); the README gives the stop tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, SingularDesignWarning
from .features import _integer, require_even_order
from .tensors import FeatureGram, contract_m_minus_1

# Newton and line-search constants, shared by every descent in this module.
_RIDGE_FLOOR = 1e-12
_ARMIJO = 1e-4
_SHRINK = 0.5
_MAX_BACKTRACKS = 60
# Rounding noise of F, relative to the summed magnitude of its terms.
_NOISE = 1e-15
# Doubles per chunk of stacked Hessians, packed pair sums included (1 MiB): few
# numpy calls, little memory.
_HESSIAN_VALUES = 1 << 17


@dataclass(frozen=True)
class SolverOptions:
    """Settings of the Newton solves, each read by the callers named here.

    ``residual_tol`` is read by fits alone (``fit``, ``solve_multilinear``,
    ``solve_regularized`` and the fits of ``convergence_study``), which stop
    once the root residual is at most it.  ``max_iterations`` bounds the
    Newton steps, continuation steps included, of each fit and of each
    point's ``P_m`` descent in ``power_report``, ``power_function`` and
    ``convergence_study``.  ``rng_seed`` has no reader; it stays because
    the benchmark harness (``bench/workloads.py``) sets it.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        tol = self.residual_tol
        if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
                or not 0 < tol < math.inf):
            raise ValueError(f"residual_tol must be a finite positive real number, got {tol!r}")
        it = _integer("max_iterations", self.max_iterations)
        if it < 0:
            raise ValueError(f"max_iterations must be a nonnegative integer, got {it!r}")
        object.__setattr__(self, "max_iterations", it)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    ``stop_reason`` is ``"converged"``, ``"max_iterations"``, ``"stalled"``
    (no step passes the line search, so the last iterate is kept) or
    ``"non_finite"`` (the residual or the potential overflowed).
    ``iterations`` counts every accepted Newton step, the continuation
    steps of the start included, and with them never exceeds
    ``max_iterations``.
    """

    coefficients: np.ndarray
    residual_norm: float
    iterations: int
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def residual_norm(gram: FeatureGram, m: int, c, y) -> float:
    """``|| A_m c^{m-1} - y ||_2``."""
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    return float(np.linalg.norm(contract_m_minus_1(gram, m, c) - y))


def _abs_pow(r, p):
    """``|r|**p`` as a new array: at integral p a product of repeated squares, with no abs
    at even p (numpy's scalar ``pow`` takes over ten times as long)."""
    if not (p >= 0 and float(p).is_integer()):
        return np.abs(r) ** p
    k, out = int(p), None
    base = np.abs(r) if k % 2 else r
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        base = base * base if k else base
    return np.ones_like(r) if out is None else out


def _hessian(W, r, p, out=None):
    """``(p-1) W^T diag(|r|^{p-2}) W`` as ``(p-1) Y^T Y``, ``Y = diag(|r|^{(p-2)/2}) W``:
    one symmetric rank-K update, exactly symmetric, into ``out`` if given."""
    Y = W * _abs_pow(r, (p - 2) / 2)[:, None]
    H = np.matmul(Y.T, Y, out=out)
    H *= p - 1
    return H


def _newton_directions(W, R, G, p, lam, pairs):
    """Newton steps and their slopes ``G . step`` at each row of a stack, residuals R (N x K)
    and gradients G (N x n), in chunks of at most ``_HESSIAN_VALUES`` doubles, a chunk's
    Hessians from the pair table ``pairs`` (its packed products counted) if given, else by
    :func:`_hessian`.  A chunk LAPACK rejects is solved row by row; a row whose Hessian stays
    singular, or whose step is not a descent direction, steps along ``-grad``."""
    N, n = G.shape
    steps = np.empty((N, n))
    packed = 0 if pairs is None else pairs[0].shape[1]
    chunk = max(1, _HESSIAN_VALUES // (n * n + packed))
    for lo in range(0, N, chunk):
        r, g, part = R[lo:lo + chunk], G[lo:lo + chunk], steps[lo:lo + chunk]
        if pairs is None:
            H = np.empty((len(r), n, n))
            for row, h in zip(r, H):
                _hessian(W, row, p, out=h)
        else:
            M, index = pairs
            weights = _abs_pow(r, p - 2)
            weights *= p - 1
            H = (weights @ M)[:, index]
        # relative to H's scale, which tiny residuals (P_m near nodes) make tiny;
        # it also makes a zero Hessian (z = 0 with u = 0 and p > 2) solvable
        diagonal = H.reshape(len(H), n * n)[:, :: n + 1]
        scale = diagonal.sum(axis=1) / n
        if lam:  # skipped at 0, bit for bit: a Hessian's diagonal is never -0.0
            diagonal += lam
        diagonal += _RIDGE_FLOOR * np.where(scale != 0, scale, 1.0)[:, None]
        try:
            part[:] = -np.linalg.solve(H, g[:, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for h, row, step in zip(H, g, part):
                try:
                    step[:] = -np.linalg.solve(h, row)
                except np.linalg.LinAlgError:
                    step[:] = -row
    slopes = np.vecdot(G, steps)
    uphill = ~(slopes < 0)
    if uphill.any():
        steps[uphill] = -G[uphill]
        slopes[uphill] = np.vecdot(G[uphill], steps[uphill])
    return steps, slopes


def _state(W, u, ell, z, p, lam):
    """``(r, F, magnitude, grad, gnorm)`` of the core at each row of the stack z (or at
    one vector z): ``r = u + W z``, F, the summed magnitude of F's terms (the scale of its
    rounding noise), the gradient and its norm."""
    r = z @ W.T + u
    F = _abs_pow(r, p).sum(axis=-1) / p
    grad = (r * _abs_pow(r, p - 2)) @ W
    if lam:
        F += 0.5 * lam * np.vecdot(z, z)
        grad = grad + lam * z
    magnitude = F
    if ell is not None:
        F, magnitude = F + np.vecdot(z, ell), F + np.vecdot(np.abs(z), np.abs(ell))
        grad = grad + ell
    return r, F, magnitude, grad, np.sqrt(np.vecdot(grad, grad))


def _minimize_even_power(W, u, ell, Z, p, max_iterations, lam=0.0, gtol=None, dtol=None,
                         pairs=None, lower=None):
    """Damped Newton on ``F(z) = (1/p) sum_k |u + W z|_k^p + ell . z + (lam/2)|z|^2``
    for each row of the (N, n) stack Z, in lock-step (see README).  W is K x n, u an (N, K)
    stack or 0, ``ell`` an n-vector or None, p >= 2 and ``lam >= 0``.  A row stops once its
    gradient norm is at most ``gtol``, its Newton decrement at most ``dtol F`` (None: not
    tested), or after ``max_iterations`` (an int or one per row).  ``pairs``: a pair table
    of W (``power.pair_products``) or None.  ``lower(r, z)``, given with ``dtol``: a lower
    bound on the minimal F of each given row; a row whose last decrement was at most
    ``sqrt(dtol) F`` also stops, before its next Newton system, once F is within ``dtol F``
    of it.  Returns ``(Z, F, gnorm, iterations, stop_reasons)``, one entry per row."""
    z = np.array(Z, dtype=float)  # a copy: rows are updated in place
    N = z.shape[0]
    out_z, out_F, out_gnorm = np.empty_like(z), np.empty(N), np.empty(N)
    iterations, reasons = np.zeros(N, dtype=int), np.full(N, "", dtype="U14")
    # the rows still descending, compacted: row i of each array is row rows[i] of the stack
    rows, it, budget = np.arange(N), np.zeros(N, dtype=int), np.full(N, max_iterations)
    near = np.zeros(N, dtype=bool)  # rows whose last decrement was at most sqrt(dtol) F

    def leave(done, why):
        """Write the rows marked ``done`` back, stopped for ``why``; the others' state."""
        done, keep = (slice(None), slice(0)) if done.all() else (done, ~done)
        at = rows[done]
        out_z[at], out_F[at], out_gnorm[at], iterations[at], reasons[at] = (
            z[done], F[done], gnorm[done], it[done], why)
        return [a[keep] for a in (rows, z, r, F, magnitude, grad, gnorm, it, budget, near)] + [
            u[keep] if np.ndim(u) == 2 else u]

    with np.errstate(over="ignore", invalid="ignore"):
        r, F, magnitude, grad, gnorm = _state(W, u, ell, z, p, lam)
        while rows.size:
            converged = gtol is not None and gnorm <= gtol
            if lower is not None and near.any():
                certified = np.zeros(rows.size, dtype=bool)
                certified[near] = F[near] - lower(r[near], z[near]) <= dtol * F[near]
                converged = converged | certified
            finite = np.isfinite(gnorm) & np.isfinite(F)
            spent = it >= budget
            go = ~(converged | spent) & finite
            if not go.all():
                why = np.where(converged, "converged", np.where(
                    finite, np.where(spent, "max_iterations", ""), "non_finite"))
                rows, z, r, F, magnitude, grad, gnorm, it, budget, near, u = leave(~go, why[~go])
                if not rows.size:
                    break
            step, slope = _newton_directions(W, r, grad, p, lam, pairs)
            if lower is not None:
                near = -slope <= math.sqrt(dtol) * F
            if dtol is not None and (small := -slope <= dtol * F).any():
                rows, z, r, F, magnitude, grad, gnorm, it, budget, near, u = leave(
                    small, "converged")
                if not rows.size:
                    break
                step, slope = step[~small], slope[~small]
            noise = _NOISE * magnitude
            pending, eta = slice(None), 1.0  # the first trial takes the whole stack
            for _ in range(_MAX_BACKTRACKS):
                cand = z[pending] + eta * step[pending]
                trial = _state(W, u[pending] if np.ndim(u) == 2 else u, ell, cand, p, lam)
                drop = trial[1] - F[pending]
                decrease = _ARMIJO * eta * slope[pending]
                accept = (drop <= decrease + noise[pending]) & (
                    (drop <= np.minimum(decrease, -noise[pending]))
                    | (trial[4] < (1.0 - _ARMIJO * eta) * gnorm[pending]))
                if isinstance(pending, slice):
                    if accept.all():
                        z, (r, F, magnitude, grad, gnorm) = cand, trial
                        it += 1
                        break
                    pending = np.arange(rows.size)
                hit = pending[accept]
                z[hit] = cand[accept]
                for state, value in zip((r, F, magnitude, grad, gnorm), trial):
                    state[hit] = value[accept]
                it[hit] += 1
                pending = pending[~accept]
                if not pending.size:
                    break
                eta *= _SHRINK
            else:
                stalled = np.zeros(rows.size, dtype=bool)
                stalled[pending] = True
                rows, z, r, F, magnitude, grad, gnorm, it, budget, near, u = leave(
                    stalled, "stalled")
    return out_z, out_F, out_gnorm, iterations, reasons


def _rescale(W, c, y, p):
    """c times ``(y . c / sum_k |t_k|^p)^{1/p}``, ``t = W c``, the homogeneity of order p;
    unscaled when either sum is not positive."""
    t = W @ c
    denom = float(_abs_pow(t, p).sum())
    num = float(y @ c)
    if denom > 0 and num > 0:
        c = c * (num / denom) ** (1.0 / p)
    return c


def _certifies_full_rank(G: np.ndarray, K: int) -> bool:
    """Eigenvalue certificate that the n x K design behind ``G = V V^T`` has rank n:
    ``lambda_min > 1e4 n K eps lambda_max`` (see README).  False proves nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        eigenvalues = np.linalg.eigvalsh(G)
    delta = 1e4 * G.shape[0] * K * np.finfo(float).eps
    return bool(eigenvalues[0] > delta * eigenvalues[-1])


def _l2_start(gram: FeatureGram, y):
    """``(c, certified)``: the solution of ``(V V^T) c = y`` and whether the eigenvalue
    certificate (:func:`_certifies_full_rank`) cleared V; the fit's one ``V V^T`` is freed
    on return."""
    G = gram.V @ gram.V.T
    if _certifies_full_rank(G, gram.K):
        return np.linalg.solve(G, y), True
    return np.linalg.lstsq(G, y, rcond=None)[0], False


def _continued_start(W, c, m, y, lam, max_iterations, gtol):
    """``(start, steps)``: the fit's start, continued from the l2 solution c through
    p = 3, ..., m-1 (see the module docstring), and the Newton steps spent on it."""
    start = _rescale(W, c, y, m)
    steps = 0
    for p in range(3, min(m, 3 + max_iterations)):
        Z, _, _, taken, _ = _minimize_even_power(
            W, 0.0, -y, _rescale(W, c, y, p)[None], p, 1, lam, gtol)
        c, steps = Z[0], steps + int(taken[0])
    c = _rescale(W, c, y, m)
    if _state(W, 0.0, -y, c, m, lam)[1] <= _state(W, 0.0, -y, start, m, lam)[1]:
        return c, steps
    return start, steps


def _solve(gram: FeatureGram, m: int, y, sigma: float, opts: SolverOptions | None):
    """Root of ``A_m c^{m-1} + lam c = y``; see the module docstring."""
    opts = opts or SolverOptions()
    m = require_even_order(m)
    y = np.asarray(y, dtype=float)
    if y.shape != (gram.n,):
        raise DimensionMismatch(f"expected y of length {gram.n}, got shape {y.shape}")
    lam = sigma * m / (2 * (m - 1))
    # an overflowed start is reported as non_finite rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        c, certified = _l2_start(gram, y)
        # lam > 0 makes the potential strictly convex whatever the rank; past a failed
        # certificate the SVD (``np.linalg.matrix_rank``) decides
        if not (lam or certified or int(np.linalg.matrix_rank(gram.V)) == gram.n):
            detail = (f"truncation K={gram.K} < n={gram.n}" if gram.K < gram.n
                      else "rank-deficient feature Gram")
            warnings.warn(f"singular design ({detail})", SingularDesignWarning, stacklevel=3)
        steps = 0
        if m > 2:
            c, steps = _continued_start(gram.V.T, c, m, y, lam, opts.max_iterations,
                                        opts.residual_tol)
        Z, _, gnorm, iterations, reasons = _minimize_even_power(
            gram.V.T, 0.0, -y, c[None], m, opts.max_iterations - steps, lam, opts.residual_tol)
        c, res = Z[0], float(gnorm[0])
        if lam:  # the misfit, not the root residual the core stopped on
            res = residual_norm(gram, m, c, y)
    return SolveReport(c, res, steps + int(iterations[0]), str(reasons[0]))


def solve_multilinear(gram: FeatureGram, m: int, y,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Solve ``A_m c^{m-1} = y`` by damped Newton on the convex potential; the report's
    ``converged`` certifies ``||A_m c^{m-1} - y||_2 <= residual_tol``, else its
    ``stop_reason`` says why the solve ended, with the last iterate."""
    return _solve(gram, m, y, 0.0, opts)


def solve_regularized(gram: FeatureGram, m: int, y, sigma: float,
                      opts: SolverOptions | None = None) -> SolveReport:
    """Minimize ``||A_m c^{m-1} - y||^2 + sigma A_m c^m`` by one Newton solve: ``converged``
    certifies ``||A_m c^{m-1} + lam c - y||_2 <= residual_tol``, ``lam = sigma m / (2(m-1))``;
    ``residual_norm`` is the misfit ``||A_m c^{m-1} - y||_2``."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return _solve(gram, m, y, sigma, opts)
