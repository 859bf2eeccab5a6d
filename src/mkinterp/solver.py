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
# Largest table of the nodes' pair products (2 MiB); past it Hessians are formed per row.
_PAIR_VALUES = 1 << 18


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
    """``(p-1) W^T diag(|r|^{p-2}) W``, PSD, as ``(p-1) Y^T Y``, into ``out`` if given.

    ``Y = diag(|r|^{(p-2)/2}) W``; numpy forms ``Y^T Y`` on one buffer by a
    symmetric rank-K update, which halves the flops of a general product
    and makes H exactly symmetric.  The row scale is :func:`_abs_pow`'s, so
    at integral ``(p-2)/2`` it is a product of the residuals.
    """
    Y = W * _abs_pow(r, (p - 2) / 2)[:, None]
    H = np.matmul(Y.T, Y, out=out)
    H *= p - 1
    return H


def pair_products(W):
    """``(M, index)``: the K x n(n+1)/2 table ``M[:, j] = W[:, a] W[:, b]`` over the
    pairs a <= b, and the n x n position of each pair (either order) in it; None
    when the table would exceed ``_PAIR_VALUES`` doubles.

    A Hessian is linear in its row weights, ``W^T diag(d) W = (d @ M)[index]``
    (the Khatri-Rao product of W with itself, halved by symmetry), so a stack of
    Hessians is one matrix product with M.
    """
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


def _newton_directions(W, R, G, rows, p, lam, pairs):
    """Newton steps of the given rows of a stack, residuals R (N x K) and gradients G (N x n).

    The Hessians go through in chunks of at most ``_HESSIAN_VALUES`` doubles,
    one stacked solve per chunk; if LAPACK rejects a chunk its rows are
    solved one at a time.  With ``pairs``, the table of :func:`pair_products`,
    a chunk's Hessians are one product with it (its packed products count in
    the chunk), else each row's is ``_hessian``.  A row whose Hessian stays
    singular, or whose Newton step is not a descent direction, steps along
    ``-grad``.
    """
    n = G.shape[1]
    steps = np.empty((rows.size, n))
    packed = 0 if pairs is None else pairs[0].shape[1]
    chunk = max(1, _HESSIAN_VALUES // (n * n + packed))
    for lo in range(0, rows.size, chunk):
        at, part = rows[lo:lo + chunk], steps[lo:lo + chunk]
        if pairs is None:
            H = np.empty((at.size, n, n))
            for i, h in zip(at, H):
                _hessian(W, R[i], p, out=h)
        else:
            M, index = pairs
            r = R[at]
            weights = _abs_pow(r, p - 2)
            weights *= p - 1
            H = (weights @ M)[:, index]
        # relative to H's scale, which tiny residuals (P_m near nodes) make tiny;
        # it also makes a zero Hessian (z = 0 with u = 0 and p > 2) solvable
        diagonal = H.reshape(len(H), n * n)[:, :: n + 1]
        scale = diagonal.sum(axis=1) / n
        diagonal += lam
        diagonal += _RIDGE_FLOOR * np.where(scale != 0, scale, 1.0)[:, None]
        try:
            part[:] = -np.linalg.solve(H, G[at, :, None])[..., 0]
        except np.linalg.LinAlgError:
            for h, g, step in zip(H, G[at], part):
                try:
                    step[:] = -np.linalg.solve(h, g)
                except np.linalg.LinAlgError:
                    step[:] = -g
    uphill = ~(np.vecdot(G[rows], steps) < 0)
    if uphill.any():
        steps[uphill] = -G[rows[uphill]]
    return steps


def _potential(W, u, ell, z, p, lam):
    """``(r, F, magnitude)`` at each row of the stack z (or at one vector z):
    ``r = u + W z``, the core's F and the summed magnitude of F's terms
    (the scale of its rounding noise)."""
    r = z @ W.T + u
    power_sum = _abs_pow(r, p).sum(axis=-1) / p
    if lam:
        power_sum += 0.5 * lam * np.vecdot(z, z)
    if ell is None:
        return r, power_sum, power_sum
    return r, power_sum + np.vecdot(z, ell), power_sum + np.vecdot(np.abs(z), np.abs(ell))


def _gradient(W, ell, r, z, p, lam):
    """The core's gradient at each row of z, from its residual ``r = u + W z``."""
    grad = (r * _abs_pow(r, p - 2)) @ W
    if lam:
        grad = grad + lam * z
    return grad if ell is None else grad + ell


def _minimize_even_power(W, u, ell, Z, p, max_iterations, lam=0.0, gtol=None, dtol=None,
                         pairs=None):
    """Damped Newton on ``F(z) = (1/p) sum_k |u + W z|_k^p + ell . z + (lam/2)|z|^2``.

    ``W`` is K x n and shared by the rows of the (N, n) stack Z, one
    problem per row, with u an (N, K) stack or 0.  ``ell`` is an n-vector
    or None for zero, p a real exponent >= 2 (the potential is an even
    function of the residual), ``lam >= 0``.  The gradient is ``W^T
    (sign(r) |r|^{p-1})`` plus the linear terms.  Every power of r is :func:`_abs_pow`'s,
    so the iterates do not depend on whether p is given as an int or a float.

    The rows descend in lock-step, their Newton steps formed together, each
    row with its own step length, backtracks, fallbacks, iteration count
    and stop reason.  A row converges when its gradient norm is at most
    ``gtol``, tested before the Newton step is formed (a stop on the
    gradient norm costs no Hessian), or when its Newton decrement ``-grad .
    step`` is at most ``dtol F``; a tolerance left at None is never tested.
    ``max_iterations`` is an int or one budget per row.  ``pairs``, the
    :func:`pair_products` of W, forms the Newton Hessians of a chunk of rows
    in one matrix product.  Returns ``(Z, F, gnorm, iterations,
    stop_reasons)``, one entry per row.

    The line search tests the difference ``F(cand) - F`` (the sum
    ``F + c eta slope`` rounds back to F) and trusts a fall only beyond F's
    rounding noise, relative to the summed magnitude of its terms.  Within
    the noise a candidate must lower the gradient norm strictly, by the
    Armijo fraction (the approximate-Wolfe idea of Hager and Zhang, SIAM J.
    Optim. 16(1), 2005).  Overflow fails the line search or ends the row.
    """
    z = np.array(Z, dtype=float)  # a copy: rows are updated in place
    N = z.shape[0]
    budget = np.broadcast_to(max_iterations, N)
    iterations, reasons = np.zeros(N, dtype=int), np.full(N, "", dtype="U14")

    with np.errstate(over="ignore", invalid="ignore"):
        r, F, magnitude = _potential(W, u, ell, z, p, lam)
        grad = _gradient(W, ell, r, z, p, lam)
        gnorm = np.sqrt(np.vecdot(grad, grad))
        rows = np.arange(N)  # the rows still descending
        while rows.size:
            g, f = gnorm[rows], F[rows]
            converged = gtol is not None and g <= gtol
            finite = np.isfinite(g) & np.isfinite(f)
            spent = iterations[rows] >= budget[rows]
            go = ~(converged | spent) & finite
            if not go.all():
                reasons[rows] = np.where(converged, "converged", np.where(
                    finite, np.where(spent, "max_iterations", ""), "non_finite"))
                rows, g, f = rows[go], g[go], f[go]
                if not rows.size:
                    break
            step = _newton_directions(W, r, grad, rows, p, lam, pairs)
            slope = np.vecdot(grad[rows], step)
            small = dtol is not None and -slope <= dtol * f
            if np.any(small):
                reasons[rows[small]] = "converged"
                go = ~small
                rows, g, step, slope = rows[go], g[go], step[go], slope[go]
            noise = _NOISE * magnitude[rows]
            pending = np.arange(rows.size)  # positions in rows still searching
            eta = 1.0
            for _ in range(_MAX_BACKTRACKS):
                at = rows[pending]
                cand = z[at] + eta * step[pending]
                cand_r, cand_F, cand_magnitude = _potential(
                    W, u if np.ndim(u) < 2 else u[at], ell, cand, p, lam)
                cand_grad = _gradient(W, ell, cand_r, cand, p, lam)
                cand_gnorm = np.sqrt(np.vecdot(cand_grad, cand_grad))
                drop = cand_F - F[at]
                decrease = _ARMIJO * eta * slope[pending]
                accept = (drop <= decrease + noise[pending]) & (
                    (drop <= np.minimum(decrease, -noise[pending]))
                    | (cand_gnorm < (1.0 - _ARMIJO * eta) * g[pending]))
                hit = at[accept]
                z[hit], r[hit], F[hit], magnitude[hit] = (
                    cand[accept], cand_r[accept], cand_F[accept], cand_magnitude[accept])
                grad[hit], gnorm[hit] = cand_grad[accept], cand_gnorm[accept]
                iterations[hit] += 1
                pending = pending[~accept]
                if not pending.size:
                    break
                eta *= _SHRINK
            if pending.size:
                reasons[rows[pending]] = "stalled"
                go = np.ones(rows.size, dtype=bool)
                go[pending] = False
                rows = rows[go]
    return z, F, gnorm, iterations, reasons


def _rescale(W, c, y, p):
    """c times ``(y . c / sum_k |t_k|^p)^{1/p}``, ``t = W c``, the homogeneity of order p.

    Left unscaled when either sum is not positive.
    """
    t = W @ c
    denom = float(_abs_pow(t, p).sum())
    num = float(y @ c)
    if denom > 0 and num > 0:
        c = c * (num / denom) ** (1.0 / p)
    return c


def _certifies_full_rank(G: np.ndarray, K: int) -> bool:
    """Eigenvalue certificate that the n x K design behind ``G = V V^T`` has rank n.

    True when the eigenvalues of G satisfy ``lambda_min > delta lambda_max``
    with ``delta = 1e4 n K eps``.  The rounding of forming and diagonalizing
    ``V V^T`` moves an eigenvalue by about ``n K eps lambda_max``, four
    orders of magnitude less, so a certified V has full row rank and cond(V)
    below about ``1/sqrt(delta)``.  False proves nothing: near-singular
    designs, and an overflowed Gram (non-finite eigenvalues), are left to
    the SVD.
    """
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
    if _potential(W, 0.0, -y, c, m, lam)[1] <= _potential(W, 0.0, -y, start, m, lam)[1]:
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
    ``||A_m c^{m-1} - y||_2``.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return _solve(gram, m, y, sigma, opts)
