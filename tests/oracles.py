"""Brute-force references that the tests compare the package against.

None of these is fast or meant for use outside the tests: a dense n^m
tensor with an entry budget, the kernels Phi_2 and Phi_m formed point by
point, interpolant evaluation through the tensor basis, the closed form of
P_2 through ``A_2^{-1}``, a grid search for P_m, a Newton for P_m
polished in long double, the dual pairing as a dot product, a fit started
from c = 0 rather than from the package's l2 start, and sampling checks
that can falsify (never certify) the monotonicity and semi-definiteness
of the tensor.  The package computes each of these
quantities by one route only; these are the second routes the tests hold
it to.  The summability diagnostic of a truncation lives here too, since
no package code calls it.
"""

import string
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from mkinterp.exceptions import DimensionMismatch
from mkinterp.features import FeatureModel, eval_features, point_blocks, require_even_order
from mkinterp.interpolant import Interpolant, NodeSet
from mkinterp.solver import SolveReport, _minimize_even_power
from mkinterp.tensors import FeatureGram, contract_m, contract_m_minus_1

DENSE_ENTRY_BUDGET = 10_000_000


class BudgetExceeded(ValueError):
    """A dense n^m tensor would exceed the configured entry budget."""


class SingularGram(ValueError):
    """The n x n Gram matrix is numerically singular."""


@dataclass(frozen=True)
class DenseTensor:
    """Explicit symmetric n^m tensor; test oracle only, never serialized."""

    m: int
    n: int
    entries: np.ndarray

    def contract_m_minus_1(self, c) -> np.ndarray:
        """Brute-force ``A_m c^{m-1}``: explicit sum over all index tuples."""
        c = np.asarray(c, dtype=float)
        letters = string.ascii_lowercase[: self.m]
        spec = letters + "," + ",".join(letters[1:]) + "->" + letters[0]
        return np.einsum(spec, self.entries, *([c] * (self.m - 1)))

    def contract_m(self, c) -> float:
        c = np.asarray(c, dtype=float)
        letters = string.ascii_lowercase[: self.m]
        spec = letters + "," + ",".join(letters) + "->"
        return float(np.einsum(spec, self.entries, *([c] * self.m)))


def dense_tensor(gram: FeatureGram, m: int,
                 budget: int = DENSE_ENTRY_BUDGET) -> DenseTensor:
    """Materialize ``A_m`` as an explicit array of n^m entries."""
    require_even_order(m)
    n = gram.n
    if n ** m > budget:
        raise BudgetExceeded(f"{n}^{m} entries exceed the budget of {budget}")
    entries = np.zeros((n,) * m)
    for k in range(gram.K):
        col = gram.V[:, k]
        block = col
        for _ in range(m - 1):
            block = np.multiply.outer(block, col)
        entries += block
    return DenseTensor(m=m, n=n, entries=entries)


def eval_kernel2(model: FeatureModel, z1, z2) -> float:
    """Base kernel ``Phi2(z1, z2) = sum_k phi_k(z1) phi_k(z2)``.

    Uses the same reduction order as :func:`eval_multikernel` so the two
    agree exactly at m = 2.
    """
    return float(np.sum(eval_features(model, z1) * eval_features(model, z2)))


def eval_multikernel(model: FeatureModel, m: int, points) -> float:
    """Order-m multi-kernel ``sum_k prod_i phi_k(z_i)``.

    Symmetric under any permutation of the m arguments; reduces to
    ``eval_kernel2`` at m = 2.
    """
    require_even_order(m)
    points = list(points)
    if len(points) != m:
        raise DimensionMismatch(f"expected {m} points, got {len(points)}")
    feats = np.stack([eval_features(model, z) for z in points])
    return float(np.sum(np.prod(feats, axis=0)))


def evaluate_tensor_basis(s: Interpolant, x) -> float:
    """Evaluate via ``B_m(x) c^{m-1}``: the O(n^{m-1}) oracle form.

    Sums the multi-kernel over all (m-1)-tuples of nodes; intended only for
    small n in tests.
    """
    c = s.coefficients
    pts = s.nodes.points
    total = 0.0
    for idx in _cartesian(range(s.nodes.n), repeat=s.order - 1):
        weight = float(np.prod([c[i] for i in idx]))
        total += weight * eval_multikernel(
            s.model, s.order, [x] + [pts[i] for i in idx]
        )
    return total


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


def zero_start_solve(gram: FeatureGram, m: int, y, residual_tol: float = 1e-10,
                     max_iterations: int = 200) -> SolveReport:
    """Fit ``A_m c^{m-1} = y`` by the package's Newton core started from c = 0.

    The package starts every fit from its l2 solution; the potential is
    strictly convex on a full-row-rank design, so a second start must reach
    the same root.  No rank test, no warning, no regularization.
    """
    y = np.asarray(y, dtype=float)
    c, _, res, iterations, reason, trace = _minimize_even_power(
        gram.V.T, 0.0, -y, np.zeros(gram.n), m, max_iterations,
        lambda gnorm, F, decrement: gnorm <= residual_tol)
    return SolveReport(c, res, iterations, reason, trace)


def power_function_dense_oracle(model: FeatureModel, nodes: NodeSet, m: int, x,
                                grid: int = 41, rounds: int = 6,
                                half_width: float = 2.0) -> float:
    """Brute-force P_m for n <= 2 nodes: zoomed grid search over theta.

    Test oracle only; scans an (n-dimensional) grid around the l2 warm
    start and refines it `rounds` times.
    """
    V = FeatureGram.from_model(model, nodes.points).V
    Vt = V.T
    b = eval_features(model, x)
    center, *_ = np.linalg.lstsq(Vt, b, rcond=None)
    width = half_width
    best = None
    for _ in range(rounds):
        axes = [np.linspace(center[i] - width, center[i] + width, grid)
                for i in range(nodes.n)]
        best = None
        for combo in _cartesian(*axes):
            theta = np.asarray(combo)
            q = float(np.sum((b - Vt @ theta) ** m))
            if best is None or q < best[0]:
                best = (q, theta)
        center = best[1]
        width *= 2.0 / (grid - 1)
    return float(max(best[0], 0.0) ** (1.0 / m))


def _damped_newton(V, B, theta, m, max_iterations):
    """Damped Newton on ``q = sum_k (B[p, k] - (theta V)[p, k])^m`` for each row p.

    Residuals, q and the gradient are formed in the float type of ``V``,
    ``B`` and ``theta``; the Hessian and the solve for the Newton step in
    float64 (BLAS products, LAPACK), which moves only how fast the descent
    goes.  A step is taken only if it lowers q; a row stops once no halving
    of its Newton step does, so the ridge on the Hessian slows the descent
    but does not move where it ends.  Returns theta and q.
    """
    def objective(theta, rows):
        r = B[rows] - theta @ V
        return r, np.sum(r ** m, axis=1)

    V64 = V.astype(float)
    theta = theta.copy()
    r, q = objective(theta, slice(None))
    active = np.ones(len(q), dtype=bool)
    for _ in range(max_iterations):
        if not active.any():
            break
        ra = r[active]
        grad = -m * (ra ** (m - 1)) @ V.T
        hess = m * (m - 1) * ((ra.astype(float) ** (m - 2))[:, None, :] * V64) @ V64.T
        # a ridge keeps every pivot positive where nodes reproduce many
        # features exactly (H nearly singular)
        diagonal = np.einsum("pii->pi", hess)
        diagonal += 1e-15 * diagonal.mean(axis=1, keepdims=True)
        step = np.linalg.solve(hess, -grad.astype(float)[..., None])[..., 0]
        pending, step, eta = np.flatnonzero(active), step.astype(V.dtype), V.dtype.type(1.0)
        for _ in range(60):
            cand = theta[pending] + eta * step
            cand_r, cand_q = objective(cand, pending)
            better = cand_q < q[pending]
            hit = pending[better]
            theta[hit], r[hit], q[hit] = cand[better], cand_r[better], cand_q[better]
            pending, step = pending[~better], step[~better]
            if not pending.size:
                break
            eta /= 2
        active[pending] = False
    return theta, q


def power_values_long_double(model: FeatureModel, nodes: NodeSet, m: int,
                             points, max_iterations: int = 200) -> np.ndarray:
    """P_m at each row of ``points`` by damped Newton, polished in long double.

    Minimizes ``q = sum_k (phi_k(x) - sum_i theta_i phi_k(x_i))^m`` from
    the l2 start, first in float64, then from there with residuals, q and
    gradients in ``np.longdouble`` (64-bit significand on x86-64) until no
    halving of a Newton step lowers q (see :func:`_damped_newton`).  The
    features themselves are the package's float64 values.
    """
    V = eval_features(model, nodes.points)
    B = eval_features(model, np.atleast_2d(np.asarray(points, dtype=float)))
    start, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
    theta, _ = _damped_newton(V, B, start.T, m, max_iterations)
    V, B = V.astype(np.longdouble), B.astype(np.longdouble)
    _, q = _damped_newton(V, B, theta.astype(np.longdouble), m, max_iterations)
    return np.maximum(q, 0.0) ** (np.longdouble(1.0) / m)


@dataclass(frozen=True)
class SummabilityReport:
    max_abs_sum: float
    tail_ratio: float


def check_summability(model: FeatureModel, grid) -> SummabilityReport:
    """Diagnose how faithful the truncation is on a sample grid.

    ``max_abs_sum`` is the grid maximum of ``sum_k |phi_k(x)|``;
    ``tail_ratio`` is the worst ratio of the second-half tail to the whole
    sum (0 for a single feature).  Small tail ratios indicate the retained
    features dominate the discarded ones.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    X = np.asarray(grid, dtype=float).reshape(len(grid), -1)
    K = model.truncation
    max_abs_sum = 0.0
    tail_ratio = 0.0
    for rows in point_blocks(model, X.shape[0]):
        a = np.abs(eval_features(model, X[rows]))
        total = a.sum(axis=1)
        max_abs_sum = max(max_abs_sum, float(total.max()))
        positive = total > 0
        if K > 1 and np.any(positive):
            tails = a[positive, K // 2:].sum(axis=1) / total[positive]
            tail_ratio = max(tail_ratio, float(tails.max()))
    return SummabilityReport(max_abs_sum=max_abs_sum, tail_ratio=tail_ratio)


def dual_pairing(alpha, beta) -> float:
    """Dual bilinear product of coefficient sequences (plain dot product)."""
    return float(np.asarray(alpha, float) @ np.asarray(beta, float))


@dataclass(frozen=True)
class MonotoneReport:
    """Sampled strict-monotonicity gaps of ``c -> A_m c^{m-1}``."""

    min_gap: float
    witnesses: list


def check_strict_monotone(gram: FeatureGram, m: int, trials: int,
                          rng_seed: int) -> MonotoneReport:
    """Sample random pairs c != d and record the smallest monotonicity gap.

    A positive ``min_gap`` is expected whenever the Gram has full row rank;
    any nonpositive gap is returned as a witness.  Sampling can falsify
    strict positive definiteness but never certify it.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(rng_seed)
    min_gap = np.inf
    witnesses = []
    for _ in range(trials):
        c = rng.standard_normal(gram.n)
        d = rng.standard_normal(gram.n)
        while np.array_equal(c, d):
            d = rng.standard_normal(gram.n)
        gap = float(
            (c - d) @ (contract_m_minus_1(gram, m, c) - contract_m_minus_1(gram, m, d))
        )
        if gap < min_gap:
            min_gap = gap
        if gap <= 0.0:
            witnesses.append((c, d, gap))
    return MonotoneReport(min_gap=min_gap, witnesses=witnesses)


@dataclass(frozen=True)
class SemiPDReport:
    min_value: float


def check_semi_pd(gram: FeatureGram, m: int, trials: int,
                  rng_seed: int) -> SemiPDReport:
    """Sample ``A_m c^m`` over random c; even m must keep it nonnegative."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(rng_seed)
    values = [contract_m(gram, m, rng.standard_normal(gram.n)) for _ in range(trials)]
    return SemiPDReport(min_value=float(min(values)))
