"""Brute-force references that the tests compare the package against.

None of these is fast or meant for use outside the tests: a dense n^m
tensor with an entry budget, interpolant evaluation through the tensor
basis, a grid search for P_m, and a long-double Newton for P_m.
"""

import string
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from mkinterp.features import FeatureModel, eval_features, eval_multikernel, require_even_order
from mkinterp.interpolant import Interpolant, NodeSet
from mkinterp.tensors import FeatureGram

DENSE_ENTRY_BUDGET = 10_000_000


class BudgetExceeded(ValueError):
    """A dense n^m tensor would exceed the configured entry budget."""


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


def _solve_spd(H, g):
    """Solve ``H[p] s[p] = g[p]`` for a stack of SPD matrices, any float type.

    Gaussian elimination without pivoting, which is stable for SPD systems;
    numpy's LAPACK routines take no long double.
    """
    H, g = H.copy(), g.copy()
    n = g.shape[1]
    for j in range(n):
        factor = H[:, j + 1:, j] / H[:, j, j, None]
        H[:, j + 1:, j:] -= factor[:, :, None] * H[:, None, j, j:]
        g[:, j + 1:] -= factor * g[:, j, None]
    s = np.empty_like(g)
    for j in reversed(range(n)):
        s[:, j] = (g[:, j] - np.sum(H[:, j, j + 1:] * s[:, j + 1:], axis=1)) / H[:, j, j]
    return s


def power_values_long_double(model: FeatureModel, nodes: NodeSet, m: int,
                             points, max_iterations: int = 200) -> np.ndarray:
    """P_m at each row of ``points`` by damped Newton in long double.

    Minimizes ``q = sum_k (phi_k(x) - sum_i theta_i phi_k(x_i))^m`` from
    the l2 start, with every sum, Hessian and solve in ``np.longdouble``
    (64-bit significand on x86-64).  A step is taken only if it lowers q;
    a point stops once no halving of its Newton step does, so the ridge on
    the Hessian slows the descent but does not move where it ends.  The
    features themselves are the package's float64 values.
    """
    V = eval_features(model, nodes.points)
    B = eval_features(model, np.atleast_2d(np.asarray(points, dtype=float)))
    start, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
    V, B = V.astype(np.longdouble), B.astype(np.longdouble)
    theta = start.T.astype(np.longdouble)

    def objective(theta, rows):
        r = B[rows] - theta @ V
        return r, np.sum(r ** m, axis=1)

    r, q = objective(theta, slice(None))
    active = np.ones(len(q), dtype=bool)
    for _ in range(max_iterations):
        if not active.any():
            break
        ra = r[active]
        grad = -m * (ra ** (m - 1)) @ V.T
        hess = m * (m - 1) * np.einsum("pk,ik,jk->pij", ra ** (m - 2), V, V)
        # a ridge far above long-double rounding keeps every pivot positive
        # where nodes reproduce many features exactly (H nearly singular)
        diagonal = np.einsum("pii->pi", hess)
        diagonal += 1e-15 * diagonal.mean(axis=1, keepdims=True)
        pending, step = np.flatnonzero(active), _solve_spd(hess, -grad)
        eta = np.longdouble(1.0)
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
    return np.maximum(q, 0.0) ** (np.longdouble(1.0) / m)
