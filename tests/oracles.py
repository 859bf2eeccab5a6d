"""Brute-force references that the tests compare the package against.

None of these is fast or meant for use outside the tests: a dense n^m
tensor with an entry budget, the kernels Phi_2 and Phi_m formed point by
point, interpolant evaluation through the tensor basis, the closed form of
P_2 through ``A_2^{-1}``, a grid search for P_m, a Newton for P_m
polished in long double, the dual pairing as a dot product, a fit started
from c = 0 rather than from the package's l2 start, and sampling checks
that can falsify (never certify) the monotonicity and semi-definiteness
of the tensor, a row-by-row read of the CLI's CSV input, the graded index
tables enumerated by generators, the sum plan grouped by a dict, a
custom table's features, sums and adjoint by their own formulas, and the
damped-Newton core as it was before it compacted its rows.  The package
computes each of these
quantities by one route only; these are the second routes the tests hold
it to.  The summability diagnostic of a truncation lives here too, since
no package code calls it.
"""

import csv
import math
import string
from dataclasses import dataclass
from itertools import chain, count as _naturals, islice, product as _cartesian

import numpy as np

from mkinterp.commands import CliInputError
from mkinterp.exceptions import DimensionMismatch
from mkinterp.features import (TABLE_TOLERANCE, FeatureModel, _table, eval_features,
                               point_blocks, require_even_order)
from mkinterp.interpolant import Interpolant, NodeSet
from mkinterp import solver as _solver
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
    c, _, res, iterations, reasons = _minimize_even_power(
        gram.V.T, 0.0, -y, np.zeros((1, gram.n)), m, max_iterations, gtol=residual_tol)
    return SolveReport(c[0], float(res[0]), int(iterations[0]), str(reasons[0]))


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


def scan_points_csv(path: str, expect_values: bool, allow_empty: bool = False):
    """What ``commands.read_points_csv`` returns or raises, read by the ``csv``
    module one row at a time: each row is checked and converted alone, and
    the first bad row raises CliInputError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise CliInputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        has_values = header[-1:] == ["y"]
        coord_names = header[:-1] if has_values else header
        d = len(coord_names)
        if d < 1 or coord_names != [f"x{i + 1}" for i in range(d)]:
            raise CliInputError(f"{path}: header must be x1,...,xd[,y]")
        if expect_values and not has_values:
            raise CliInputError(f"{path}: missing y column")
    table = _scan(path, len(header))
    if table.shape[0] == 0 and not allow_empty:
        raise CliInputError(f"{path}: no data rows")
    if has_values:
        return np.ascontiguousarray(table[:, :d]), table[:, d].copy()
    return table, None


def _scan(path: str, width: int):
    """The table of a CSV body read row by row by the ``csv`` module; raises
    CliInputError naming the line of the first bad row."""
    table = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        for lineno, row in enumerate(rows, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise CliInputError(f"{path}:{lineno}: expected {width} fields")
            try:
                nums = [float(cell) for cell in row]
            except ValueError:
                raise CliInputError(f"{path}:{lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in nums):
                raise CliInputError(f"{path}:{lineno}: non-finite field")
            table.append(nums)
    return np.array(table, dtype=float).reshape(len(table), width)


def _compositions(total, parts):
    """Weak compositions of `total` into `parts`, decreasing-lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _graded(dim):
    """Weak compositions into `dim` parts by increasing total, each total
    in the order of :func:`_compositions`; a lazy, endless stream."""
    return chain.from_iterable(_compositions(total, dim) for total in _naturals())


def graded_multi_indices(dim: int, count: int) -> np.ndarray:
    """``features.graded_multi_indices`` by generators, one index at a time."""
    indices = list(islice(_graded(dim), max(0, count)))
    return np.asarray(indices, int).reshape(-1, dim)


def trig_indices(dim: int, count: int) -> tuple:
    """``features._trig_indices`` by generators: each multi-index of
    :func:`_graded` expanded by ``itertools.product`` of its cosine/sine choices."""
    terms = chain.from_iterable(
        _cartesian(*[[(f, 1), (f, 2)] if f else [(0, 0)] for f in alpha])
        for alpha in _graded(dim))
    table = np.asarray(list(islice(terms, max(0, count))), int).reshape(-1, dim, 2)
    return table[..., 0], table[..., 1]


def sum_plan(model: FeatureModel) -> tuple:
    """``FeatureModel._sum_plan`` with the prefixes numbered by a dict of tuples."""
    gathers = np.stack([factors[-1] for factors in model.coordinate_factors], axis=1)
    ids = {}
    prefix_of = [ids.setdefault(tuple(g[:-1]), len(ids)) for g in gathers.tolist()]
    prefixes = np.array(list(ids), dtype=int).reshape(len(ids), model.domain.dim - 1)
    widths = [_table(model, j, np.empty(0)).shape[1] for j in range(model.domain.dim)]
    return (prefixes, (gathers[:, -1], np.array(prefix_of)), (widths[-1], len(ids)),
            sum(widths) + 2 * len(ids))


def custom_rows(model: FeatureModel, X) -> np.ndarray:
    """The custom-table row of each in-box point of X, one point at a time:
    the first table point within ``TABLE_TOLERANCE`` of it, clamped onto the box."""
    X = np.clip(np.reshape(X, (-1, model.domain.dim)), model.domain.lower, model.domain.upper)
    hits = [np.flatnonzero(np.all(np.abs(model.table_points - x) <= TABLE_TOLERANCE, axis=1))[0]
            for x in X]
    return model.table_features[np.array(hits, dtype=int)]


def custom_contractions(model: FeatureModel, X, alpha, c) -> tuple:
    """``(eval_features, _feature_sum, _feature_adjoint)`` of a custom table at
    the rows of X by the family's own branches, from before it went through the
    sum plan: the looked-up rows times ``sqrt(w)``; ``rows @ beta`` per block,
    ``beta = sqrt(w) alpha``; ``sqrt(w) * sum c[rows] @ rows`` over the blocks.
    The blocks are :func:`point_blocks` at the sum plan's width, because a
    matrix-vector product's bits depend on a row's place in its block."""
    rows, root = custom_rows(model, X), np.sqrt(model.weights)
    sums, G = np.empty(rows.shape[0]), np.zeros(model.truncation)
    for block in point_blocks(model, rows.shape[0], model._sum_plan[-1]):
        sums[block] = rows[block] @ (root * alpha)
        G += c[block] @ rows[block]
    return rows * root, sums, root * G


def newton_directions_reference(W, R, G, rows, p, lam, pairs):
    """The Newton core's directions as they were before its rows were compacted:
    the steps of the given ``rows`` of the full stacks R and G, gathered per chunk, with
    ``lam`` added to every diagonal; the slopes are left to the caller."""
    n = G.shape[1]
    steps = np.empty((rows.size, n))
    packed = 0 if pairs is None else pairs[0].shape[1]
    chunk = max(1, _solver._HESSIAN_VALUES // (n * n + packed))
    for lo in range(0, rows.size, chunk):
        at, part = rows[lo:lo + chunk], steps[lo:lo + chunk]
        if pairs is None:
            H = np.empty((at.size, n, n))
            for i, h in zip(at, H):
                _solver._hessian(W, R[i], p, out=h)
        else:
            M, index = pairs
            r = R[at]
            weights = _solver._abs_pow(r, p - 2)
            weights *= p - 1
            H = (weights @ M)[:, index]
        # relative to H's scale, which tiny residuals (P_m near nodes) make tiny;
        # it also makes a zero Hessian (z = 0 with u = 0 and p > 2) solvable
        diagonal = H.reshape(len(H), n * n)[:, :: n + 1]
        scale = diagonal.sum(axis=1) / n
        diagonal += lam
        diagonal += _solver._RIDGE_FLOOR * np.where(scale != 0, scale, 1.0)[:, None]
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


def minimize_even_power_reference(W, u, ell, Z, p, max_iterations, lam=0.0, gtol=None,
                                  dtol=None, pairs=None, lower=None):
    """:func:`mkinterp.solver._minimize_even_power` as it was before its rows were
    compacted: the reference the compacted core is held to bit for bit.  The state of
    every row stays in the full (N, ...) arrays; each round gathers the rows still
    descending by an index array and each line-search trial scatters its accepted rows
    back; the slopes are formed again from the gathered gradients."""
    z = np.array(Z, dtype=float)  # a copy: rows are updated in place
    N = z.shape[0]
    budget = np.broadcast_to(max_iterations, N)
    iterations, reasons = np.zeros(N, dtype=int), np.full(N, "", dtype="U14")
    near = np.zeros(N, dtype=bool)  # rows whose last decrement was at most sqrt(dtol) F

    with np.errstate(over="ignore", invalid="ignore"):
        r, F, magnitude, grad, gnorm = _solver._state(W, u, ell, z, p, lam)
        rows = np.arange(N)  # the rows still descending
        while rows.size:
            g, f = gnorm[rows], F[rows]
            converged = gtol is not None and g <= gtol
            if lower is not None and near[rows].any():
                at = rows[near[rows]]
                certified = np.zeros(N, dtype=bool)
                certified[at] = F[at] - lower(r[at], z[at]) <= dtol * F[at]
                converged = converged | certified[rows]
            finite = np.isfinite(g) & np.isfinite(f)
            spent = iterations[rows] >= budget[rows]
            go = ~(converged | spent) & finite
            if not go.all():
                reasons[rows] = np.where(converged, "converged", np.where(
                    finite, np.where(spent, "max_iterations", ""), "non_finite"))
                rows, g, f = rows[go], g[go], f[go]
                if not rows.size:
                    break
            step = newton_directions_reference(W, r, grad, rows, p, lam, pairs)
            slope = np.vecdot(grad[rows], step)
            if lower is not None:
                near[rows] = -slope <= math.sqrt(dtol) * f
            small = dtol is not None and -slope <= dtol * f
            if np.any(small):
                reasons[rows[small]] = "converged"
                go = ~small
                rows, g, step, slope = rows[go], g[go], step[go], slope[go]
            noise = _solver._NOISE * magnitude[rows]
            pending = np.arange(rows.size)  # positions in rows still searching
            eta = 1.0
            for _ in range(_solver._MAX_BACKTRACKS):
                at = rows[pending]
                cand = z[at] + eta * step[pending]
                cand_r, cand_F, cand_magnitude, cand_grad, cand_gnorm = _solver._state(
                    W, u if np.ndim(u) < 2 else u[at], ell, cand, p, lam)
                drop = cand_F - F[at]
                decrease = _solver._ARMIJO * eta * slope[pending]
                accept = (drop <= decrease + noise[pending]) & (
                    (drop <= np.minimum(decrease, -noise[pending]))
                    | (cand_gnorm < (1.0 - _solver._ARMIJO * eta) * g[pending]))
                hit = at[accept]
                z[hit], r[hit], F[hit], magnitude[hit] = (
                    cand[accept], cand_r[accept], cand_F[accept], cand_magnitude[accept])
                grad[hit], gnorm[hit] = cand_grad[accept], cand_gnorm[accept]
                iterations[hit] += 1
                pending = pending[~accept]
                if not pending.size:
                    break
                eta *= _solver._SHRINK
            if pending.size:
                reasons[rows[pending]] = "stalled"
                go = np.ones(rows.size, dtype=bool)
                go[pending] = False
                rows = rows[go]
    return z, F, gnorm, iterations, reasons
