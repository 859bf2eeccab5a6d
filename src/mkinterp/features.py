"""Truncated feature expansions and the multi-kernels built from them.

A feature model holds K features ``phi_k = sqrt(w_k) b_k`` with positive
weights on a compact box: monomials in graded-lexicographic order
(``power``), tensorized Fourier terms by increasing total frequency, cosine
before sine (``trig``), or values tabulated at fixed points (``custom``).
The order-m multi-kernel is ``Phi_m(z1, ..., zm) = sum_k prod_i phi_k(z_i)``.
This module builds the models and evaluates the features, and the sums
``sum_k alpha_k phi_k``, at batches of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from .exceptions import (
    DimensionMismatch,
    OddOrderUnsupported,
    PointOutsideDomain,
    UntabulatedPoint,
)

# Points within this distance of a face are clamped onto it.
FACE_TOLERANCE = 1e-12

# Matching tolerance for custom-table point lookup.
TABLE_TOLERANCE = 1e-9

# Batched evaluation works through blocks of about this many feature values
# (0.5 MiB of float64), so its temporaries stay small whatever N is.
BLOCK_VALUES = 1 << 16

# Largest truncation K a family enumerates: its index tables hold about K ints
# (8 MiB) per coordinate, and a larger K is refused before any is built.
MAX_TRUNCATION = 1 << 20


@dataclass(frozen=True)
class Domain:
    """Compact box ``[lower_1, upper_1] x ... x [lower_d, upper_d]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("domain bounds must be vectors of equal length")
        if not lower.size:
            raise ValueError("domain must have at least one dimension")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.all(np.isfinite(upper - lower))  # inf - inf is NaN
        if not finite:
            raise ValueError("domain bounds and widths must be finite")
        if not np.all(lower < upper):
            raise ValueError("domain box must have nonempty interior")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, points) -> np.ndarray:
        """In-box test of a point (d,) or of each row of an (N, d) array.

        Coordinates up to ``FACE_TOLERANCE`` beyond a face count as inside.
        """
        x = np.asarray(points, dtype=float)
        return np.all(
            (x >= self.lower - FACE_TOLERANCE) & (x <= self.upper + FACE_TOLERANCE),
            axis=-1,
        )

    def _checked(self, x) -> np.ndarray:
        """``x`` as a float array; PointOutsideDomain at the first point outside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.dim:
            shape = f"shape {x.shape}" if x.ndim > 2 else f"dimension {x.shape[-1]}"
            raise PointOutsideDomain(f"point has {shape}, domain has dimension {self.dim}")
        inside = self.contains(x)
        if not np.all(inside):
            bad = x if x.ndim == 1 else x[np.argmin(inside)]
            raise PointOutsideDomain(f"point {bad.tolist()} outside the domain box")
        return x


def domain_grid(domain: Domain, per_dim: int) -> np.ndarray:
    """Uniform tensor grid over the box, endpoints included, row-major."""
    per_dim = _integer("grid points per dimension", per_dim)
    if per_dim < 2:
        raise ValueError(f"grid must be at least 2 points per dimension, got {per_dim}")
    axes = [np.linspace(domain.lower[j], domain.upper[j], per_dim)
            for j in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _graded(dim, count, size) -> np.ndarray:
    """Weak compositions into `dim` parts, (M, dim), by increasing total, each
    total in decreasing-lex order, up to the first total at which the sum of
    ``size(total)`` reaches the int `count`; ValueError past ``MAX_TRUNCATION``."""
    if count > MAX_TRUNCATION:
        raise ValueError(f"truncation K must be at most {MAX_TRUNCATION}, got {count}")
    top, have = -1, 0
    while have < count:
        top, have = top + 1, have + size(top + 1)
    bars = np.fromiter(chain.from_iterable(combinations(range(top + dim), dim)), int,
                       comb(top + dim, dim) * dim).reshape(-1, dim)
    parts = np.diff(bars[::-1], axis=1, prepend=-1, append=top + dim) - 1
    return parts[np.argsort(-parts[:, -1], kind="stable"), :-1]


def graded_multi_indices(dim: int, count: int) -> np.ndarray:
    """First `count` multi-indices in graded lexicographic order, (count, dim):
    none for a count below 1; a count that is no integer (see :func:`_integer`)
    or a dim below 1 is refused."""
    count = _integer("count", count)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    return _graded(dim, count, lambda total: comb(total + dim - 1, dim - 1))[:max(0, count)]


def _trig_indices(dim, count):
    """Frequency/kind tables, each (count, dim) for an int `count`, of the tensorized
    trigonometric family (kinds 0 = constant, 1 = cos(pi*j*x), 2 = sin(pi*j*x)): the
    multi-indices of :func:`_graded`, each expanded into its cosine/sine choices (see README)."""
    alpha = _graded(dim, count, lambda total: sum(  # r nonzero parts, 2**r choices each
        comb(dim, r) * comb(total - 1, r - 1) << r for r in range(1, dim + 1)) if total else 1)
    nonzero = alpha != 0
    choices = 1 << nonzero.sum(axis=1)
    rows = np.repeat(np.arange(len(alpha)), choices)[:max(0, count)]
    s = np.arange(rows.size) - (np.cumsum(choices) - choices)[rows]
    later = nonzero.sum(axis=1, keepdims=True) - np.cumsum(nonzero, axis=1)  # nonzeros after j
    return alpha[rows], np.where(nonzero[rows], 1 + (s[:, None] >> later[rows] & 1), 0)


def _distinct(values: np.ndarray) -> tuple:
    """``(distinct, index)`` of a 1-d float64 or int64 array, ``values ==
    distinct[index]``: entries told apart by bit pattern (``-0.0`` is not
    ``0.0``), sorted by their int64 view (``np.unique`` imports ``numpy.ma``)."""
    bits = values.view(np.int64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    first = np.ones(order.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return values[order[first]], np.searchsorted(ordered[first], bits)


@dataclass(frozen=True)
class FeatureModel:
    """Immutable truncated feature sequence on a compact box."""

    domain: Domain
    family: str
    truncation: int
    weights: np.ndarray
    exponents: np.ndarray | None = None  # power: (K, d) integer multi-indices
    frequencies: np.ndarray | None = None  # trig: (K, d)
    trig_kinds: np.ndarray | None = None  # trig: (K, d) in {0, 1, 2}
    table_points: np.ndarray | None = None  # custom: (P, d)
    table_features: np.ndarray | None = None  # custom: (P, K)

    def __post_init__(self):
        object.__setattr__(self, "truncation", _integer("truncation", self.truncation))
        if self.truncation < 1:
            raise ValueError("truncation K must be at least 1")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.truncation,) or not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be K finite positive reals")
        object.__setattr__(self, "weights", w)

    @classmethod
    def power_series(cls, domain: Domain, truncation: int, decay: float = 0.5,
                     weights=None) -> "FeatureModel":
        """Monomial features over graded multi-indices on the box."""
        K = _integer("truncation", truncation)
        exponents = graded_multi_indices(domain.dim, K)
        if weights is None:
            weights = _decay_weights(decay, exponents.sum(axis=1))
        return cls(domain, "power", K, np.asarray(weights, float), exponents=exponents)

    @classmethod
    def trigonometric(cls, domain: Domain, truncation: int, decay: float = 0.5,
                      weights=None) -> "FeatureModel":
        """Tensorized Fourier features with decaying weights."""
        K = _integer("truncation", truncation)
        freqs, kinds = _trig_indices(domain.dim, K)
        if weights is None:
            weights = _decay_weights(decay, freqs.sum(axis=1))
        return cls(domain, "trig", K, np.asarray(weights, float),
                   frequencies=freqs, trig_kinds=kinds)

    @classmethod
    def custom_table(cls, points, features, weights=None,
                     domain: Domain | None = None) -> "FeatureModel":
        """Feature values tabulated at a fixed point set."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if points.shape[0] != features.shape[0]:
            raise DimensionMismatch("points and features row counts differ")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(features))):
            raise ValueError("table points and features must be finite")
        if domain is None:
            lo, hi = points.min(axis=0), points.max(axis=0)
            flat = hi - lo <= 0
            lo = np.where(flat, lo - 0.5, lo)
            hi = np.where(flat, hi + 0.5, hi)
            domain = Domain(lo, hi)
        if points.shape[1] != domain.dim:
            raise DimensionMismatch(
                f"table points have dimension {points.shape[1]}, domain has {domain.dim}")
        K = features.shape[1]
        if weights is None:
            weights = np.ones(K)
        return cls(domain, "custom", K, np.asarray(weights, float),
                   table_points=points, table_features=features)

    @cached_property
    def coordinate_factors(self) -> tuple:
        """Per coordinate, the distinct 1-d factors of the K features.

        Feature k is the product over coordinates j of column ``gather[k]``
        of a small factor table evaluated at ``x_j``:

        * ``power``: ``(exponents, gather)``; the table is ``x_j ** exponents``.
        * ``trig``: ``(cos_scales, sin_scales, gather)``; the table is
          ``cos(cos_scales * x_j)``, then ``sin(sin_scales * x_j)``, then a
          column of ones, with each scale ``pi * frequency``.
        * ``custom``: one coordinate, ``(arange(K),)``; the table is the
          point's looked-up row of ``table_features``.
        """
        if self.family == "power":
            return tuple(_distinct(e) for e in self.exponents.T)
        if self.family != "trig":
            return ((np.arange(self.truncation),),)
        out = []
        for freqs, kinds in zip(self.frequencies.T, self.trig_kinds.T):
            cos_freqs = _distinct(freqs[kinds == 1])[0]
            sin_freqs = _distinct(freqs[kinds == 2])[0]
            gather = np.where(
                kinds == 1,
                np.searchsorted(cos_freqs, freqs),
                np.where(kinds == 2, cos_freqs.size + np.searchsorted(sin_freqs, freqs),
                         cos_freqs.size + sin_freqs.size),
            )
            out.append((np.pi * cos_freqs, np.pi * sin_freqs, gather))
        return tuple(out)

    @cached_property
    def _sum_plan(self) -> tuple:
        """How :func:`_feature_sum` groups the features, built once per model: the P
        distinct prefixes (first d-1 gather indices) as a (P, d-1) array in order of first
        appearance, each feature's place in a (J_d, P) matrix, that shape, and the values
        a block holds per point."""
        gathers = np.stack([factors[-1] for factors in self.coordinate_factors], axis=1)
        widths = [int(gather.max()) + 1 for gather in gathers.T]
        key = np.zeros(len(gathers), dtype=np.int64)
        for column, width in zip(gathers.T[:-1], widths):
            key = _distinct(key * width + column)[1]
        first = np.full(key.max() + 1, len(key))
        np.minimum.at(first, key, np.arange(len(key)))
        seen = np.argsort(first)  # the prefixes in order of first appearance
        rank = np.argsort(seen)
        return (gathers[first[seen], :-1], (gathers[:, -1], rank[key]), (widths[-1], seen.size),
                sum(widths) + 2 * seen.size)


def point_blocks(model: FeatureModel, count: int, width: int | None = None) -> list:
    """Row slices covering ``range(count)``, each about ``BLOCK_VALUES`` values.

    A row holds ``width`` values, by default the K features.
    """
    width = width or model.truncation
    if model.family == "custom":
        width = max(width, model.table_points.size)  # lookup compares every entry
    step = max(1, BLOCK_VALUES // width)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _table_lookup(model: FeatureModel, X: np.ndarray):
    """Custom-table row matching each row of X, and whether one matched."""
    match = np.all(
        np.abs(model.table_points[None, :, :] - X[:, None, :]) <= TABLE_TOLERANCE, axis=2
    )
    hits = np.argmax(match, axis=1)
    return hits, match[np.arange(X.shape[0]), hits]


def _table(model: FeatureModel, j: int, values: np.ndarray) -> np.ndarray:
    """Coordinate j's (U, J_j) factor table at U values (see
    :attr:`FeatureModel.coordinate_factors`); ``power`` entries may be inf."""
    if model.family == "power":
        with np.errstate(over="ignore"):
            return values[:, None] ** model.coordinate_factors[j][0]
    cos_scales, sin_scales, _ = model.coordinate_factors[j]
    return np.hstack([np.cos(cos_scales * values[:, None]),
                      np.sin(sin_scales * values[:, None]), np.ones((values.size, 1))])


def _blocks(model: FeatureModel, X: np.ndarray, width):
    """``(rows, tables)`` per block of rows of an (N, d) array, checked against
    the domain once (not if N = 0) and clipped per block: each coordinate's
    factor table, one row per point (``custom``: the looked-up rows), and
    ValueError at the first point where a ``power`` table overflows."""
    if X.shape[0]:
        model.domain._checked(X)
    for rows in point_blocks(model, X.shape[0], width):
        block = np.clip(X[rows], model.domain.lower, model.domain.upper)
        if model.family == "custom":
            hits, found = _table_lookup(model, block)
            if not np.all(found):
                raise UntabulatedPoint(f"point {block[np.argmin(found)].tolist()} is not tabulated")
            yield rows, [model.table_features[hits]]
            continue
        tables = [_table(model, j, column) for j, column in enumerate(block.T)]
        if model.family == "power":  # cos and sin cannot overflow
            finite = np.all([np.isfinite(table).all(axis=1) for table in tables], axis=0)
            if not np.all(finite):
                raise ValueError(f"features overflow at point {block[np.argmin(finite)].tolist()}")
        yield rows, tables


def eval_features(model: FeatureModel, x) -> np.ndarray:
    """Evaluate ``(phi_1, ..., phi_K)`` at a point (d,), a (K,) vector, or at each row of
    an (N, d) array, an (N, K) array, in blocks of rows (:func:`_blocks`)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((np.atleast_2d(x).shape[0], model.truncation))
    cols = [gather for *_, gather in model.coordinate_factors]
    for rows, tables in _blocks(model, np.atleast_2d(x), None):
        vals = tables[0][:, cols[0]]
        for table, col in zip(tables[1:], cols[1:]):
            vals *= table[:, col]  # into one block temporary: faster than into ``out``
        out[rows] = vals
    out *= np.sqrt(model.weights)
    return out if x.ndim == 2 else out[0]


def _grid_axes(X: np.ndarray):
    """``(axes, order)`` with X, bit for bit, the tensor grid of the values
    ``axes[j]`` of each coordinate j, nested with coordinate ``order[0]``
    slowest and ``order[-1]`` fastest (row-major: ``order`` is 0, ..., d-1),
    or None; O(N d) comparisons, no sort (the README gives the strides)."""
    bits, dim = X.view(np.int64), X.shape[1]
    changes = [column != column[0] for column in bits.T]
    if sum(change.any() for change in changes) < 2:  # a point or a line
        return None
    strides = [int(change.argmax()) if change.any() else change.size for change in changes]
    order = sorted(range(dim), key=lambda j: -strides[j])  # stable: size-1 axes tie
    sizes, span = [0] * dim, X.shape[0]
    for j in order:
        if span % strides[j]:
            return None
        sizes[j], span = span // strides[j], strides[j]
    if span != 1:
        return None
    axes = [X[::stride, j][:size] for j, (stride, size) in enumerate(zip(strides, sizes))]
    grid = bits.reshape(*[sizes[j] for j in order], dim)
    for place, j in enumerate(order):
        along = axes[j].view(np.int64).reshape([-1 if i == place else 1 for i in range(dim)])
        if not np.all(grid[..., j] == along):
            return None
    return axes, order


def _grid_sum(model: FeatureModel, X: np.ndarray, prefixes, C):
    """:func:`_feature_sum` on a tensor grid of d >= 2 axes nested in any
    order (see :func:`_grid_axes`; the README gives the method), or None to
    leave X to the block loop: not such a grid, an axis value outside the
    box, a table entry that is not finite, or an axis whose tables outgrow a block."""
    dim = len(model.coordinate_factors)
    found = _grid_axes(X) if dim > 1 and X.shape[0] and X.shape[1] == dim else None
    if found is None or max(map(len, found[0])) * model._sum_plan[-1] > BLOCK_VALUES:
        return None
    axes, order = found
    span = np.column_stack([np.resize(axis, max(map(len, axes))) for axis in axes])
    if not np.all(model.domain.contains(span)):  # a grid point is inside iff its coordinates are
        return None
    span = np.clip(span, model.domain.lower, model.domain.upper)
    tables = [_table(model, j, span[:len(axis), j]) for j, axis in enumerate(axes)]
    if not all(np.isfinite(table).all() for table in tables):
        return None
    factors = [table[:, prefixes[:, j]] for j, table in enumerate(tables[:-1])]
    last = tables[-1] @ C
    sums = np.empty(X.shape[0]).reshape(-1, last.shape[0])
    for rows in point_blocks(model, sums.shape[0], C.shape[1] + last.shape[0]):
        index = np.unravel_index(np.arange(rows.start, rows.stop),
                                 [len(axis) for axis in axes[:-1]])
        S = factors[0][index[0]]
        for factor, i in zip(factors[1:], index[1:]):
            S *= factor[i]
        np.matmul(S, last.T, out=sums[rows])
    return sums.reshape([len(axis) for axis in axes]).transpose(order).ravel()


def _feature_sum(model: FeatureModel, X: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``sum_k alpha_k phi_k(x)`` at each row x of an (N, d) array by sum factorization
    (see README), on a tensor grid by :func:`_grid_sum`, with no (N, K) array; an empty
    array of any width gives (0,) without a check."""
    prefixes, places, shape, width = model._sum_plan
    C = np.zeros(shape)
    C[places] = np.sqrt(model.weights) * alpha
    grid = _grid_sum(model, X, prefixes, C)
    if grid is not None:
        return grid
    values = np.empty(X.shape[0])
    for rows, tables in _blocks(model, X, width):
        S = tables[-1] @ C
        for j, table in enumerate(tables[:-1]):
            S *= table[:, prefixes[:, j]]
        values[rows] = S.sum(axis=1)
    return values


def _feature_adjoint(model: FeatureModel, X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``eval_features(model, X).T @ c`` for an (N, d) array, the transpose of
    :func:`_feature_sum` through the same plan and blocks (the README gives the
    method); no (N, K) array is built.  Checks as :func:`_blocks`."""
    prefixes, places, shape, width = model._sum_plan
    G = np.zeros(shape)
    for rows, tables in _blocks(model, X, width):
        A = np.repeat(c[rows, None], shape[1], axis=1)
        for j, table in enumerate(tables[:-1]):
            A *= table[:, prefixes[:, j]]
        G += tables[-1].T @ A
    return np.sqrt(model.weights) * G[places]


def tabulated(model: FeatureModel, points) -> np.ndarray:
    """Whether :func:`eval_features` can evaluate each row of (N, d) in-domain
    points: all True for ``power`` and ``trig``, without reading them; a
    ``custom`` table holds only its tabulated points."""
    if model.family != "custom":
        return np.ones(len(points), dtype=bool)
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[0]:  # checked as eval_features checks them, width first
        X = np.clip(model.domain._checked(X), model.domain.lower, model.domain.upper)
    found = np.empty(X.shape[0], dtype=bool)
    for rows in point_blocks(model, X.shape[0]):
        found[rows] = _table_lookup(model, X[rows])[1]
    return found


def _decay_weights(decay, degrees: np.ndarray) -> np.ndarray:
    """``decay ** degree`` per feature; ValueError naming the decay and the
    first degree whose weight is not a finite positive real (0 on underflow)."""
    with np.errstate(over="ignore", under="ignore"):
        weights = decay ** degrees.astype(float)
    bad = np.flatnonzero(~((weights > 0) & (weights < np.inf)))
    if bad.size:
        raise ValueError(f"decay {decay!r} gives weight {float(weights[bad[0]])!r} at degree "
                         f"{int(degrees[bad[0]])}; weights must be finite positive reals")
    return weights


def _integer(name: str, value) -> int:
    """`value` as a Python int: an int, a numpy integer or an integral float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) and not (
            isinstance(value, (float, np.floating)) and value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_even_order(m) -> int:
    """The order m as a Python int (see :func:`_integer`), if even and at least 2."""
    m = _integer("order", m)
    if m < 2 or m % 2 != 0:
        raise OddOrderUnsupported(f"order must be even and >= 2, got {m}")
    return m
