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

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _cartesian

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

    def project(self, x) -> np.ndarray:
        """Validate a point (d,) or points (N, d) and clamp those near a face onto it."""
        return np.clip(self._checked(x), self.lower, self.upper)

    def _checked(self, x) -> np.ndarray:
        """``x`` as a float array; PointOutsideDomain at the first point outside."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.dim:
            raise PointOutsideDomain(
                f"point has dimension {x.shape[-1]}, domain has dimension {self.dim}"
            )
        inside = self.contains(x)
        if not np.all(inside):
            bad = x if x.ndim == 1 else x[np.argmin(inside)]
            raise PointOutsideDomain(f"point {bad.tolist()} outside the domain box")
        return x


def domain_grid(domain: Domain, per_dim: int) -> np.ndarray:
    """Uniform tensor grid over the box, endpoints included, row-major."""
    if per_dim < 2:
        raise ValueError("per_dim must be at least 2")
    axes = [np.linspace(domain.lower[j], domain.upper[j], per_dim)
            for j in range(domain.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _compositions(total, parts):
    """Weak compositions of `total` into `parts`, decreasing-lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def graded_multi_indices(dim: int, count: int) -> np.ndarray:
    """First `count` multi-indices in graded lexicographic order."""
    out = []
    degree = 0
    while len(out) < count:
        for alpha in _compositions(degree, dim):
            out.append(alpha)
            if len(out) == count:
                break
        degree += 1
    return np.asarray(out, dtype=int).reshape(-1, dim)


def _trig_indices(dim, count):
    """Frequency/kind tables for the tensorized trigonometric family.

    Kinds: 0 = constant, 1 = cos(pi*j*x), 2 = sin(pi*j*x).
    """
    freqs, kinds = [], []
    degree = 0
    while len(freqs) < count:
        for degs in _compositions(degree, dim):
            per_dim = []
            for dj in degs:
                per_dim.append([(dj, 1), (dj, 2)] if dj > 0 else [(0, 0)])
            for combo in _cartesian(*per_dim):
                freqs.append([f for f, _ in combo])
                kinds.append([k for _, k in combo])
                if len(freqs) == count:
                    return np.asarray(freqs, int), np.asarray(kinds, int)
        degree += 1
    return np.zeros((0, dim), int), np.zeros((0, dim), int)  # count < 1


def _distinct(values: np.ndarray) -> tuple:
    """Distinct entries of a 1-d array of float64 or int64, and where each lies.

    Returns ``(distinct, index)`` with ``values == distinct[index]``.  Entries
    are told apart by bit pattern (``-0.0`` and ``0.0`` are two values) and
    come out sorted by their int64 view (a sort: ``np.unique`` imports ``numpy.ma``).
    """
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
        exponents = graded_multi_indices(domain.dim, truncation)
        if weights is None:
            with np.errstate(over="ignore"):  # __post_init__ rejects an inf weight
                weights = decay ** exponents.sum(axis=1)
        return cls(domain, "power", truncation, np.asarray(weights, float),
                   exponents=exponents)

    @classmethod
    def trigonometric(cls, domain: Domain, truncation: int, decay: float = 0.5,
                      weights=None) -> "FeatureModel":
        """Tensorized Fourier features with decaying weights."""
        freqs, kinds = _trig_indices(domain.dim, truncation)
        if weights is None:
            with np.errstate(over="ignore"):  # __post_init__ rejects an inf weight
                weights = decay ** freqs.sum(axis=1).astype(float)
        return cls(domain, "trig", truncation, np.asarray(weights, float),
                   frequencies=freqs, trig_kinds=kinds)

    @classmethod
    def custom_table(cls, points, features, weights=None,
                     domain: Domain | None = None) -> "FeatureModel":
        """Feature values tabulated at a fixed point set."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if points.shape[0] != features.shape[0]:
            raise DimensionMismatch("points and features row counts differ")
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

    @classmethod
    def custom_table_from_json(cls, source) -> "FeatureModel":
        """Load a custom table from a JSON file path or parsed document."""
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = source
        domain = None
        if "domain" in doc:
            domain = Domain(doc["domain"]["lower"], doc["domain"]["upper"])
        return cls.custom_table(doc["points"], doc["features"],
                                weights=doc.get("weights"), domain=domain)

    @cached_property
    def coordinate_factors(self) -> tuple:
        """Per coordinate, the distinct 1-d factors of the K features.

        Feature k is the product over coordinates j of column ``gather[k]``
        of a small factor table evaluated at ``x_j``:

        * ``power``: ``(exponents, gather)``; the table is ``x_j ** exponents``.
        * ``trig``: ``(cos_scales, sin_scales, gather)``; the table is
          ``cos(cos_scales * x_j)``, then ``sin(sin_scales * x_j)``, then a
          column of ones, with each scale ``pi * frequency``.
        * ``custom``: empty.
        """
        if self.family == "power":
            return tuple(_distinct(e) for e in self.exponents.T)
        if self.family != "trig":
            return ()
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
        """How :func:`_feature_sum` groups the features; built once per model.

        Feature k takes column ``gather[k]`` of each coordinate's factor
        table (see :attr:`coordinate_factors`).  Grouped by their first d-1
        indices, the features have P distinct prefixes.  Returns the (P, d-1)
        array of prefixes in order of first appearance, the place of each
        feature in a (J_d, P) matrix (its last index, its prefix) and that
        matrix's shape.  Distinct features take distinct places.  Plain
        Python, for the reason :func:`_distinct` gives.  Last comes the number
        of values a block holds per point: its factor tables, S and one
        gathered (B, P) temporary.
        """
        gathers = np.stack([factors[-1] for factors in self.coordinate_factors], axis=1)
        ids = {}
        prefix_of = [ids.setdefault(tuple(g[:-1]), len(ids)) for g in gathers.tolist()]
        prefixes = np.array(list(ids), dtype=int).reshape(len(ids), self.domain.dim - 1)
        widths = [_table(self, j, np.empty(0)).shape[1] for j in range(self.domain.dim)]
        return (prefixes, (gathers[:, -1], np.array(prefix_of)), (widths[-1], len(ids)),
                sum(widths) + 2 * len(ids))


def point_blocks(model: FeatureModel, count: int, width: int | None = None) -> list:
    """Row slices covering ``range(count)``, each about ``BLOCK_VALUES`` values.

    A row holds ``width`` values, by default the K features.
    """
    if width is None:
        width = model.truncation
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


def _blocks(model: FeatureModel, X: np.ndarray, width, derive, order):
    """``(rows, factors)`` per block of rows of an (N, d) array, checked
    against the domain once (not if N = 0) and clipped per block.

    ``factors`` yields ``derive(j, T_j)`` at the rows for each coordinate j
    in ``order``.  T_j holds one row per distinct value of the block's
    column, by bit pattern, or one row per value, with no sort, once a block
    of the call had over half its values distinct (``custom``: the tabulated
    rows alone).  ValueError at the first point where a ``power`` table
    overflows.
    """
    if X.shape[0]:
        model.domain._checked(X)
    dense = [False] * X.shape[1]
    for rows in point_blocks(model, X.shape[0], width):
        block = np.clip(X[rows], model.domain.lower, model.domain.upper)
        if model.family == "custom":
            hits, found = _table_lookup(model, block)
            if not np.all(found):
                raise UntabulatedPoint(f"point {block[np.argmin(found)].tolist()} is not tabulated")
            yield rows, iter([model.table_features[hits]])
            continue
        parts, finite = [], np.ones(block.shape[0], dtype=bool)
        for j, column in enumerate(block.T):
            values, index = (column, slice(None)) if dense[j] else _distinct(column)
            dense[j] = 2 * values.size > column.size
            parts.append((_table(model, j, values), index))
            if model.family == "power":  # cos and sin cannot overflow
                finite &= np.isfinite(parts[j][0]).all(axis=1)[index]
        if not np.all(finite):
            raise ValueError(f"features overflow at point {block[np.argmin(finite)].tolist()}")
        yield rows, (derive(j, parts[j][0][parts[j][1]]) for j in order)  # lazily: few alive


def _features_block(factors) -> np.ndarray:
    """Unscaled basis values ``b_k`` of a block: the product of its factors."""
    vals = next(factors)
    for factor in factors:
        vals *= factor
        del factor  # freed before the next factor is made
    return vals


def eval_features(model: FeatureModel, x) -> np.ndarray:
    """Evaluate ``(phi_1, ..., phi_K)`` at points of the domain.

    A point of shape (d,) gives a (K,) vector; an (N, d) array gives the
    (N, K) array whose row i holds the features at point i.  The work runs
    in blocks of rows (see :func:`_blocks`), so its temporaries do not
    grow with N.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((np.atleast_2d(x).shape[0], model.truncation))
    cols = [gather for *_, gather in model.coordinate_factors]
    for rows, factors in _blocks(model, np.atleast_2d(x), None, lambda j, t: t[:, cols[j]],
                                 range(model.domain.dim)):
        out[rows] = _features_block(factors)
    out *= np.sqrt(model.weights)
    return out if x.ndim == 2 else out[0]


def _first_change(lead: np.ndarray) -> int:
    """Index of the first row of ``lead`` unlike row 0, or its length; the
    search doubles its prefix, so a change at row i costs O(i) rows."""
    stop = 1
    while stop < lead.shape[0]:
        stop = min(2 * stop, lead.shape[0])
        changed = np.flatnonzero((lead[1:stop] != lead[0]).any(axis=1))
        if changed.size:
            return int(changed[0]) + 1
    return lead.shape[0]


def _grid_axes(X: np.ndarray):
    """The values along each axis of the tensor grid whose row-major product
    is X bit for bit (what :func:`domain_grid` makes), or None.

    Axis j's stride is the first row at which columns 0..j change.  The
    first two slabs of the slowest axis are compared before the rest, so
    scattered rows fail within a few rows; no sort.
    """
    bits = X.view(np.int64)
    strides = [1]
    for j in range(X.shape[1] - 2, -1, -1):
        strides.insert(0, _first_change(bits[:, :j + 1]))
    sizes, span = [], X.shape[0]
    for stride in strides:
        if span % stride:
            return None
        sizes.append(span // stride)
        span = stride
    axes = [X[::stride, j][:size] for j, (stride, size) in enumerate(zip(strides, sizes))]
    grid = bits.reshape(*sizes, X.shape[1])
    for part in (grid[:2], grid):
        for j, axis in enumerate(axes):
            along = axis.view(np.int64).reshape([-1 if i == j else 1 for i in range(len(axes))])
            if not np.all(part[..., j] == along[:part.shape[0]]):
                return None
    return axes


def _grid_sum(model: FeatureModel, X: np.ndarray, prefixes, C):
    """:func:`_feature_sum` on a row-major tensor grid of d >= 2 axes, or
    None to leave X to the block loop: not such a grid, an axis value outside
    the box, a table entry that is not finite, or an axis so long that its
    tables would outgrow a block.

    Each axis is tabulated once: ``A_j = T_j[:, prefixes[:, j]]`` for j < d-1
    and ``A_{d-1} = T_{d-1} @ C``.  The sums are ``(A_0 * ... * A_{d-2}) @
    A_{d-1}^T``, the first factor a row-wise (Khatri-Rao) product, formed a
    few of its rows at a time and written into the result in place.
    """
    dim = model.domain.dim
    axes = _grid_axes(X) if dim > 1 and X.shape[0] and X.shape[1] == dim else None
    if axes is None or max(map(len, axes)) * model._sum_plan[-1] > BLOCK_VALUES:
        return None
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
    step = max(1, BLOCK_VALUES // (C.shape[1] + last.shape[0]))
    for start in range(0, sums.shape[0], step):
        stop = min(start + step, sums.shape[0])
        index = np.unravel_index(np.arange(start, stop), [len(axis) for axis in axes[:-1]])
        S = factors[0][index[0]]
        for factor, i in zip(factors[1:], index[1:]):
            S *= factor[i]
        np.matmul(S, last.T, out=sums[start:stop])
    return sums.ravel()


def _feature_sum(model: FeatureModel, X: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``sum_k alpha_k phi_k(x)`` at each row x of an (N, d) array, by sum factorization.

    ``power``, ``trig``: the products ``sqrt(w_k) alpha_k`` fill a (J_d, P)
    matrix C (see :attr:`FeatureModel._sum_plan`).  A row-major tensor grid
    takes :func:`_grid_sum`.  Otherwise each block's table rows are
    contracted, ``T_d @ C`` for the last coordinate and the prefix columns
    ``T_j[:, prefixes[:, j]]`` for the others, then multiplied and summed
    over the P prefixes; no (N, K) array is built.  ``custom`` looks its
    rows up.  Rows agree with ``eval_features(model, X) @ alpha`` to the
    rounding of a K-term sum.  An empty array of any width gives (0,)
    without a check.
    """
    beta = np.sqrt(model.weights) * alpha
    width = derive = None
    if model.family != "custom":
        prefixes, places, shape, width = model._sum_plan
        C = np.zeros(shape)
        C[places] = beta
        grid = _grid_sum(model, X, prefixes, C)
        if grid is not None:
            return grid

        def derive(j, table):
            return table @ C if j == model.domain.dim - 1 else table[:, prefixes[:, j]]
    values = np.empty(X.shape[0])
    last_first = [model.domain.dim - 1, *range(model.domain.dim - 1)]
    for rows, factors in _blocks(model, X, width, derive, last_first):
        S = next(factors)
        for factor in factors:
            S *= factor
            del factor  # freed before the next factor is made
        values[rows] = S @ beta if model.family == "custom" else S.sum(axis=1)
    return values


def tabulated(model: FeatureModel, points) -> np.ndarray:
    """Whether :func:`eval_features` can evaluate each row of (N, d) in-domain
    points: all True for ``power`` and ``trig``, without reading them; a
    ``custom`` table holds only its tabulated points."""
    if model.family != "custom":
        return np.ones(len(points), dtype=bool)
    X = model.domain.project(np.reshape(points, (-1, model.domain.dim)))
    found = np.empty(X.shape[0], dtype=bool)
    for rows in point_blocks(model, X.shape[0]):
        found[rows] = _table_lookup(model, X[rows])[1]
    return found


def require_even_order(m: int) -> None:
    if m < 2 or m % 2 != 0:
        raise OddOrderUnsupported(f"order m must be even and >= 2, got {m}")
