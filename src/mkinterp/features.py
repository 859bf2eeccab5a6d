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
from itertools import chain, count as _naturals, islice, product as _cartesian
from math import ceil

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


def _graded(dim):
    """Weak compositions into `dim` parts by increasing total, each total
    in the order of :func:`_compositions`; a lazy, endless stream."""
    return chain.from_iterable(_compositions(total, dim) for total in _naturals())


def graded_multi_indices(dim: int, count: int) -> np.ndarray:
    """First `count` multi-indices in graded lexicographic order, (count, dim);
    ``ceil(count)`` of them for a fractional count, none below 1."""
    indices = list(islice(_graded(dim), max(0, ceil(count))))
    return np.asarray(indices, int).reshape(-1, dim)


def _trig_indices(dim, count):
    """Frequency/kind tables, each (count, dim), of the tensorized trigonometric
    family: the multi-indices of :func:`_graded` in turn, each expanded into
    every choice of cosine or sine per nonzero frequency, cosine first and the
    first coordinate slowest; `count` as in :func:`graded_multi_indices`.

    Kinds: 0 = constant, 1 = cos(pi*j*x), 2 = sin(pi*j*x).
    """
    terms = chain.from_iterable(
        _cartesian(*[[(f, 1), (f, 2)] if f else [(0, 0)] for f in alpha])
        for alpha in _graded(dim))
    table = np.asarray(list(islice(terms, max(0, ceil(count)))), int).reshape(-1, dim, 2)
    return table[..., 0], table[..., 1]


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
        object.__setattr__(self, "truncation", _integer("truncation", self.truncation))

    @classmethod
    def power_series(cls, domain: Domain, truncation: int, decay: float = 0.5,
                     weights=None) -> "FeatureModel":
        """Monomial features over graded multi-indices on the box."""
        # a float is counted up (see graded_multi_indices); __post_init__ checks it
        K = truncation if isinstance(truncation, float) else _integer("truncation", truncation)
        exponents = graded_multi_indices(domain.dim, K)
        if weights is None:
            with np.errstate(over="ignore"):  # __post_init__ rejects an inf weight
                weights = decay ** exponents.sum(axis=1)
        return cls(domain, "power", K, np.asarray(weights, float), exponents=exponents)

    @classmethod
    def trigonometric(cls, domain: Domain, truncation: int, decay: float = 0.5,
                      weights=None) -> "FeatureModel":
        """Tensorized Fourier features with decaying weights."""
        K = truncation if isinstance(truncation, float) else _integer("truncation", truncation)
        freqs, kinds = _trig_indices(domain.dim, K)
        if weights is None:
            with np.errstate(over="ignore"):  # __post_init__ rejects an inf weight
                weights = decay ** freqs.sum(axis=1).astype(float)
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


def _blocks(model: FeatureModel, X: np.ndarray, width):
    """``(rows, tables)`` per block of rows of an (N, d) array, checked
    against the domain once (not if N = 0) and clipped per block.

    ``tables`` lists each coordinate j's factor table T_j at the block's
    values, one row per point (``custom``: the tabulated rows alone).
    ValueError at the first point where a ``power`` table overflows.
    """
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
    """Evaluate ``(phi_1, ..., phi_K)`` at points of the domain.

    A point of shape (d,) gives a (K,) vector; an (N, d) array gives the
    (N, K) array whose row i holds the features at point i.  The work runs
    in blocks of rows (see :func:`_blocks`), so its temporaries do not
    grow with N.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((np.atleast_2d(x).shape[0], model.truncation))
    cols = [gather for *_, gather in model.coordinate_factors]
    for rows, tables in _blocks(model, np.atleast_2d(x), None):
        vals = tables[0] if model.family == "custom" else tables[0][:, cols[0]]
        for table, col in zip(tables[1:], cols[1:]):
            vals *= table[:, col]  # into one block temporary: faster than into ``out``
        out[rows] = vals
    out *= np.sqrt(model.weights)
    return out if x.ndim == 2 else out[0]


def _grid_axes(X: np.ndarray):
    """``(axes, order)`` with X, bit for bit, the tensor grid of the values
    ``axes[j]`` of each coordinate j, nested with coordinate ``order[0]``
    slowest and ``order[-1]`` fastest (row-major: ``order`` is 0, ..., d-1),
    or None.

    Coordinate j's stride is the first row at which its column changes,
    found by one comparison of the whole column with its first entry; the
    grid those strides imply is then compared with X once.  So the test is
    O(N d), with no sort.  An axis whose first two values are equal has no
    stride of its own and fails.
    """
    bits, dim = X.view(np.int64), X.shape[1]
    changes = [column != column[0] for column in bits.T]
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
    order (see :func:`_grid_axes`), or None to leave X to the block loop:
    not such a grid, an axis value outside the box, a table entry that is
    not finite, or an axis so long that its tables would outgrow a block.

    Each axis is tabulated once: ``A_j = T_j[:, prefixes[:, j]]`` for j < d-1
    and ``A_{d-1} = T_{d-1} @ C``.  The sums are ``(A_0 * ... * A_{d-2}) @
    A_{d-1}^T``, the first factor a row-wise (Khatri-Rao) product, formed
    over the :func:`point_blocks` of its rows and written into the result in
    place, in coordinate order; they are then transposed into the grid's
    order, a view for a row-major grid.
    """
    dim = model.domain.dim
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
    """``sum_k alpha_k phi_k(x)`` at each row x of an (N, d) array, by sum factorization.

    ``power``, ``trig``: the products ``sqrt(w_k) alpha_k`` fill a (J_d, P)
    matrix C (see :attr:`FeatureModel._sum_plan`).  A tensor grid in any
    axis order takes :func:`_grid_sum`.  Otherwise each block's tables, one
    row per point, are contracted: ``T_d @ C`` for the last coordinate,
    times the prefix columns ``T_j[:, prefixes[:, j]]`` of the others in
    order, summed over the P prefixes; no (N, K) array is built.
    ``custom`` looks its rows up.  Rows agree with
    ``eval_features(model, X) @ alpha`` to the rounding of a K-term sum.
    An empty array of any width gives (0,) without a check.
    """
    beta = np.sqrt(model.weights) * alpha
    width = None
    if model.family != "custom":
        prefixes, places, shape, width = model._sum_plan
        C = np.zeros(shape)
        C[places] = beta
        grid = _grid_sum(model, X, prefixes, C)
        if grid is not None:
            return grid
    values = np.empty(X.shape[0])
    for rows, tables in _blocks(model, X, width):
        if model.family == "custom":
            values[rows] = tables[0] @ beta
            continue
        S = tables[-1] @ C
        for j, table in enumerate(tables[:-1]):
            S *= table[:, prefixes[:, j]]
        values[rows] = S.sum(axis=1)
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
