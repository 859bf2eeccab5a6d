"""Truncated feature expansions and the multi-kernels built from them.

A feature model holds a finite sequence of continuous functions
``phi_1, ..., phi_K`` on a compact box, each of the form
``phi_k(x) = sqrt(w_k) * b_k(x)`` with positive weights ``w_k``.  The base
kernel is ``Phi2(z1, z2) = sum_k phi_k(z1) phi_k(z2)`` and the order-m
multi-kernel is ``Phi_m(z1, ..., zm) = sum_k prod_i phi_k(z_i)``.

Two built-in families are provided:

* ``power``: monomials ``x^alpha`` over graded-lexicographic multi-indices
  (within each total degree, indices are ordered by decreasing leading
  exponents), default weights ``decay**|alpha|``.
* ``trig``: tensor products of ``1, cos(pi j x), sin(pi j x)`` per
  coordinate, enumerated by increasing total frequency (cosine before sine
  within a frequency), default weights ``decay**degree``.

A third family, ``custom``, tabulates feature values at a fixed point set
and can only be evaluated there; its JSON schema is
``{"points": [[...], ...], "features": [[...], ...]}`` with optional
``"weights"`` and ``"domain": {"lower": [...], "upper": [...]}`` keys.

Both built-in families are products of one-dimensional factors, and each
coordinate has only a few distinct ones (a 2-d trig model with K = 120 has
17 and 15).  Per block of points and per coordinate, each distinct factor
is evaluated once into a small table (``x**e``; ``cos`` only at cosine
frequencies, ``sin`` only at sine ones).  :func:`eval_features` gathers the
table columns into the K features; every entry takes the same float
operations as the direct per-feature formula, so the result is bit-identical
to it.  :func:`_feature_sum`, which evaluates an expansion
``sum_k alpha_k phi_k``, contracts the same tables with the coefficients one
coordinate at a time (sum factorization) and builds no (N, K) array.
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
        """Validate membership and clamp coordinates near a face onto it.

        Takes a point (d,) or an (N, d) array of points.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.dim:
            raise PointOutsideDomain(
                f"point has dimension {x.shape[-1]}, domain has dimension {self.dim}"
            )
        inside = self.contains(x)
        if not np.all(inside):
            bad = x if x.ndim == 1 else x[np.argmin(inside)]
            raise PointOutsideDomain(f"point {bad.tolist()} outside the domain box")
        return np.clip(x, self.lower, self.upper)


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


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a small integer array.

    Plain Python, because ``np.unique`` imports ``numpy.ma`` on first use
    (about 1 MiB and 18 ms in every process).
    """
    return np.array(sorted(set(values.tolist())), dtype=values.dtype)


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

        It depends on the model only, so it is built on first use and kept.
        """
        if self.family == "power":
            distinct = [_distinct(e) for e in self.exponents.T]
            return tuple((d, np.searchsorted(d, e)) for d, e in zip(distinct, self.exponents.T))
        if self.family != "trig":
            return ()
        out = []
        for freqs, kinds in zip(self.frequencies.T, self.trig_kinds.T):
            cos_freqs = _distinct(freqs[kinds == 1])
            sin_freqs = _distinct(freqs[kinds == 2])
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
        Python, for the reason :func:`_distinct` gives.
        """
        gathers = np.stack([factors[-1] for factors in self.coordinate_factors], axis=1)
        ids = {}
        prefix_of = [ids.setdefault(tuple(g[:-1]), len(ids)) for g in gathers.tolist()]
        prefixes = np.array(list(ids), dtype=int).reshape(len(ids), self.domain.dim - 1)
        width = _factor_tables(self, np.empty((0, self.domain.dim)))[-1].shape[1]
        return prefixes, (gathers[:, -1], np.array(prefix_of)), (width, len(ids))


def point_blocks(model: FeatureModel, count: int) -> list:
    """Row slices covering ``range(count)``, each about ``BLOCK_VALUES`` features."""
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


def _factor_tables(model: FeatureModel, X: np.ndarray) -> list:
    """Per coordinate, the (B, J_j) factor table (see
    :attr:`FeatureModel.coordinate_factors`) at the rows of a projected block."""
    if model.family == "power":
        return [X[:, j:j + 1] ** exponents
                for j, (exponents, _) in enumerate(model.coordinate_factors)]
    ones = np.ones((X.shape[0], 1))
    return [np.hstack([np.cos(cos_scales * X[:, j:j + 1]),
                       np.sin(sin_scales * X[:, j:j + 1]), ones])
            for j, (cos_scales, sin_scales, _) in enumerate(model.coordinate_factors)]


def _features_block(model: FeatureModel, X: np.ndarray) -> np.ndarray:
    """Unscaled basis values ``b_k`` at the rows of a projected (B, d) block.

    Each coordinate's factor table is gathered into the K columns.
    """
    if model.family == "custom":
        hits, found = _table_lookup(model, X)
        if not np.all(found):
            raise UntabulatedPoint(f"point {X[np.argmin(found)].tolist()} is not tabulated")
        return model.table_features[hits]
    vals = np.ones((X.shape[0], model.truncation))
    for table, factors in zip(_factor_tables(model, X), model.coordinate_factors):
        vals *= np.take(table, factors[-1], axis=1)
    return vals


def eval_features(model: FeatureModel, x) -> np.ndarray:
    """Evaluate ``(phi_1, ..., phi_K)`` at points of the domain.

    A point of shape (d,) gives a (K,) vector; an (N, d) array gives the
    (N, K) array whose row i holds the features at point i.  The work runs
    in blocks of rows (see :func:`point_blocks`), so its temporaries do not
    grow with N.
    """
    X = model.domain.project(x)
    if X.ndim == 1:
        return np.sqrt(model.weights) * _features_block(model, X[None, :])[0]
    out = np.empty((X.shape[0], model.truncation))
    for rows in point_blocks(model, X.shape[0]):
        out[rows] = _features_block(model, X[rows])
    out *= np.sqrt(model.weights)
    return out


def _feature_sum(model: FeatureModel, X: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``sum_k alpha_k phi_k(x)`` at each row x of an (N, d) array, by sum factorization.

    ``power``, ``trig``: the products ``sqrt(w_k) alpha_k`` fill a (J_d, P)
    matrix C (see :attr:`FeatureModel._sum_plan`); per block, ``S = T_d @ C``
    is multiplied by each earlier coordinate's table at the prefix columns and
    summed over the P prefixes.  Per point that is ``sum_j J_j`` factors,
    ``J_d P`` multiply-adds and ``(d-1) P`` gathers, and no (N, K) array is
    built.  ``custom`` looks its rows up.  Rows agree with
    ``eval_features(model, X) @ alpha`` to the rounding of a K-term sum.  An
    empty array of any width gives (0,) without a check.
    """
    beta = np.sqrt(model.weights) * alpha
    if model.family != "custom":
        prefixes, places, shape = model._sum_plan
        C = np.zeros(shape)
        C[places] = beta
    values = np.empty(X.shape[0])
    for rows in point_blocks(model, X.shape[0]):
        block = model.domain.project(X[rows])
        if model.family == "custom":
            values[rows] = _features_block(model, block) @ beta
            continue
        *tables, last = _factor_tables(model, block)
        S = last @ C
        for j, table in enumerate(tables):
            S *= np.take(table, prefixes[:, j], axis=1)
        values[rows] = S.sum(axis=1)
    return values


def tabulated(model: FeatureModel, points) -> np.ndarray:
    """Whether :func:`eval_features` can evaluate each row of in-domain points.

    True everywhere for ``power`` and ``trig``; a ``custom`` table holds
    only its tabulated points.  Takes an (N, d) array of points inside the
    domain box and returns an (N,) boolean array.
    """
    X = model.domain.project(np.reshape(points, (-1, model.domain.dim)))
    found = np.ones(X.shape[0], dtype=bool)
    if model.family == "custom":
        for rows in point_blocks(model, X.shape[0]):
            found[rows] = _table_lookup(model, X[rows])[1]
    return found


def eval_kernel2(model: FeatureModel, z1, z2) -> float:
    """Base kernel ``Phi2(z1, z2) = sum_k phi_k(z1) phi_k(z2)``.

    Uses the same reduction order as :func:`eval_multikernel` so the two
    agree exactly at m = 2.
    """
    return float(np.sum(eval_features(model, z1) * eval_features(model, z2)))


def require_even_order(m: int) -> None:
    if m < 2 or m % 2 != 0:
        raise OddOrderUnsupported(f"order m must be even and >= 2, got {m}")


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
