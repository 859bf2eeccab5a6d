"""Rank-one-sum representation of the interpolation tensor.

The order-m tensor ``A_m`` induced by the multi-kernel at n nodes is never
materialized: with ``v_k`` the k-th column of the n x K feature Gram ``V``
(feature k evaluated at all nodes), ``A_m = sum_k v_k (x) ... (x) v_k``
(m-fold outer products), so both contractions reduce to O(nK) work through
the inner products ``t_k = v_k . c``:

    A_m c^{m-1} = sum_k t_k^{m-1} v_k        (vector)
    A_m c^m     = sum_k t_k^m                (scalar)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch
from .features import FeatureModel, eval_features, require_even_order


@dataclass(frozen=True)
class FeatureGram:
    """n x K array whose column k holds feature k at all nodes."""

    V: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if V.ndim != 2 or V.size == 0:
            raise DimensionMismatch("feature Gram must be a nonempty 2-d array")
        object.__setattr__(self, "V", V)

    @property
    def n(self) -> int:
        return self.V.shape[0]

    @property
    def K(self) -> int:
        return self.V.shape[1]

    @classmethod
    def from_model(cls, model: FeatureModel, points) -> "FeatureGram":
        return cls(eval_features(model, np.atleast_2d(points)))


def _check_vector(gram: FeatureGram, c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.shape != (gram.n,):
        raise DimensionMismatch(f"expected vector of length {gram.n}, got shape {c.shape}")
    return c


def contract_m_minus_1(gram: FeatureGram, m: int, c) -> np.ndarray:
    """``A_m c^{m-1}`` via the rank-one-sum form, in O(nK)."""
    m = require_even_order(m)
    c = _check_vector(gram, c)
    t = gram.V.T @ c
    return gram.V @ (t ** (m - 1))


def contract_m(gram: FeatureGram, m: int, c) -> float:
    """``A_m c^m = sum_k (v_k . c)^m``; nonnegative for even m."""
    m = require_even_order(m)
    c = _check_vector(gram, c)
    t = gram.V.T @ c
    return float(np.sum(t ** m))
