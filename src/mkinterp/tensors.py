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
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatch
from .features import FeatureModel, eval_features, require_even_order


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


@dataclass(frozen=True)
class FeatureGram:
    """n x K array whose column k holds feature k at all nodes."""

    V: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        if V.ndim != 2 or V.size == 0:
            raise DimensionMismatch("feature Gram must be a nonempty 2-d array")
        object.__setattr__(self, "V", V)

    @cached_property
    def full_row_rank(self) -> bool:
        """Rank test, computed on first read only.

        A design that the eigenvalue certificate (:func:`_certifies_full_rank`)
        clears has full row rank; only the others pay for the SVD of
        ``np.linalg.matrix_rank``, the reference that decides near-singular
        designs.  A fit does not read it: its l2 start runs the certificate
        once, and only past a failed one does the fit take the SVD.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            G = self.V @ self.V.T
        return _certifies_full_rank(G, self.K) or int(np.linalg.matrix_rank(self.V)) == self.n

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
    require_even_order(m)
    c = _check_vector(gram, c)
    t = gram.V.T @ c
    return gram.V @ (t ** (m - 1))


def contract_m(gram: FeatureGram, m: int, c) -> float:
    """``A_m c^m = sum_k (v_k . c)^m``; nonnegative for even m."""
    require_even_order(m)
    c = _check_vector(gram, c)
    t = gram.V.T @ c
    return float(np.sum(t ** m))
