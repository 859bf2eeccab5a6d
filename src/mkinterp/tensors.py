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
        """Rank test by SVD, computed on first read only."""
        return int(np.linalg.matrix_rank(self.V)) == self.n

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
