import dataclasses
from itertools import product

import numpy as np
import pytest

import mkinterp
from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureGram,
    FeatureModel,
    contract_m,
    contract_m_minus_1,
    eval_features,
)
from mkinterp.solver import _certifies_full_rank, _l2_start
from oracles import BudgetExceeded, check_semi_pd, check_strict_monotone, dense_tensor

# Features (1, x) at nodes {0, 1}: columns v_1 = (1, 1), v_2 = (0, 1).
GRAM = FeatureGram(np.array([[1.0, 0.0], [1.0, 1.0]]))


def loop_contract_m_minus_1(entries, c):
    """Pure-python brute force over every index tuple."""
    m = entries.ndim
    n = entries.shape[0]
    out = np.zeros(n)
    for idx in product(range(n), repeat=m):
        out[idx[0]] += entries[idx] * np.prod([c[i] for i in idx[1:]])
    return out


class TestFeatureGram:
    def test_empty_gram_rejected(self):
        with pytest.raises(DimensionMismatch, match="feature Gram must be a nonempty 2-d array"):
            FeatureGram(np.empty((0, 3)))


class TestContractions:
    def test_vector_contraction_example(self):
        got = contract_m_minus_1(GRAM, 4, np.array([1.0, 1.0]))
        np.testing.assert_allclose(got, [8.0, 9.0])

    def test_scalar_contraction_example(self):
        assert contract_m(GRAM, 4, np.array([1.0, 1.0])) == pytest.approx(17.0)

    def test_zero_vector(self):
        np.testing.assert_array_equal(
            contract_m_minus_1(GRAM, 4, np.zeros(2)), np.zeros(2)
        )
        assert contract_m(GRAM, 4, np.zeros(2)) == 0.0

    def test_m2_is_matrix_product(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((5, 8))
        gram = FeatureGram(V)
        c = rng.standard_normal(5)
        np.testing.assert_allclose(
            contract_m_minus_1(gram, 2, c), (V @ V.T) @ c, rtol=1e-12
        )

    def test_contraction_identity(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((4, 6))
        gram = FeatureGram(V)
        c = rng.standard_normal(4)
        for m in (2, 4, 6):
            assert contract_m(gram, m, c) == pytest.approx(
                float(c @ contract_m_minus_1(gram, m, c)), rel=1e-12
            )

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        gram = FeatureGram(rng.standard_normal((4, 7)))
        c = rng.standard_normal(4)
        for m in (2, 4, 6):
            for t in (0.5, -2.0, 3.7):
                np.testing.assert_allclose(
                    contract_m_minus_1(gram, m, t * c),
                    t ** (m - 1) * contract_m_minus_1(gram, m, c),
                    rtol=1e-10,
                )

    def test_nonnegativity_even_m(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gram = FeatureGram(rng.standard_normal((3, 5)))
            c = rng.standard_normal(3)
            for m in (2, 4, 6):
                assert contract_m(gram, m, c) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contract_m_minus_1(GRAM, 4, np.ones(3))


class TestDenseOracle:
    def test_entries_example(self):
        t = dense_tensor(GRAM, 4)
        assert t.entries[0, 0, 0, 0] == pytest.approx(1.0)
        assert t.entries[1, 1, 1, 1] == pytest.approx(2.0)
        assert t.entries[0, 0, 0, 1] == pytest.approx(1.0)

    def test_m2_is_gram_matrix(self):
        t = dense_tensor(GRAM, 2)
        np.testing.assert_allclose(t.entries, GRAM.V @ GRAM.V.T)

    def test_symmetry_sampled_permutations(self):
        rng = np.random.default_rng(7)
        t = dense_tensor(FeatureGram(rng.standard_normal((3, 4))), 4)
        for _ in range(20):
            idx = tuple(rng.integers(0, 3, size=4))
            perm = tuple(np.array(idx)[rng.permutation(4)])
            assert t.entries[idx] == pytest.approx(t.entries[perm], rel=1e-12)

    def test_pure_python_loop_agreement(self):
        rng = np.random.default_rng(8)
        for m in (2, 4):
            gram = FeatureGram(rng.standard_normal((3, 5)))
            c = rng.standard_normal(3)
            t = dense_tensor(gram, m)
            expected = loop_contract_m_minus_1(t.entries, c)
            np.testing.assert_allclose(
                contract_m_minus_1(gram, m, c), expected, rtol=1e-10
            )
            np.testing.assert_allclose(
                t.contract_m_minus_1(c), expected, rtol=1e-12
            )

    def test_dense_matches_fast_path(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            gram = FeatureGram(rng.standard_normal((n, int(rng.integers(1, 9)))))
            c = rng.standard_normal(n)
            for m in (2, 4, 6):
                t = dense_tensor(gram, m)
                np.testing.assert_allclose(
                    t.contract_m_minus_1(c),
                    contract_m_minus_1(gram, m, c),
                    rtol=1e-10, atol=1e-12,
                )
                assert t.contract_m(c) == pytest.approx(
                    contract_m(gram, m, c), rel=1e-10, abs=1e-12
                )

    def test_oracles_not_exported(self):
        moved = {"DenseTensor", "dense_tensor", "DENSE_ENTRY_BUDGET", "BudgetExceeded",
                 "evaluate_tensor_basis", "power_function_dense_oracle",
                 "check_strict_monotone", "check_semi_pd", "MonotoneReport", "SemiPDReport",
                 "eval_kernel2", "eval_multikernel", "power_function_p2_closed", "dual_pairing",
                 "check_summability", "SummabilityReport", "zero_start_solve", "SingularGram"}
        assert moved.isdisjoint(mkinterp.__all__)

    def test_unread_names_stay_out_of_the_package(self):
        for name in ("SingularGram", "grid_spacing"):
            assert name not in mkinterp.__all__ and not hasattr(mkinterp, name)
        assert not hasattr(mkinterp.exceptions, "SingularGram")
        assert not hasattr(mkinterp.power, "grid_spacing")
        # the fit decides the rank itself: no property, no second certificate
        assert not hasattr(FeatureGram, "full_row_rank")
        assert not hasattr(mkinterp.tensors, "_certifies_full_rank")
        fields = [f.name for f in dataclasses.fields(mkinterp.SolverOptions)]
        assert fields == ["residual_tol", "max_iterations", "rng_seed"]
        # the Newton core keeps no per-round trace, and its callers pass tolerances
        fields = [f.name for f in dataclasses.fields(mkinterp.SolveReport)]
        assert fields == ["coefficients", "residual_norm", "iterations", "stop_reason"]
        assert not hasattr(mkinterp.power, "_small_decrement")

    def test_budget_enforced(self):
        rng = np.random.default_rng(10)
        gram = FeatureGram(rng.standard_normal((20, 3)))
        with pytest.raises(BudgetExceeded):
            dense_tensor(gram, 6)


class TestDefinitenessChecks:
    def test_monotone_gap_example(self):
        c, d = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        gap = float(
            (c - d) @ (contract_m_minus_1(GRAM, 4, c) - contract_m_minus_1(GRAM, 4, d))
        )
        assert gap == pytest.approx(1.0)

    def test_rank_deficient_witness(self):
        # single feature: v_1 = (1, 1); c - d in its orthogonal complement
        gram = FeatureGram(np.array([[1.0], [1.0]]))
        assert np.linalg.matrix_rank(gram.V) < gram.n
        c, d = np.array([1.0, -1.0]), np.zeros(2)
        gap = float(
            (c - d) @ (contract_m_minus_1(gram, 4, c) - contract_m_minus_1(gram, 4, d))
        )
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_full_rank_min_gap_positive(self):
        report = check_strict_monotone(GRAM, 4, trials=1000, rng_seed=11)
        assert report.min_gap > 0.0
        assert report.witnesses == []

    def test_reports_are_reproducible(self):
        a = check_strict_monotone(GRAM, 6, trials=50, rng_seed=12)
        b = check_strict_monotone(GRAM, 6, trials=50, rng_seed=12)
        assert a.min_gap == b.min_gap

    def test_semi_pd_nonnegative(self):
        rng = np.random.default_rng(13)
        gram = FeatureGram(rng.standard_normal((4, 6)))
        for m in (2, 4, 6):
            assert check_semi_pd(gram, m, trials=200, rng_seed=14).min_value >= 0.0

    def test_zero_vector_gives_zero_value(self):
        assert contract_m(GRAM, 4, np.zeros(2)) == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            check_strict_monotone(GRAM, 4, trials=0, rng_seed=0)


LINE = Domain([-1.0], [1.0])


def study_design(n, extra=()):
    """The convergence study's 1-d trig K=81 design at n cell midpoints."""
    points = np.concatenate([-1.0 + (np.arange(n) + 0.5) * 2.0 / n, extra])
    return eval_features(FeatureModel.trigonometric(LINE, 81, 0.5), points[:, None])


def large_design():
    """400 nodes of a 3-d trig K=800 model, the shape of the benchmark's fits."""
    points = np.random.default_rng(0).uniform(-1.0, 1.0, (400, 3))
    return eval_features(FeatureModel.trigonometric(Domain([-1.0] * 3, [1.0] * 3), 800, 0.5),
                         points)


# name: (design, whether the eigenvalue certificate clears it)
RANK_DESIGNS = {
    "large": (large_design, True),
    # the ill-conditioned power series of the solver tests, cond(V) ~ 1.2e4
    "repro": (lambda: eval_features(FeatureModel.power_series(LINE, 20, 0.7),
                                    np.linspace(-0.95, 0.95, 10)[:, None]), True),
    "study_n64": (lambda: study_design(64), False),  # cond(V) ~ 6.5e4
    # one more node 1e-6 (cond ~ 1.7e6) or 1e-14 (rank 16 of 17) from the one at -0.8125
    "near_duplicate": (lambda: study_design(16, [-0.8125 + 1e-6]), False),
    "duplicate": (lambda: study_design(16, [-0.8125 + 1e-14]), False),
    "two_features": (lambda: GRAM.V, True),
    "single_feature": (lambda: np.array([[1.0], [1.0]]), False),
    "more_nodes_than_features": (
        lambda: np.random.default_rng(15).standard_normal((5, 3)), False),
}


class TestRankCertificate:
    @pytest.mark.parametrize("name", list(RANK_DESIGNS))
    def test_full_row_rank_matches_svd_reference(self, name):
        # a certified design has full SVD rank; an uncertified one may have it too
        design, certified = RANK_DESIGNS[name]
        V = design()
        assert _certifies_full_rank(V @ V.T, V.shape[1]) == certified
        assert np.linalg.matrix_rank(V) == V.shape[0] or not certified

    @pytest.mark.parametrize("name", list(RANK_DESIGNS))
    def test_outer_gram_settles_the_same_certificate(self, name):
        # the fit's l2 start forms the outer Gram V V^T once, for the
        # certificate and for the start: a solve if certified, else least squares
        design, certified = RANK_DESIGNS[name]
        V = design()
        y = np.cos(np.arange(V.shape[0]))
        c, settled = _l2_start(FeatureGram(V), y)
        assert settled == certified
        G = V @ V.T
        expected = np.linalg.solve(G, y) if certified else np.linalg.lstsq(G, y, rcond=None)[0]
        np.testing.assert_array_equal(c, expected)

    def test_near_duplicate_is_past_the_certificate(self):
        V = study_design(16, [-0.8125 + 1e-6])
        delta = 1e4 * V.size * np.finfo(float).eps
        assert np.linalg.cond(V) > 1.0 / np.sqrt(delta)
        assert np.linalg.matrix_rank(V) == V.shape[0]
