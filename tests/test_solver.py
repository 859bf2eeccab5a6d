import warnings
from itertools import product

import numpy as np
import pytest

from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureGram,
    FeatureModel,
    OddOrderUnsupported,
    SingularDesignWarning,
    SolverOptions,
    contract_m,
    contract_m_minus_1,
    residual_norm,
    solve_multilinear,
    solve_regularized,
)

GRAM = FeatureGram(np.array([[1.0, 0.0], [1.0, 1.0]]))
SIGMAS = (1e-6, 0.01, 0.5, 10.0)


def three_node_gram():
    model = FeatureModel.power_series(Domain([-1.0], [1.0]), 8)
    return FeatureGram.from_model(model, [[0.0], [0.5], [1.0]])


def potential(V, c, y, m):
    t = V.T @ c
    return float(np.sum(t ** m) / m - y @ c)


def grid_minimize_potential(V, y, m, center, half_width=2.0, grid=81, rounds=8):
    """Zoomed grid search over c; brute-force oracle for small n."""
    n = V.shape[0]
    width = half_width
    best = None
    for _ in range(rounds):
        axes = [np.linspace(center[i] - width, center[i] + width, grid)
                for i in range(n)]
        best = None
        for combo in product(*axes):
            c = np.asarray(combo)
            f = potential(V, c, y, m)
            if best is None or f < best[0]:
                best = (f, c)
        center = best[1]
        width *= 2.0 / (grid - 1)
    return best[1]


class TestSolveMultilinear:
    def test_closed_form_example(self):
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]))
        assert report.converged
        np.testing.assert_allclose(report.coefficients, [1.0, 1.0], atol=1e-8)

    def test_zero_data_gives_zero_solution(self):
        report = solve_multilinear(GRAM, 4, np.zeros(2))
        assert report.converged
        np.testing.assert_allclose(report.coefficients, np.zeros(2), atol=1e-10)

    def test_m2_linear_example(self):
        # V V^T = [[1, 1], [1, 2]]
        report = solve_multilinear(GRAM, 2, np.array([1.0, 2.0]))
        np.testing.assert_allclose(report.coefficients, [0.0, 1.0], atol=1e-10)

    def test_m2_matches_direct_solve(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            V = rng.standard_normal((n, n + 5))
            y = rng.standard_normal(n)
            report = solve_multilinear(FeatureGram(V), 2, y)
            direct = np.linalg.solve(V @ V.T, y)
            np.testing.assert_allclose(report.coefficients, direct,
                                       rtol=1e-8, atol=1e-10)

    def test_zero_init_converges(self):
        opts = SolverOptions(init="zero")
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]), opts)
        assert report.converged
        np.testing.assert_allclose(report.coefficients, [1.0, 1.0], atol=1e-8)

    def test_initialization_independence(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            V = rng.standard_normal((n, 2 * n + 4))
            y = rng.standard_normal(n)
            gram = FeatureGram(V)
            for m in (4, 6):
                tol = SolverOptions(residual_tol=1e-12, max_iterations=400)
                a = solve_multilinear(gram, m, y, tol)
                b = solve_multilinear(
                    gram, m, y,
                    SolverOptions(residual_tol=1e-12, max_iterations=400, init="zero"),
                )
                assert a.converged and b.converged
                assert np.linalg.norm(a.coefficients - b.coefficients) <= 1e-6

    def test_brute_force_oracle_n2(self):
        y = np.array([8.0, 9.0])
        report = solve_multilinear(GRAM, 4, y)
        oracle = grid_minimize_potential(GRAM.V, y, 4, center=np.zeros(2))
        np.testing.assert_allclose(report.coefficients, oracle, atol=1e-4)

    def test_convexity_along_segments(self):
        rng = np.random.default_rng(22)
        gram = FeatureGram(rng.standard_normal((4, 9)))
        y = rng.standard_normal(4)
        for m in (2, 4, 6):
            for _ in range(30):
                a, b = rng.standard_normal((2, 4))
                t = rng.uniform()
                lhs = potential(gram.V, (1 - t) * a + t * b, y, m)
                rhs = (1 - t) * potential(gram.V, a, y, m) \
                    + t * potential(gram.V, b, y, m)
                assert lhs <= rhs + 1e-10

    def test_report_invariant(self):
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]))
        assert report.residual_norm <= SolverOptions().residual_tol
        assert residual_norm(GRAM, 4, report.coefficients,
                             np.array([8.0, 9.0])) == pytest.approx(
            report.residual_norm
        )

    def test_not_converged_returns_best_iterate(self):
        opts = SolverOptions(max_iterations=1, residual_tol=1e-15, init="zero")
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]), opts)
        assert not report.converged
        assert report.iterations == 1
        assert len(report.objective_trace) == 2
        assert report.stop_reason == "max_iterations"

    def test_non_finite_iterate_stops_at_once(self):
        # |y| = 1e308 overflows the initial guess; nothing is left to iterate on
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve_multilinear(three_node_gram(), 4, [1e308, -1e308, 1e308])
        assert not report.converged
        assert report.stop_reason == "non_finite"
        assert report.iterations == 0
        assert not np.isfinite(report.residual_norm)

    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowing_steps_keep_the_finite_start(self, scale):
        # every Newton candidate overflows; the line search must reject them
        gram = three_node_gram()
        y = [scale, -scale, scale]
        start = solve_multilinear(gram, 4, y, SolverOptions(max_iterations=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve_multilinear(gram, 4, y)
        assert report.stop_reason == "stalled"
        np.testing.assert_array_equal(report.coefficients, start.coefficients)
        assert np.all(np.isfinite(report.coefficients))
        assert report.residual_norm == start.residual_norm
        assert np.isfinite(report.residual_norm)

    def test_tolerance_below_rounding_floor_stalls_early(self):
        # the residual cannot fall below about |y| * 1e-16 >> residual_tol
        report = solve_multilinear(three_node_gram(), 4, [1e50, -1e50, 1e50])
        assert report.stop_reason == "stalled"
        assert report.iterations < SolverOptions().max_iterations // 2
        assert report.residual_norm < 1e-12 * 1e50

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    def test_ill_conditioned_power_series_converges(self, m):
        # cond(V) = 1.2e4; at m = 6 the potential's rounding (|F| ~ 20 with
        # |c| ~ 7e3) hides the late steps from a line search that tests F alone
        model = FeatureModel.power_series(Domain([-1.0], [1.0]), 20, 0.7)
        pts = np.linspace(-0.95, 0.95, 10)[:, None]
        report = solve_multilinear(FeatureGram.from_model(model, pts), m,
                                   np.sin(3 * pts[:, 0]))
        assert report.converged
        assert report.stop_reason == "converged"
        assert report.iterations <= 30

    def test_singular_design_warns(self):
        gram = FeatureGram(np.array([[1.0], [1.0]]))
        with pytest.warns(SingularDesignWarning):
            solve_multilinear(gram, 4, np.array([1.0, 1.0]))

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrderUnsupported):
            solve_multilinear(GRAM, 3, np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_multilinear(GRAM, 4, np.zeros(3))


class TestResidualNorm:
    def test_exact_solution(self):
        assert residual_norm(GRAM, 4, np.array([1.0, 1.0]),
                             np.array([8.0, 9.0])) <= 1e-10

    def test_zero_coefficients(self):
        y = np.array([3.0, 4.0])
        assert residual_norm(GRAM, 4, np.zeros(2), y) == pytest.approx(5.0)


class TestSolveRegularized:
    def test_large_sigma_shrinks_to_zero(self):
        y = np.array([8.0, 9.0])
        sigma = 1e6 * float(np.linalg.norm(y))
        report = solve_regularized(GRAM, 4, y, sigma,
                                   SolverOptions(max_iterations=2000))
        assert np.linalg.norm(report.coefficients) <= 1e-2
        obj = report.residual_norm ** 2 + sigma * contract_m(
            GRAM, 4, report.coefficients
        )
        assert obj == pytest.approx(float(y @ y), rel=1e-2)

    def test_small_sigma_approaches_interpolation(self):
        y = np.array([8.0, 9.0])
        report = solve_regularized(GRAM, 4, y, 1e-6,
                                   SolverOptions(max_iterations=5000))
        assert report.residual_norm <= 1e-2
        assert contract_m(GRAM, 4, report.coefficients) == pytest.approx(
            17.0, rel=0.01
        )

    def test_deterministic_given_seed(self):
        y = np.array([1.0, -2.0])
        opts = SolverOptions(max_iterations=500, rng_seed=5)
        a = solve_regularized(GRAM, 4, y, 0.1, opts)
        b = solve_regularized(GRAM, 4, y, 0.1, opts)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            solve_regularized(GRAM, 4, np.zeros(2), 0.0)


def trig_2d_case():
    """Trig K=120 on [-1, 1]^2 at 30 uniform points, y = sin 3x1 cos 2x2."""
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (30, 2))
    model = FeatureModel.trigonometric(Domain([-1.0, -1.0], [1.0, 1.0]), 120)
    return FeatureGram.from_model(model, X), np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1])


def penalized_misfit(gram, m, c, y, sigma):
    r = contract_m_minus_1(gram, m, c) - y
    return float(r @ r) + sigma * contract_m(gram, m, c)


# ||A_m c^{m-1} - y||^2 + sigma A_m c^m at the coefficients that the former
# multistart descent (Barzilai-Borwein steps from 8 seeded starts, default
# SolverOptions) returned on trig_2d_case; every run stopped at max_iterations.
MULTISTART_OBJECTIVE = {
    (4, 1e-6): 0.027290798181305954,
    (4, 0.01): 0.048346050884144176,
    (4, 0.5): 0.9751542712736726,
    (4, 10.0): 5.522743418894151,
    (6, 1e-6): 0.10895787382993825,
    (6, 0.01): 0.1370649601436542,
    (6, 0.5): 1.0417408410366873,
    (6, 10.0): 5.8276690268317735,
}


class TestRegularizedRoot:
    """The penalized minimizer is the root of ``A_m c^{m-1} + lam c = y``."""

    @pytest.mark.parametrize("case", ["two_nodes", "trig_2d"])
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("m", [4, 6])
    def test_root_residual_within_tolerance(self, case, m, sigma):
        gram, y = (GRAM, np.array([8.0, 9.0])) if case == "two_nodes" else trig_2d_case()
        report = solve_regularized(gram, m, y, sigma)
        assert report.stop_reason == "converged"
        lam = sigma * m / (2 * (m - 1))
        c = report.coefficients
        root = np.linalg.norm(contract_m_minus_1(gram, m, c) + lam * c - y)
        assert root <= SolverOptions().residual_tol
        assert report.residual_norm == residual_norm(gram, m, c, y)

    @pytest.mark.parametrize("m, sigma", list(MULTISTART_OBJECTIVE))
    def test_objective_not_above_multistart(self, m, sigma):
        gram, y = trig_2d_case()
        report = solve_regularized(gram, m, y, sigma)
        assert penalized_misfit(gram, m, report.coefficients, y, sigma) \
            <= MULTISTART_OBJECTIVE[m, sigma]

    @pytest.mark.parametrize("m", [4, 6])
    def test_small_sigma_gap_is_order_sigma(self, m):
        y = np.array([8.0, 9.0])
        c0 = solve_multilinear(GRAM, m, y).coefficients
        for sigma in (1e-2, 1e-4, 1e-6):
            c = solve_regularized(GRAM, m, y, sigma).coefficients
            gap = np.linalg.norm(c - c0)
            assert 0.01 * sigma <= gap <= 0.1 * sigma
