import math
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import mkinterp.solver
from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureGram,
    FeatureModel,
    NodeSet,
    OddOrderUnsupported,
    SingularDesignWarning,
    SolverOptions,
    contract_m,
    contract_m_minus_1,
    fit,
    residual_norm,
    solve_multilinear,
    solve_regularized,
)

from mkinterp.solver import (
    _abs_pow,
    _certifies_full_rank,
    _gradient,
    _hessian,
    _minimize_even_power,
    _potential,
    _rescale,
    pair_products,
)
from oracles import zero_start_solve

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
        report = zero_start_solve(GRAM, 4, np.array([8.0, 9.0]))
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
                b = zero_start_solve(gram, m, y, 1e-12, 400)
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
        # one p = 3 continuation step, then one order-4 step, which lowers the
        # order-4 potential of the start that a budget of 1 returns
        y = np.array([8.0, 9.0])
        start = solve_multilinear(GRAM, 4, y, SolverOptions(max_iterations=1, residual_tol=1e-15))
        opts = SolverOptions(max_iterations=2, residual_tol=1e-15)
        report = solve_multilinear(GRAM, 4, y, opts)
        assert not report.converged
        assert report.iterations == 2
        assert start.iterations == 1
        assert (_potential(GRAM.V.T, 0.0, -y, report.coefficients, 4, 0.0)[1]
                < _potential(GRAM.V.T, 0.0, -y, start.coefficients, 4, 0.0)[1])
        assert report.stop_reason == "max_iterations"

    def test_failed_newton_solve_falls_back_to_descent(self, monkeypatch):
        gram = three_node_gram()

        def singular(*args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(mkinterp.solver.np.linalg, "solve", singular)
        # from c = 0: the fit's own l2 start would meet the failing solve first
        y = np.array([1.0, 2.0, 3.0])
        reports = [zero_start_solve(gram, 4, y, max_iterations=k) for k in range(21)]
        assert reports[-1].iterations > 0
        assert np.all(np.isfinite(reports[-1].coefficients))
        F = [_potential(gram.V.T, 0.0, -y, r.coefficients, 4, 0.0)[1] for r in reports]
        assert np.all(np.diff(F) <= 0)

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


class TestSolverOptions:
    @pytest.mark.parametrize("budget", [2.5, -1, -1.0, True, "3", None])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        # a step count: a fraction or a negative budget has no meaning as one
        with pytest.raises(ValueError, match="max_iterations"):
            solve_multilinear(GRAM, 4, np.array([8.0, 9.0]),
                              SolverOptions(max_iterations=budget))

    @pytest.mark.parametrize("tol", [True, False, np.bool_(True), "1e-10", None, 1j,
                                     0.0, -1e-10, math.inf, math.nan])
    def test_tolerance_must_be_a_finite_positive_real(self, tol):
        # a bool would pass as 1.0 or 0.0: a fit "converged" at residual 0.395
        with pytest.raises(ValueError, match="residual_tol"):
            SolverOptions(residual_tol=tol)

    @pytest.mark.parametrize("tol", [1, np.float32(1e-6), np.int64(1)])
    def test_real_tolerances_are_kept(self, tol):
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]), SolverOptions(residual_tol=tol))
        assert report.converged and report.residual_norm <= tol

    @pytest.mark.parametrize("budget", [0, np.int64(3), 3.0, np.float64(3.0)])
    def test_integer_budgets_are_kept(self, budget):
        opts = SolverOptions(max_iterations=budget, residual_tol=1e-15)
        report = solve_multilinear(GRAM, 4, np.array([8.0, 9.0]), opts)
        assert report.iterations == budget
        assert report.stop_reason == "max_iterations"

    @pytest.mark.parametrize("budget", [np.int64(200), np.int32(200), 200.0, np.float64(200.0)],
                             ids=repr)
    def test_integral_budget_fits_bit_for_bit_as_the_int(self, budget):
        opts = SolverOptions(max_iterations=budget)
        assert type(opts.max_iterations) is int
        model = FeatureModel.power_series(Domain([-1.0], [1.0]), 8)
        nodes = NodeSet(np.array([[-0.6], [0.0], [0.7]]), np.array([1.0, 2.0, 0.0]))
        report, plain = (fit(model, nodes, 6, o).report
                         for o in (opts, SolverOptions(max_iterations=200)))
        assert report.coefficients.tobytes() == plain.coefficients.tobytes()
        assert (report.residual_norm, report.iterations, report.stop_reason) == (
            plain.residual_norm, plain.iterations, plain.stop_reason)


# Special values, subnormals and values whose powers overflow or underflow, then ordinary ones.
POW_INPUTS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5e-310, 1e-200, -1e-100, 1e-81,
     1e50, -1e100, 1e300, -1.7976931348623157e308, 1.0, -1.0, 2.0, -0.5],
    np.random.default_rng(11).uniform(-3.0, 3.0, 45)])


class TestAbsPow:
    """``_abs_pow(r, p)`` against ``np.power(|r|, p)``, under the core's errstate."""

    @staticmethod
    def powers(r, p):
        with np.errstate(over="ignore", invalid="ignore"):
            return _abs_pow(r, p), np.power(np.abs(r), p)

    @pytest.mark.parametrize("shape", [(POW_INPUTS.size,), (4, POW_INPUTS.size // 4)])
    @pytest.mark.parametrize("p", [0, 1, 2, 0.0, 1.0, 2.0, 3.5, 0.5, 1.5])
    def test_bit_equal_at_small_and_non_integral_exponents(self, shape, p):
        r = POW_INPUTS[:math.prod(shape)].reshape(shape)
        got, want = self.powers(r, p)
        np.testing.assert_array_equal(got, want)
        numbers = ~np.isnan(want)
        np.testing.assert_array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))

    @pytest.mark.parametrize("shape", [(POW_INPUTS.size,), (4, POW_INPUTS.size // 4)])
    @pytest.mark.parametrize("p", [3, 4, 5, 6, 7, 8, 3.0, 4.0])
    def test_integral_exponents_are_within_gamma(self, shape, p):
        # a product of p factors is within gamma_{p-1} of the exact power (Higham,
        # section 3.1), measured here against that power in rationals, plus a few
        # of the smallest subnormals for rounding past the underflow threshold
        r = POW_INPUTS[:math.prod(shape)].reshape(shape)
        got, want = self.powers(r, p)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_array_equal(np.signbit(got[~np.isnan(got)]), False)
        u = Fraction(2) ** -53
        gamma = (p - 1) * u / (1 - (p - 1) * u)
        for x, value in zip(r.ravel(), got.ravel()):
            if np.isfinite(value):
                exact = Fraction(abs(float(x))) ** int(p)
                slack = gamma * exact + int(p) * Fraction(2) ** -1074
                assert abs(Fraction(float(value)) - exact) <= slack, (x, p)

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 3.5])
    def test_input_is_left_untouched(self, p):
        r = POW_INPUTS.reshape(4, -1)
        before = r.copy()
        got, _ = self.powers(r, p)
        got[...] = 7.0
        np.testing.assert_array_equal(r, before)
        assert not np.shares_memory(got, r)


class TestHessian:
    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_rank_k_update_matches_general_product(self, m):
        rng = np.random.default_rng(41)
        W = rng.standard_normal((50, 120)).T  # K x n view, as the solvers pass V^T
        r = rng.standard_normal(120)
        H = _hessian(W, r, m)
        reference = (m - 1) * (W.T * r ** (m - 2)) @ W
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - reference)) <= 1e-14 * np.max(np.abs(reference))


class TestPairProducts:
    """``pair_products``: a stack of Hessians as one product with the pair table."""

    @pytest.mark.parametrize("p", [3, 3.5, 4, 6])
    def test_table_reproduces_the_row_hessians(self, p):
        rng = np.random.default_rng(46)
        W = rng.standard_normal((7, 40)).T
        R = rng.standard_normal((3, 40))
        R[1] = 0.0  # a point at a node
        M, index = pair_products(W)
        assert M.shape == (40, 28)
        np.testing.assert_array_equal(index, index.T)
        for a, b in product(range(7), repeat=2):
            np.testing.assert_array_equal(M[:, index[a, b]], W[:, min(a, b)] * W[:, max(a, b)])
        stack = ((p - 1) * np.abs(R) ** (p - 2) @ M)[:, index]
        for H, r in zip(stack, R):
            reference = _hessian(W, r, p)
            assert np.max(np.abs(H - reference)) <= 1e-14 * np.max(np.abs(reference))
        np.testing.assert_array_equal(stack[1], 0.0)

    def test_none_above_its_budget(self):
        # K n (n + 1) / 2 doubles: 261,726 fit in 1 << 18, 262,450 do not
        assert pair_products(np.ones((1, 723))) is not None
        assert pair_products(np.ones((1, 724))) is None
        assert pair_products(np.ones((2, 512))) is None


class TestRealExponentCore:
    """``_minimize_even_power`` at a real exponent p: ``F = sum |r|^p / p + ...``."""

    @staticmethod
    def problem(seed, n=5, K=40):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n, K)).T
        return W, rng.standard_normal(K), rng.standard_normal(n), 0.3 * rng.standard_normal(n)

    def test_integral_float_exponent_gives_the_same_iterates(self):
        # 3 and 5 are the fits' odd continuation exponents
        W, u, ell, z = self.problem(42)
        for p, k in product((4, 3, 5), range(8)):
            as_int = _minimize_even_power(W, u[None], ell, z[None], p, k, 0.2)
            as_float = _minimize_even_power(W, u[None], ell, z[None], float(p), k, 0.2)
            for got, want in zip(as_int, as_float):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("p", [3, 3.5])
    def test_gradient_and_hessian_match_central_differences(self, p):
        W, u, ell, z = self.problem(43)
        lam, h, n = 0.3, 1e-6, z.size

        def F(z):
            return _potential(W, u, ell, z, p, lam)[1]

        def grad(z):
            return _gradient(W, ell, W @ z + u, z, p, lam)

        H = _hessian(W, W @ z + u, p) + lam * np.eye(n)
        for i, e in enumerate(np.eye(n)):
            assert grad(z)[i] == pytest.approx((F(z + h * e) - F(z - h * e)) / (2 * h),
                                               rel=1e-6)
            np.testing.assert_allclose(H[:, i], (grad(z + h * e) - grad(z - h * e)) / (2 * h),
                                       rtol=1e-6, atol=1e-8 * np.abs(H).max())

    @pytest.mark.parametrize("p", [3, 3.5, 5])
    def test_odd_exponent_step_is_finite_and_silent(self, p):
        # residuals of both signs and exact zeros: |r|^{(p-2)/2} must not
        # become a NaN power of a negative number
        W, u, ell, _ = self.problem(44)
        u[::4] = 0.0
        z0 = np.zeros((1, W.shape[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, F, gnorm, iterations, reasons = _minimize_even_power(
                W, u[None], ell, z0, p, 1)
            F0 = _potential(W, u[None], ell, z0, p, 0.0)[1]
        assert iterations.tolist() == [1] and reasons.tolist() == ["max_iterations"]
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(gnorm))
        assert F[0] < F0[0]


# the power function's stop: a Newton decrement within 1e-12 of F
DTOL = 1e-12


class TestLockStepCore:
    """``_minimize_even_power`` on an (N, n) stack: one problem per row."""

    @staticmethod
    def stack(seed=45, N=6, n=5, K=40):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((n, K)).T, rng.standard_normal((N, K)), rng.standard_normal((N, n))

    def test_rows_match_their_own_solves(self):
        W, U, Z = self.stack()
        stacked = _minimize_even_power(W, U, None, Z, 4, 50, dtol=DTOL)
        for i in range(len(Z)):
            alone = _minimize_even_power(W, U[i:i + 1], None, Z[i:i + 1], 4, 50, dtol=DTOL)
            np.testing.assert_allclose(stacked[0][i], alone[0][0], rtol=1e-12, atol=1e-14)
            assert stacked[1][i] == pytest.approx(alone[1][0], rel=1e-12)
            assert (stacked[3][i], stacked[4][i]) == (alone[3][0], alone[4][0])
            assert alone[4][0] == "converged"

    def test_singular_and_node_rows_end_on_their_own(self, monkeypatch):
        # row 0's residual has one nonzero entry, so its Hessian is rank one
        # under the ridge, which the patched solve rejects as LAPACK would a
        # zero pivot; row 1 sits at an exact node: r = 0, a zero Hessian
        W, U, Z = self.stack()
        solve, rejected = np.linalg.solve, []

        def rejecting_solve(a, b):
            if np.any(np.linalg.cond(a) > 1e10):
                rejected.append(np.ndim(a))
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        Z[0], U[0] = 0.0, 0.0
        U[0, 7] = 1.5
        Z[1], U[1] = 0.0, 0.0
        monkeypatch.setattr(np.linalg, "solve", rejecting_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, F, gnorm, iterations, reasons = _minimize_even_power(
                W, U, None, Z, 4, 50, dtol=DTOL)
        assert rejected[:2] == [3, 2]  # the chunk, then row 0 alone
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(F)) and np.all(np.isfinite(gnorm))
        assert reasons[0] == "converged" and iterations[0] > 0 and F[0] < 1.5 ** 4 / 4
        assert (reasons[1], iterations[1], F[1]) == ("converged", 0, 0.0)
        np.testing.assert_array_equal(z[1], 0.0)
        monkeypatch.setattr(np.linalg, "solve", solve)
        rest = _minimize_even_power(W, U[2:], None, Z[2:], 4, 50, dtol=DTOL)
        np.testing.assert_allclose(z[2:], rest[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(F[2:], rest[1], rtol=1e-12)
        np.testing.assert_array_equal(iterations[2:], rest[3])
        np.testing.assert_array_equal(reasons[2:], rest[4])

    @pytest.mark.parametrize("values", [1, 50, 1 << 20])
    def test_hessian_chunks_do_not_change_the_steps(self, monkeypatch, values):
        # one, two or all six 5 x 5 Hessians per stacked solve
        W, U, Z = self.stack()
        reference = _minimize_even_power(W, U, None, Z, 4, 50, dtol=DTOL)
        monkeypatch.setattr(mkinterp.solver, "_HESSIAN_VALUES", values)
        chunked = _minimize_even_power(W, U, None, Z, 4, 50, dtol=DTOL)
        for got, want in zip(chunked, reference):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("values", [80, 160, 1 << 20])
    def test_pair_chunks_match_chunks_of_one_row(self, monkeypatch, values):
        # 25 + 15 doubles per row: two, four (then two) or all six rows per product;
        # the product's rounding depends on how many rows share it, so the values
        # agree to rounding and the steps taken exactly
        W, U, Z = self.stack()
        pairs = pair_products(W)
        monkeypatch.setattr(mkinterp.solver, "_HESSIAN_VALUES", 1)
        reference = _minimize_even_power(W, U, None, Z, 4, 50, dtol=DTOL, pairs=pairs)
        monkeypatch.setattr(mkinterp.solver, "_HESSIAN_VALUES", values)
        chunked = _minimize_even_power(W, U, None, Z, 4, 50, dtol=DTOL, pairs=pairs)
        np.testing.assert_allclose(chunked[0], reference[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(chunked[1], reference[1], rtol=1e-12)
        np.testing.assert_array_equal(chunked[3], reference[3])
        np.testing.assert_array_equal(chunked[4], reference[4])
        assert set(reference[4]) == {"converged"}

    def test_budgets_per_row(self, monkeypatch):
        # a row leaves the lock-step once its own budget is spent
        W, U, Z = self.stack()
        directions, formed = mkinterp.solver._newton_directions, []

        def recording(W, R, G, rows, p, lam, pairs):
            formed.append(rows.tolist())
            return directions(W, R, G, rows, p, lam, pairs)

        monkeypatch.setattr(mkinterp.solver, "_newton_directions", recording)
        z, _, _, iterations, reasons = _minimize_even_power(W, U, None, Z, 4, np.arange(6))
        np.testing.assert_array_equal(iterations, np.arange(6))
        assert set(reasons) == {"max_iterations"}
        assert formed == [list(range(k, 6)) for k in range(1, 6)]
        np.testing.assert_array_equal(z[0], Z[0])
        for k in range(1, 6):
            rerun = _minimize_even_power(W, U, None, Z, 4, k)
            np.testing.assert_allclose(z[k], rerun[0][k], rtol=1e-12, atol=1e-14)


def trig_3d_case():
    """Trig K=200 on [-1, 1]^3 at 100 uniform points, y = sin 2x1 + cos(3x3)/2."""
    X = np.random.default_rng([0, 3]).uniform(-1.0, 1.0, (100, 3))
    model = FeatureModel.trigonometric(Domain([-1.0] * 3, [1.0] * 3), 200)
    return FeatureGram.from_model(model, X), np.sin(2 * X[:, 0]) + 0.5 * np.cos(3 * X[:, 2])


def l2_start(gram, y, m):
    """The rescaled l2 solution, the start before exponent continuation."""
    V = gram.V
    c = np.linalg.solve(V @ V.T, y)
    t = V.T @ c
    return c * (float(y @ c) / float(np.sum(t ** m))) ** (1.0 / m)


def record_core(monkeypatch):
    """The list to which each later fit's core call appends ``(p, budget, steps taken)``."""
    core, seen = mkinterp.solver._minimize_even_power, []

    def recording(W, u, ell, Z, p, max_iterations, *args):
        out = core(W, u, ell, Z, p, max_iterations, *args)
        seen.append((p, max_iterations, int(out[3][0])))
        return out

    monkeypatch.setattr(mkinterp.solver, "_minimize_even_power", recording)
    return seen


class TestContinuedStart:
    def test_newton_steps_over_three_orders(self):
        # exact and repeatable; the rescaled l2 start took 8 + 11 + 13 = 32
        gram, y = trig_3d_case()
        reports = [solve_multilinear(gram, m, y) for m in (4, 6, 8)]
        assert all(r.converged for r in reports)
        assert sum(r.iterations for r in reports) == 25

    @pytest.mark.parametrize("m", [4, 6])
    def test_no_iterations_return_the_rescaled_l2_start(self, m):
        gram, y = trig_2d_case()
        report = solve_multilinear(gram, m, y, SolverOptions(max_iterations=0))
        np.testing.assert_array_equal(report.coefficients, l2_start(gram, y, m))
        assert report.iterations == 0
        assert report.stop_reason == "max_iterations"

    def test_continuation_exponents(self, monkeypatch):
        seen = record_core(monkeypatch)
        gram, y = trig_2d_case()
        report = solve_multilinear(gram, 6, y)
        assert report.converged
        assert [p for p, _, _ in seen] == [3, 4, 5, 6]
        # one accepted step per continuation order, within a budget of one
        assert [(budget, taken) for _, budget, taken in seen[:3]] == [(1, 1)] * 3
        assert seen[3][1] == SolverOptions().max_iterations - 3
        assert report.iterations == sum(taken for _, _, taken in seen)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_continuation_steps_count_against_max_iterations(self, budget, monkeypatch):
        seen = record_core(monkeypatch)
        gram, y = trig_2d_case()
        report = solve_multilinear(gram, 8, y, SolverOptions(max_iterations=budget))
        assert report.iterations == budget
        assert report.stop_reason == "max_iterations"
        # the budget runs out within the continuation: the order-8 descent gets none
        assert [p for p, _, _ in seen] == [*range(3, 3 + budget), 8]
        assert seen[-1][1:] == (0, 0)

    def test_higher_continued_start_is_discarded(self):
        # the p = 3 step does not overflow, but its order-4 rescaling sits far
        # above the rescaled l2 start, which stays the start
        gram = three_node_gram()
        y = np.array([1e100, -1e100, 1e100])
        W = gram.V.T
        l2 = np.linalg.solve(gram.V @ W, y)
        c = _minimize_even_power(W, 0.0, -y, _rescale(W, l2, y, 3)[None], 3, 1)[0][0]
        continued = _rescale(W, c, y, 4)
        start = solve_multilinear(gram, 4, y, SolverOptions(max_iterations=0))
        assert residual_norm(gram, 4, continued, y) > 1e120
        assert start.residual_norm < 1e101
        report = solve_multilinear(gram, 4, y, SolverOptions(max_iterations=1))
        assert report.iterations == 1
        np.testing.assert_array_equal(report.coefficients, start.coefficients)


class TestOuterGram:
    """The fit's l2 start forms ``V V^T`` and runs the rank certificate, once."""

    def test_fit_forms_v_vt_once_and_keeps_no_n_by_n_array(self, monkeypatch,
                                                            outer_gram_count):
        verdicts = []

        def counting_certify(G, K):
            verdicts.append(_certifies_full_rank(G, K))
            return verdicts[-1]

        monkeypatch.setattr(mkinterp.solver, "_certifies_full_rank", counting_certify)
        X = np.random.default_rng(5).uniform(-1.0, 1.0, (30, 2))
        model = FeatureModel.trigonometric(Domain([-1.0, -1.0], [1.0, 1.0]), 120)
        s = fit(model, NodeSet(X, np.sin(3 * X[:, 0])), 4)
        assert outer_gram_count == [1]
        assert verdicts == [True]
        for holder in (s, s.gram, s.report):
            for value in vars(holder).values():
                assert np.shape(value) != (30, 30)
                # the interpolant holds t, not the n x K Gram, bare or wrapped
                assert holder is not s or np.shape(getattr(value, "V", value)) != (30, 120)

    def test_certified_fit_pays_no_svd(self, monkeypatch):
        calls = count_rank_svds(monkeypatch)
        gram, y = trig_2d_case()
        assert solve_multilinear(gram, 4, y).converged
        assert calls == []

    def test_uncertified_fit_reads_the_svd_rank_test(self, monkeypatch, outer_gram_count):
        # the convergence study's n=64 design, cond(V) ~ 6.5e4: full rank, but
        # past the certificate, so the start is least squares and the SVD decides,
        # without a second V V^T or certificate
        verdicts = []

        def counting_certify(G, K):
            verdicts.append(_certifies_full_rank(G, K))
            return verdicts[-1]

        monkeypatch.setattr(mkinterp.solver, "_certifies_full_rank", counting_certify)
        model = FeatureModel.trigonometric(Domain([-1.0], [1.0]), 81, 0.5)
        pts = (-1.0 + (np.arange(64) + 0.5) / 32)[:, None]
        gram = FeatureGram.from_model(model, pts)
        calls = count_rank_svds(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SingularDesignWarning)
            solve_multilinear(gram, 2, np.sin(3 * pts[:, 0]))
        assert calls == [1] and verdicts == [False] and outer_gram_count == [1]
        assert np.linalg.matrix_rank(gram.V) == gram.n  # the SVD reference agrees


class TestResidualNorm:
    def test_exact_solution(self):
        assert residual_norm(GRAM, 4, np.array([1.0, 1.0]),
                             np.array([8.0, 9.0])) <= 1e-10

    def test_zero_coefficients(self):
        y = np.array([3.0, 4.0])
        assert residual_norm(GRAM, 4, np.zeros(2), y) == pytest.approx(5.0)

    def test_y_of_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"expected y of length 2, got shape \(3,\)"):
            residual_norm(GRAM, 4, np.zeros(2), np.zeros(3))


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


def count_rank_svds(monkeypatch):
    """The list to which each later SVD rank test (``np.linalg.matrix_rank``) appends."""
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counted(*args, **kw):
        calls.append(1)
        return matrix_rank(*args, **kw)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


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
