import tracemalloc

import numpy as np
import pytest

import mkinterp.features
import mkinterp.power
import mkinterp.solver
import mkinterp.tensors
from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureModel,
    NodeSet,
    NotConverged,
    SolverOptions,
    convergence_study,
    domain_grid,
    error_bound,
    eval_features,
    fill_distance,
    fit,
    power_function,
    power_report,
)
from mkinterp.features import point_blocks
from oracles import (
    SingularGram,
    power_function_dense_oracle,
    power_function_p2_closed,
    power_values_long_double,
)

BOX = Domain([-1.0], [1.0])
# documented 3-feature instance: features (1, x, x^2), nodes {0, 1}
MODEL3 = FeatureModel.power_series(BOX, 3, weights=np.ones(3))
NODES01 = NodeSet(np.array([[0.0], [1.0]]), np.zeros(2))
# the convergence study's model and grid
STUDY_MODEL = FeatureModel.trigonometric(BOX, 81, decay=0.5)
STUDY_GRID = domain_grid(BOX, 101)


def study_nodes(n):
    """The convergence study's n cell-midpoint nodes on [-1, 1]."""
    return NodeSet(((np.arange(n) + 0.5) / (n / 2) - 1.0)[:, None], np.zeros(n))


def benchmark_2d_nodes(seed=3, n=60):
    """n uniform nodes in [-1, 1]^2 from ``default_rng([seed, 2])``, redrawn
    closer than 0.05: the benchmark's 2-d power-bound design."""
    rng = np.random.default_rng([seed, 2])
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1.0, 1.0, 2)
        if not pts or np.min(np.sum((np.array(pts) - p) ** 2, axis=1)) > 0.05 ** 2:
            pts.append(p)
    return NodeSet(np.array(pts), np.zeros(n))


class TestClosedFormP2:
    def test_sqrt_two_example(self):
        assert power_function_p2_closed(MODEL3, NODES01, [-1.0]) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_zero_at_nodes(self):
        assert power_function_p2_closed(MODEL3, NODES01, [0.0]) <= 1e-7
        assert power_function_p2_closed(MODEL3, NODES01, [1.0]) <= 1e-7

    def test_singular_gram_rejected(self):
        model1 = FeatureModel.power_series(BOX, 1, weights=np.ones(1))
        nodes = NodeSet(np.array([[0.5], [1.0]]), np.zeros(2))
        with pytest.raises(SingularGram):
            power_function_p2_closed(model1, nodes, [0.0])


class TestPowerFunction:
    def test_m2_agrees_with_closed_form(self):
        for x in np.linspace(-1, 1, 101):
            solved = power_function(MODEL3, NODES01, 2, [x])
            closed = power_function_p2_closed(MODEL3, NODES01, [x])
            assert solved == pytest.approx(closed, abs=1e-8)

    def test_sqrt_two_example_via_solver(self):
        assert power_function(MODEL3, NODES01, 2, [-1.0]) == pytest.approx(
            np.sqrt(2.0), rel=1e-10
        )

    def test_vanishes_at_nodes(self):
        for m in (2, 4, 6):
            assert power_function(MODEL3, NODES01, m, [0.0]) <= 1e-6
            assert power_function(MODEL3, NODES01, m, [1.0]) <= 1e-6

    def test_exactly_representable_features(self):
        # K = n with invertible V: every section reproducible, P identically 0
        model2 = FeatureModel.power_series(BOX, 2, weights=np.ones(2))
        for x in np.linspace(-1, 1, 11):
            assert power_function(model2, NODES01, 4, [x]) <= 1e-7

    def test_order_monotonicity(self):
        for x in np.linspace(-1, 1, 21):
            p2 = power_function(MODEL3, NODES01, 2, [x])
            p4 = power_function(MODEL3, NODES01, 4, [x])
            p6 = power_function(MODEL3, NODES01, 6, [x])
            assert p4 <= p2 + 1e-8
            assert p6 <= p4 + 1e-8

    def test_brute_force_oracle(self):
        for x in (-1.0, -0.5, 0.5):
            fast = power_function(MODEL3, NODES01, 4, [x])
            brute = power_function_dense_oracle(MODEL3, NODES01, 4, [x])
            assert fast == pytest.approx(brute, abs=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(40)
        model = FeatureModel.trigonometric(BOX, 7)
        nodes = NodeSet(np.array([[-0.4], [0.3], [0.8]]), np.zeros(3))
        for _ in range(10):
            x = rng.uniform(-1, 1, size=1)
            assert power_function(model, nodes, 4, x) >= 0.0


class TestFillDistance:
    def test_two_node_example(self):
        nodes = NodeSet(np.array([[0.0], [1.0]]), np.zeros(2))
        assert fill_distance(nodes, BOX, 401) == pytest.approx(1.0, abs=5e-3)

    def test_nodes_on_grid(self):
        pts = np.linspace(-1, 1, 9)[:, None]
        nodes = NodeSet(pts, np.zeros(9))
        h = fill_distance(nodes, BOX, 9)
        spacing = np.linalg.norm((BOX.upper - BOX.lower) / 8)  # one grid cell's diagonal
        assert h <= spacing + 1e-12

    def test_adding_node_never_increases(self):
        rng = np.random.default_rng(41)
        pts = list(rng.uniform(-1, 1, size=(3, 1)))
        h_prev = np.inf
        for extra in rng.uniform(-1, 1, size=(5, 1)):
            nodes = NodeSet(np.array(pts), np.zeros(len(pts)))
            h = fill_distance(nodes, BOX, 201)
            assert h <= h_prev + 1e-12
            h_prev = h
            pts.append(extra)

    def test_2d_grid(self):
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        nodes = NodeSet(np.array([[0.0, 0.0]]), np.zeros(1))
        h = fill_distance(nodes, box2, 21)
        assert h == pytest.approx(np.sqrt(2.0), abs=1e-8)


    def test_matches_pairwise_oracle(self):
        # the (grid, node, dim) brute force the streaming minimum replaces
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        pts = np.random.default_rng(43).uniform(-1, 1, size=(17, 2))
        grid = domain_grid(box2, 31)
        diffs = grid[:, None, :] - pts[None, :, :]
        expected = float(np.sqrt(np.sum(diffs ** 2, axis=2)).min(axis=1).max())
        assert fill_distance(NodeSet(pts, np.zeros(17)), box2, 31) == expected

    @pytest.mark.parametrize("dim, node_dim", [(2, 1), (2, 3), (1, 2)])
    def test_nodes_of_another_dimension_refused(self, dim, node_dim):
        # 1-d nodes once broadcast over both axes of a 2-d grid and returned 1.4142
        box = Domain([-1.0] * dim, [1.0] * dim)
        nodes = NodeSet(np.zeros((1, node_dim)), np.zeros(1))
        with pytest.raises(DimensionMismatch,
                           match=f"nodes have dimension {node_dim}, domain has dimension {dim}"):
            fill_distance(nodes, box, 5)

    @pytest.mark.parametrize("values", [1, 7, 60, mkinterp.features.BLOCK_VALUES])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_match_the_loop_over_nodes(self, monkeypatch, dim, values):
        # one node at a time over the whole grid, the loop the blocks replace; the blocks
        # hold at most `values` differences (at least one node against one grid point)
        box = Domain([-1.0] * dim, [2.0] * dim)
        pts = np.random.default_rng([44, dim]).uniform(-1, 2, size=(13, dim))
        grid = domain_grid(box, 7)
        nearest_sq = np.full(len(grid), np.inf)
        for node in pts:
            np.minimum(nearest_sq, np.sum((grid - node) ** 2, axis=1), out=nearest_sq)
        total, sizes = np.sum, []

        def recording(a, *args, **kwargs):
            sizes.append(np.size(a))
            return total(a, *args, **kwargs)

        monkeypatch.setattr(mkinterp.power, "BLOCK_VALUES", values)
        monkeypatch.setattr(np, "sum", recording)
        h = fill_distance(NodeSet(pts, np.zeros(13)), box, 7)
        monkeypatch.setattr(np, "sum", total)
        assert h == float(np.sqrt(nearest_sq.max()))
        # the squared differences of each block, 13 nodes by 7^dim grid points in all
        assert sum(sizes) == 13 * 7 ** dim * dim
        assert max(sizes) <= max(values, dim)


class TestErrorBound:
    def test_arithmetic(self):
        assert error_bound(0.0, 3.0) == 0.0
        assert error_bound(5.0, 0.0) == 0.0
        assert error_bound(17 ** 0.75, np.sqrt(2)) == pytest.approx(
            2 * 17 ** 0.75 * np.sqrt(2)
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            error_bound(-1.0, 1.0)

    def test_negative_p_m_rejected(self):
        with pytest.raises(ValueError, match="p_m must be nonnegative"):
            error_bound(1.0, [-1.0])

    def test_elementwise_over_arrays(self):
        np.testing.assert_array_equal(error_bound(1.5, np.array([0.0, 0.25, 2.0])),
                                      [0.0, 0.75, 6.0])

    @pytest.mark.parametrize("f_norm", [np.nan, np.inf])
    def test_non_finite_norm_rejected(self, f_norm):
        with pytest.raises(ValueError, match="f_norm"):
            error_bound(f_norm, np.array([0.0, 1.0]))

    def test_overflowing_bound_rejected(self):
        assert error_bound(1e308, 0.25) == 5e307  # 2 f_norm alone would overflow
        with pytest.raises(ValueError, match="not finite"):
            error_bound(1e308, np.array([0.0, 1.0]))


class TestPowerReport:
    def test_invariants(self):
        grid = domain_grid(BOX, 41)
        report = power_report(MODEL3, NODES01, 4, grid, f_norm=2.0)
        assert np.all(report.p_m >= 0)
        assert np.all(report.p_m <= report.p_2 + 1e-8)
        np.testing.assert_allclose(report.bound, 2 * 2.0 * report.p_m)
        node_idx = [0, len(grid) // 2]  # grid includes -1 and 0
        assert report.p_m[np.argmin(np.abs(grid[:, 0]))] <= 1e-6
        assert report.order == 4

    @pytest.mark.parametrize("f_norm", [-1.0, np.nan, np.inf])
    def test_bad_norm_rejected_before_any_work(self, monkeypatch, f_norm):
        calls = []
        monkeypatch.setattr(mkinterp.power, "eval_features",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="f_norm"):
            power_report(MODEL3, NODES01, 4, domain_grid(BOX, 5), f_norm=f_norm)
        assert calls == []


class TestBatchedPowerReport:
    """power_report shares one node Gram and one multi-RHS least-squares
    solve over a block of points; its residual gives P_2 and its solution
    starts P_m.  The per-point public functions stay the reference."""

    BOX2 = Domain([-1.0, -1.0], [1.0, 1.0])
    MODEL = FeatureModel.trigonometric(BOX2, 30, decay=0.6)
    NODES = NodeSet(np.random.default_rng(44).uniform(-1, 1, size=(9, 2)), np.zeros(9))

    def test_p2_matches_closed_form_per_point(self):
        grid = domain_grid(self.BOX2, 9)
        report = power_report(self.MODEL, self.NODES, 4, grid)
        closed = np.array([power_function_p2_closed(self.MODEL, self.NODES, x)
                           for x in grid])
        # compare P_2^2: the closed form cancels near nodes, and the square
        # root would magnify rounding there
        np.testing.assert_allclose(report.p_2 ** 2, closed ** 2, rtol=0, atol=1e-12)

    def test_pm_matches_power_function_per_point(self):
        grid = domain_grid(self.BOX2, 7)
        report = power_report(self.MODEL, self.NODES, 4, grid)
        solved = np.array([power_function(self.MODEL, self.NODES, 4, x) for x in grid])
        np.testing.assert_allclose(report.p_m, solved, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 4])
    def test_power_function_is_power_report_at_one_point(self, m):
        for x in domain_grid(self.BOX2, 5):
            assert (power_function(self.MODEL, self.NODES, m, x)
                    == power_report(self.MODEL, self.NODES, m, [x]).p_m[0])

    def test_p2_vanishes_at_nodes(self):
        # the closed form cancels to about 3e-8 here
        report = power_report(self.MODEL, self.NODES, 4, self.NODES.points)
        assert np.all(report.p_2 <= 1e-13)
        assert np.all(report.p_m <= 1e-13)

    def test_m2_pm_is_p2(self):
        report = power_report(self.MODEL, self.NODES, 2, domain_grid(self.BOX2, 9))
        np.testing.assert_array_equal(report.p_m, report.p_2)

    def test_singular_gram_falls_back_to_minimization(self):
        model1 = FeatureModel.power_series(BOX, 1, weights=np.ones(1))
        nodes = NodeSet(np.array([[0.0], [0.5], [1.0]]), np.zeros(3))
        grid = domain_grid(BOX, 5)
        report = power_report(model1, nodes, 4, grid)
        expected = [power_function(model1, nodes, 2, x) for x in grid]
        np.testing.assert_allclose(report.p_2, expected, atol=1e-12)
        assert np.all(report.p_m <= 1e-6)


class TestLockStepPowerValues:
    """Every point of a block descends in one stack through the Newton core."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_report_matches_power_function_at_each_study_point(self, n):
        nodes = study_nodes(n)
        report = power_report(STUDY_MODEL, nodes, 4, STUDY_GRID)
        single = [power_function(STUDY_MODEL, nodes, 4, x) for x in STUDY_GRID]
        np.testing.assert_allclose(report.p_m, single, rtol=1e-12, atol=0.0)

    def test_hessian_stack_stays_within_its_cap(self):
        # one block of 160 points at n = 200 nodes: an uncapped (160, 200, 200)
        # Hessian stack alone would be 51 MB
        model = FeatureModel.trigonometric(BOX, 400, decay=0.5)
        points = np.linspace(-1.0, 1.0, 160)[:, None]
        assert len(point_blocks(model, 160)) == 1
        tracemalloc.start()
        try:
            report = power_report(model, study_nodes(200), 4, points,
                                  opts=SolverOptions(max_iterations=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(report.p_m)) and np.all(report.iterations <= 1)
        assert peak < 8 * 2 ** 20

    @staticmethod
    def benchmark_case():
        """The benchmark's power-bound inputs: 2-d trig K=120, 60 nodes, a 15 x 15 grid."""
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        return FeatureModel.trigonometric(box2, 120, 0.5), benchmark_2d_nodes(), domain_grid(box2, 15)

    def test_pair_table_route_matches_the_row_route(self, monkeypatch):
        model, nodes, grid = self.benchmark_case()
        build, tables = mkinterp.power.pair_products, []

        def recording(W):
            tables.append(build(W))
            return tables[-1]

        monkeypatch.setattr(mkinterp.power, "pair_products", recording)
        paired = power_report(model, nodes, 4, grid)
        assert len(tables) == 1 and tables[0] is not None  # one block of 225 points
        monkeypatch.setattr(mkinterp.power, "_PAIR_ROWS", len(grid) + 1)
        per_row = power_report(model, nodes, 4, grid)
        assert len(tables) == 1
        np.testing.assert_array_equal(paired.iterations, per_row.iterations)
        np.testing.assert_array_equal(paired.stop_reasons, per_row.stop_reasons)
        np.testing.assert_allclose(paired.p_m, per_row.p_m, rtol=1e-13, atol=0.0)

    def test_power_function_matches_the_pair_table_route(self):
        # power_function descends one row, so it forms its Hessians per row
        model, nodes, grid = self.benchmark_case()
        report = power_report(model, nodes, 4, grid)
        for x, p_m in zip(grid[::8], report.p_m[::8]):
            assert power_function(model, nodes, 4, x) == pytest.approx(p_m, rel=1e-13, abs=0.0)

    def test_benchmark_shape_peak_memory(self):
        # the pair table (1.7 MiB) and one Hessian chunk (1 MiB) are most of it; more
        # would lift the power process above the study's in the benchmark's peak RSS
        model, nodes, grid = self.benchmark_case()
        tracemalloc.start()
        try:
            power_report(model, nodes, 4, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20

    def test_benchmark_inputs_all_converge(self):
        model, nodes, grid = self.benchmark_case()
        reports = [power_report(model, nodes, 4, grid)]
        reports += [power_report(STUDY_MODEL, study_nodes(n), 4, STUDY_GRID)
                    for n in (8, 16, 32, 64)]
        for report in reports:
            assert set(report.stop_reasons) == {"converged"}
            assert report.iterations.dtype.kind == "i"
            assert np.all(report.iterations <= SolverOptions().max_iterations)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_iterations_count_the_continuation_steps(self, budget):
        # m = 4 continues through p = 3 and 3.5, one step each, within the budget
        report = power_report(STUDY_MODEL, study_nodes(16), 4, STUDY_GRID,
                              opts=SolverOptions(max_iterations=budget))
        unlimited = power_report(STUDY_MODEL, study_nodes(16), 4, STUDY_GRID)
        assert np.all(report.iterations <= budget)
        assert np.all(report.stop_reasons[report.iterations < budget] == "converged")
        assert np.all(unlimited.iterations >= 2)
        np.testing.assert_array_equal(report.iterations, np.minimum(unlimited.iterations, budget))

    @pytest.mark.parametrize("budget", [2.5, -1, True])
    def test_budget_must_be_a_nonnegative_integer(self, budget):
        # the budget also slices the P_m continuation's exponents
        with pytest.raises(ValueError, match="max_iterations"):
            power_report(STUDY_MODEL, study_nodes(8), 4, STUDY_GRID,
                         opts=SolverOptions(max_iterations=budget))

    def test_order_two_takes_no_newton_step(self):
        report = power_report(STUDY_MODEL, study_nodes(8), 2, STUDY_GRID)
        assert np.all(report.iterations == 0)
        assert set(report.stop_reasons) == {"converged"}


class TestDualityCertificate:
    """``PowerReport.p_m_lower``: Hoelder's bound ``|lambda . b| / ||lambda||_q`` over
    lambda in null(V), less its rounding allowance, at each point's last iterate;
    a descent of at least ``_PAIR_ROWS`` points also stops on it."""

    # (family, dim, K, n): every design has n < K, so null(V) is not {0}
    DESIGNS = [("power", 1, 10, 4), ("trig", 1, 15, 5), ("power", 2, 21, 8),
               ("trig", 2, 30, 10), ("power", 3, 35, 12), ("trig", 3, 40, 12)]

    @staticmethod
    def design(family, dim, K, n, points=24):
        box = Domain([-1.0] * dim, [1.0] * dim)
        build = FeatureModel.power_series if family == "power" else FeatureModel.trigonometric
        rng = np.random.default_rng([dim, K, n])
        nodes = NodeSet(rng.uniform(-1.0, 1.0, (n, dim)), np.zeros(n))
        return build(box, K, 0.7), nodes, rng.uniform(-1.0, 1.0, (points, dim))

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("family, dim, K, n", DESIGNS)
    def test_lower_bound_brackets_the_long_double_minimum(self, family, dim, K, n, m):
        model, nodes, points = self.design(family, dim, K, n)
        report = power_report(model, nodes, m, points)
        reference = power_values_long_double(model, nodes, m, points).astype(float)
        V, B = eval_features(model, nodes.points), eval_features(model, points)
        thetas, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
        upper = np.linalg.norm(B - thetas.T @ V, ord=m, axis=1)
        assert set(report.stop_reasons) == {"converged"}
        assert np.all(report.p_m_lower <= reference)
        assert np.all(report.p_m_lower <= report.p_m)
        assert np.all(report.p_m <= upper * (1.0 + 1e-12))
        # away from the nodes the bound is tight, well inside the descent's stop
        np.testing.assert_allclose(report.p_m_lower, report.p_m, rtol=1e-8, atol=0.0)

    def test_no_bound_without_a_null_space_or_at_a_node(self):
        model, nodes, points = self.design("trig", 2, 30, 10)
        at_nodes = power_report(model, nodes, 4, np.vstack([points, nodes.points]))
        assert np.all(at_nodes.p_m_lower[len(points):] == 0.0)
        assert np.all(at_nodes.p_m_lower <= at_nodes.p_m)
        # n >= K: null(V) = {0}, and the report holds zeros
        few = FeatureModel.trigonometric(model.domain, 9, 0.7)
        assert np.all(power_report(few, nodes, 4, points).p_m_lower == 0.0)

    def test_order_two_bound_is_p2(self):
        # at the l2 minimizer lambda is the residual itself: the bound is its 2-norm
        model, nodes, points = self.design("power", 2, 21, 8)
        report = power_report(model, nodes, 2, points)
        np.testing.assert_allclose(report.p_m_lower, report.p_2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("route", ["pair table", "per row"])
    def test_gap_stop_saves_newton_systems_and_no_bit(self, monkeypatch, route):
        # the benchmark's power-bound inputs: 225 points, one block
        model, nodes, grid = TestLockStepPowerValues.benchmark_case()
        if route == "per row":
            monkeypatch.setattr(mkinterp.power, "pair_products", lambda W: None)
        directions, formed = mkinterp.solver._newton_directions, []

        def counting(W, R, G, *args):
            formed.append(len(R))  # the rows still descending, compacted
            return directions(W, R, G, *args)

        monkeypatch.setattr(mkinterp.solver, "_newton_directions", counting)
        gap = power_report(model, nodes, 4, grid)
        with_gap = sum(formed)
        formed.clear()
        monkeypatch.setattr(mkinterp.power, "_range_basis", lambda V: None)
        decrement = power_report(model, nodes, 4, grid)
        without_gap = sum(formed)
        np.testing.assert_array_equal(gap.p_m, decrement.p_m)
        np.testing.assert_array_equal(gap.iterations, decrement.iterations)
        np.testing.assert_array_equal(gap.stop_reasons, decrement.stop_reasons)
        assert set(gap.stop_reasons) == {"converged"}
        # the decrement stop solves one system per point that no step uses
        assert without_gap == int(decrement.iterations.sum()) + len(grid)
        assert with_gap <= without_gap - 150
        assert np.all((0.0 < gap.p_m_lower) & (gap.p_m_lower <= gap.p_m))
        assert np.all(decrement.p_m_lower == 0.0)

    def test_small_stacks_skip_the_gap_test(self, monkeypatch):
        # power_function's one point and a study's pruned stacks: the core gets no bound
        model, nodes, points = self.design("trig", 2, 30, 10)
        core, given = mkinterp.power._minimize_even_power, []

        def recording(W, u, ell, Z, p, *args, lower=None, **kwargs):
            given.append((len(Z), p, lower is not None))
            return core(W, u, ell, Z, p, *args, lower=lower, **kwargs)

        monkeypatch.setattr(mkinterp.power, "_minimize_even_power", recording)
        rows = mkinterp.power._PAIR_ROWS
        power_report(model, nodes, 4, points[:rows - 1])
        assert given == [(rows - 1, 3, False), (rows - 1, 3.5, False), (rows - 1, 4, False)]
        given.clear()
        power_report(model, nodes, 4, points[:rows])
        assert given == [(rows, 3, False), (rows, 3.5, False), (rows, 4, True)]


class TestConvergenceStudy:
    def test_unconverged_row_raises_with_its_report(self):
        # `mkinterp study --node-counts 4,8 --kernel trig --truncation 9 --order 4 --grid 11
        # --tol 1e-300`: the first row's fit stalls at the rounding floor
        model = FeatureModel.trigonometric(BOX, 9, 0.5)
        f_alpha = np.random.default_rng(0).standard_normal(9)
        opts = SolverOptions(residual_tol=1e-300)
        with pytest.raises(NotConverged) as raised:
            convergence_study(model, f_alpha, 4, [4, 8], domain_grid(BOX, 11), opts)
        report = raised.value.report
        assert (report.stop_reason, report.iterations) == ("stalled", 8)
        points = mkinterp.power._equispaced_nodes(BOX, 4)
        with pytest.raises(NotConverged) as alone:
            fit(model, NodeSet(points, eval_features(model, points) @ f_alpha), 4, opts)
        np.testing.assert_array_equal(report.coefficients, alone.value.report.coefficients)
        assert report.residual_norm == alone.value.report.residual_norm
        assert str(raised.value) == str(alone.value)

    def test_error_decreases_and_bound_dominates(self):
        model = FeatureModel.trigonometric(BOX, 21, decay=0.7)
        rng = np.random.default_rng(42)
        f_alpha = rng.standard_normal(21)
        grid = domain_grid(BOX, 101)
        result = convergence_study(
            model, f_alpha, 4, [4, 8, 16], grid,
            SolverOptions(residual_tol=1e-11, max_iterations=400),
        )
        errors = [row.max_error for row in result.rows]
        assert errors[0] > errors[1] > errors[2]
        f_norm = np.sum(np.abs(f_alpha) ** (4 / 3)) ** 0.75
        assert result.bound_dominates(1e-6 * (1 + f_norm))
        assert result.slope is not None and result.slope > 0

    @pytest.mark.parametrize("f_alpha, grid, message", [
        (np.ones(20), domain_grid(BOX, 11), "f_alpha must be 21 finite numbers, one per feature"),
        (np.ones((21, 1)), domain_grid(BOX, 11), "f_alpha must be 21 finite numbers"),
        (np.full(21, np.nan), domain_grid(BOX, 11), "f_alpha must be 21 finite numbers"),
        (np.ones(21), np.empty((0, 1)), "eval_grid has no points"),
        (np.ones(21), [], "eval_grid has no points"),
    ], ids=["short", "column", "nan", "no rows", "empty list"])
    def test_bad_target_or_empty_grid_refused_before_any_fit(self, monkeypatch, f_alpha,
                                                             grid, message):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(mkinterp.power, "_solved", no_fit)
        model = FeatureModel.trigonometric(BOX, 21, decay=0.7)
        with pytest.raises(ValueError, match=message):
            convergence_study(model, f_alpha, 4, [4, 8], grid)

    def test_node_features_evaluated_once_per_row(self, monkeypatch):
        calls = []

        def counting(model, x):
            calls.append(np.shape(x))
            return eval_features(model, x)

        monkeypatch.setattr(mkinterp.power, "eval_features", counting)
        monkeypatch.setattr(mkinterp.tensors, "eval_features", counting)
        model = FeatureModel.trigonometric(BOX, 21, decay=0.7)
        f_alpha = np.random.default_rng(42).standard_normal(21)
        # blocks of 40 points: the grid in three blocks
        monkeypatch.setattr(mkinterp.features, "BLOCK_VALUES", 40 * 21)
        convergence_study(model, f_alpha, 4, [4, 8], domain_grid(BOX, 101))
        # per row the nodes once, then each block of the grid once for both rows
        assert calls == [(4, 1), (8, 1), (40, 1), (40, 1), (21, 1)]

    @pytest.mark.parametrize("seed", [8, 11])
    def test_study_fits_converge_for_every_target(self, seed):
        # for these targets a line search that tests F alone stalls just
        # above the default tolerance
        model = FeatureModel.trigonometric(BOX, 81, decay=0.5)
        f_alpha = np.random.default_rng(seed).standard_normal(81)
        result = convergence_study(model, f_alpha, 4, [8, 16, 32, 64],
                                   domain_grid(BOX, 101))
        assert [row.n for row in result.rows] == [8, 16, 32, 64]
        f_norm = np.sum(np.abs(f_alpha) ** (4 / 3)) ** 0.75
        assert result.bound_dominates(1e-6 * (1 + f_norm))

    @staticmethod
    def check_row_against_long_double(m, n):
        """The study row's max bound, and P_m at every grid point, against the
        long-double Newton, to 1e-10 relative."""
        f_alpha = np.random.default_rng(0).standard_normal(81)
        row = convergence_study(STUDY_MODEL, f_alpha, m, [n], STUDY_GRID).rows[0]
        f_norm = np.sum(np.abs(f_alpha) ** (m / (m - 1))) ** ((m - 1) / m)
        nodes = study_nodes(n)
        reference = power_values_long_double(STUDY_MODEL, nodes, m, STUDY_GRID).astype(float)
        assert row.max_bound / (2.0 * f_norm) == pytest.approx(
            float(reference.max()), rel=1e-10, abs=0.0)
        np.testing.assert_allclose(power_report(STUDY_MODEL, nodes, m, STUDY_GRID).p_m,
                                   reference, rtol=1e-10, atol=0.0)

    def test_max_pm_matches_long_double_newton(self):
        # the n = 32 row of the trig K = 81 study: P_m is about 1e-4 near
        # the nodes, where the Newton Hessian scales with the residuals
        self.check_row_against_long_double(4, 32)

    @pytest.mark.parametrize("m, n", [(4, 64), (6, 32), (8, 32)])
    def test_pm_matches_long_double_newton_at_every_point(self, m, n):
        # P_m^m is far below 1 on these rows, so a stop on the gradient norm
        # alone ends the descent several percent above the minimum
        self.check_row_against_long_double(m, n)

    def test_target_in_reach_gives_tiny_error(self):
        model = FeatureModel.power_series(BOX, 3, weights=np.ones(3))
        f_alpha = np.array([1.0, -2.0, 0.5])
        grid = domain_grid(BOX, 51)
        result = convergence_study(model, f_alpha, 4, [3], grid)
        assert result.rows[0].max_error <= 1e-6
        assert result.slope is None


class TestPrunedStudyMaximum:
    """The study takes each row's largest P_m from the points whose
    ``||r_2||_m`` reaches the best value found; power_report descends at all."""

    F_ALPHA = np.random.default_rng(0).standard_normal(81)  # the benchmark's target

    @staticmethod
    def residual_bound(nodes, m, model=STUDY_MODEL):
        """``||r_2||_m`` at each study grid point: r_2 is the l2 residual."""
        V = eval_features(model, nodes.points)
        B = eval_features(model, STUDY_GRID)
        thetas, *_ = np.linalg.lstsq(V.T, B.T, rcond=None)
        return np.linalg.norm(B - thetas.T @ V, ord=m, axis=1)

    def max_bound(self, m, n, grid=STUDY_GRID):
        return convergence_study(STUDY_MODEL, self.F_ALPHA, m, [n], grid).rows[0].max_bound

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_max_bound_is_the_bound_at_the_largest_report_value(self, m):
        f_norm = np.sum(np.abs(self.F_ALPHA) ** (m / (m - 1))) ** ((m - 1) / m)
        for n in (8, 16, 32, 64):
            full = power_report(STUDY_MODEL, study_nodes(n), m, STUDY_GRID).p_m.max()
            assert self.max_bound(m, n) == pytest.approx(2.0 * f_norm * full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [4, 8])
    def test_maximum_away_from_the_largest_residual_bound(self, m):
        # one node, trig K = 5: P_m at the largest ||r_2||_m is 1-2% below the maximum
        model, nodes, f_alpha = FeatureModel.trigonometric(BOX, 5, decay=0.9), study_nodes(1), np.ones(5)
        p_m = power_report(model, nodes, m, STUDY_GRID).p_m
        assert p_m[np.argmax(self.residual_bound(nodes, m, model))] < 0.999 * p_m.max()
        row = convergence_study(model, f_alpha, m, [1], STUDY_GRID).rows[0]
        f_norm = 5 ** ((m - 1) / m)
        assert row.max_bound == pytest.approx(2.0 * f_norm * p_m.max(), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [4, 8])
    def test_best_value_carries_across_point_blocks(self, monkeypatch, m):
        # shuffled, so the largest P_m need not lie in the last block
        grid = np.random.default_rng(1).permutation(STUDY_GRID)
        expected = [self.max_bound(m, n, grid) for n in (16, 64)]
        monkeypatch.setattr(mkinterp.features, "BLOCK_VALUES", 81 * 20)
        assert len(point_blocks(STUDY_MODEL, len(grid))) == 6
        for n, want in zip((16, 64), expected):
            assert self.max_bound(m, n, grid) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_report_values_stay_under_the_residual_bound(self, m):
        for n in (8, 16, 32, 64):
            nodes = study_nodes(n)
            p_m = power_report(STUDY_MODEL, nodes, m, STUDY_GRID).p_m
            assert np.all(p_m <= self.residual_bound(nodes, m) * (1.0 + 1e-12))

    def test_few_points_reach_the_descent(self, monkeypatch):
        # the benchmark's study rows; every one of the 101 points descended before
        core, stacks = mkinterp.power._minimize_even_power, []

        def recording(W, u, ell, Z, p, *args, **kwargs):
            stacks.append((p, len(Z)))
            return core(W, u, ell, Z, p, *args, **kwargs)

        monkeypatch.setattr(mkinterp.power, "_minimize_even_power", recording)
        for n in (8, 16, 32, 64):
            stacks.clear()
            convergence_study(STUDY_MODEL, self.F_ALPHA, 4, [n], STUDY_GRID,
                              SolverOptions(residual_tol=1e-10))
            descended = sum(size for p, size in stacks if p == 4)
            assert 1 <= descended <= 15
            assert [size for p, size in stacks if p == 3] == [size for p, size in stacks if p == 4]


class TestIntegralOrder:
    """An order spelled as a numpy integer or an integral float runs as the int."""

    @pytest.mark.parametrize("m", [np.int64(4), 4.0, np.float64(4.0)], ids=repr)
    def test_power_report_runs_as_the_int(self, m):
        grid = domain_grid(BOX, 9)
        report, plain = (power_report(MODEL3, NODES01, order, grid) for order in (m, 4))
        assert type(report.order) is int
        assert report.p_m.tobytes() == plain.p_m.tobytes()
        assert report.iterations.tolist() == plain.iterations.tolist()

    @pytest.mark.parametrize("m", [np.int64(4), 4.0, np.float64(4.0)], ids=repr)
    def test_convergence_study_runs_as_the_int(self, m):
        model = FeatureModel.trigonometric(BOX, 21, decay=0.7)
        f_alpha = np.random.default_rng(42).standard_normal(21)
        grid = domain_grid(BOX, 41)
        result, plain = (convergence_study(model, f_alpha, order, [4, 8], grid)
                         for order in (m, 4))
        assert result == plain

    @pytest.mark.parametrize("m", [True, 4.5, "4"], ids=repr)
    def test_other_orders_refused(self, m):
        with pytest.raises(ValueError):
            power_report(MODEL3, NODES01, m, domain_grid(BOX, 9))
        with pytest.raises(ValueError):
            convergence_study(MODEL3, np.ones(3), m, [2], domain_grid(BOX, 9))
