import json
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkinterp import (
    DimensionMismatch,
    Domain,
    DuplicateNodes,
    FeatureModel,
    InvalidExponent,
    NodeSet,
    NotConverged,
    PointOutsideDomain,
    SingularDesignWarning,
    SolverOptions,
    UntabulatedPoint,
    ZeroFunction,
    banach_norm_direct,
    banach_norm_via_tensor,
    contract_m,
    eval_features,
    evaluate,
    evaluate_many,
    feature_coefficients,
    fit,
    from_json,
    gateaux_coefficients,
    to_json,
)
from mkinterp import cli, commands, features, interpolant, tensors
from mkinterp.features import FACE_TOLERANCE, TABLE_TOLERANCE, point_blocks
from mkinterp.tensors import FeatureGram
from oracles import dual_pairing, evaluate_tensor_basis

BOX = Domain([-1.0], [1.0])
MODEL2 = FeatureModel.power_series(BOX, 2, weights=np.ones(2))  # features (1, x)
NODES = NodeSet(np.array([[0.0], [1.0]]), np.array([8.0, 9.0]))


@pytest.fixture(scope="module")
def fitted():
    return fit(MODEL2, NODES, 4)


def random_fit(rng, m, n_max=10, k_max=30):
    n = int(rng.integers(2, n_max + 1))
    K = int(rng.integers(n + 2, max(n + 3, k_max + 1)))
    model = FeatureModel.trigonometric(BOX, K, decay=0.8)
    # jittered grid: separated nodes keep the Gram well conditioned
    spacing = min(1.8 / max(n - 1, 1), 0.3)
    pts = np.linspace(-0.9, 0.9, n) + rng.uniform(-0.3, 0.3, size=n) * spacing
    nodes = NodeSet(pts[:, None], rng.standard_normal(n))
    return fit(model, nodes, m, SolverOptions(residual_tol=1e-12,
                                              max_iterations=400))


class TestNodeSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicateNodes):
            NodeSet(np.array([[0.0], [0.0]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("points", [np.empty((0, 1)), np.empty(0), np.empty((0, 3))])
    def test_no_points_rejected(self, points):
        with pytest.raises(DimensionMismatch, match="^node set has no points$"):
            NodeSet(points, np.empty(0))

    def test_near_duplicates_rejected(self):
        with pytest.raises(DuplicateNodes):
            NodeSet(np.array([[0.0], [1e-13]]), np.array([1.0, 2.0]))

    def test_closest_pair_reported(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DuplicateNodes) as exc:
            NodeSet(pts, np.zeros(5))
        assert exc.value.pair == (0, 4)

    def test_huge_coordinates_construct_without_warning(self):
        # squared distances of 4e400 overflow to inf, which is no duplicate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes = NodeSet(np.array([[-1e200], [0.0], [1e200]]), np.zeros(3))
        assert nodes.n == 3

    def test_duplicate_scan_memory_is_linear_in_n(self):
        # 400 3-d nodes: all n^2 pairs at once would be 400 * 400 * 3 doubles
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(400, 3))
        values = np.zeros(400)
        tracemalloc.start()
        try:
            NodeSet(pts, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["points", "values"])
    def test_non_finite_nodes_or_values_rejected(self, bad, where):
        data = {"points": np.array([[0.0], [0.5], [1.0]]), "values": np.zeros(3)}
        data[where][-1] = bad
        with pytest.raises(ValueError, match="^nodes and values must be finite$"):
            NodeSet(**data)

    def test_non_finite_row_is_refused_before_the_pair_it_hides(self):
        # rows 0 and 1 coincide; the NaN row must not mask them or be accepted
        with pytest.raises(ValueError, match="^nodes and values must be finite$"):
            NodeSet(np.array([[0.0], [1e-13], [np.nan]]), np.zeros(3))


def loop_closest_pair(pts):
    """The one-node-at-a-time scan: per row i, the first nearest later row."""
    closest_sq, pair = np.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(pts.shape[0] - 1):
            dist_sq = np.sum((pts[i + 1:] - pts[i]) ** 2, axis=1)
            j = int(np.argmin(dist_sq))
            if dist_sq[j] < closest_sq:
                closest_sq, pair = float(dist_sq[j]), (i, i + 1 + j)
    return closest_sq, pair


def loop_coincident_pair(pts):
    """:func:`loop_closest_pair`, kept only if its rows lie within 1e-12."""
    closest_sq, pair = loop_closest_pair(pts)
    return (closest_sq, pair) if np.sqrt(closest_sq) <= 1e-12 else (np.inf, None)


def plane_orthogonal_to_the_sweep(n, seed):
    """n 3-d nodes on the plane through 0 orthogonal to the sweep direction u."""
    u = interpolant._sweep_direction(3)
    first = np.cross(u, [1.0, 0.0, 0.0])
    second = np.cross(u, first)
    basis = np.stack([first / np.linalg.norm(first), second / np.linalg.norm(second)])
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2)) @ basis


class TestClosestPairScan:
    """The sort-and-sweep reports the pair the one-row loop reports, if that
    pair lies within 1e-12, with the same squared distance; else none."""

    @pytest.mark.parametrize("seed", [1, 5, 64, 1 << 14])
    def test_duplicate_rich_trials_match_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        for trial in range(60):
            n, d = int(rng.integers(0, 40)), int(rng.integers(1, 5))
            pts = rng.integers(0, 3, size=(n, d)).astype(float)  # many equal distances
            if trial % 2:
                pts *= 1e200  # squared distances overflow
            assert interpolant._coincident_pair(pts) == loop_coincident_pair(pts)

    @pytest.mark.parametrize("gap", [3e-13, 9e-13, 1.1e-12, 5e-12])
    @pytest.mark.parametrize("magnitude", [1.0, 1e6, 1e200])
    def test_near_pairs_match_the_loop(self, gap, magnitude):
        rng = np.random.default_rng(int(gap * 1e15) + int(np.log10(magnitude)))
        hits = 0
        for _ in range(20):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
            pts = rng.uniform(-magnitude, magnitude, size=(n, d))
            base = rng.integers(0, n, size=3)
            # pairs gap apart near a node of the set and near the origin
            step = rng.standard_normal((3, d))
            step *= gap / np.linalg.norm(step, axis=1, keepdims=True)
            origin = rng.uniform(-1.0, 1.0, (1, d)) + [[0.0], [1.0]] * step[0]
            extra = np.vstack([pts[base] + step, origin])
            pts = rng.permutation(np.vstack([pts, extra]))
            found = interpolant._coincident_pair(pts)
            assert found == loop_coincident_pair(pts)
            hits += found[1] is not None
        if gap < 1e-12:
            assert hits == 20  # each trial holds such a pair near the origin

    def test_box_near_the_largest_double(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, size=(200, 3)) * 1.7e308
        pts[150] = pts[20]
        pts[[60, 90]] = [np.full(3, 1.7e308), np.full(3, -1.7e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            found = interpolant._coincident_pair(pts)
            with pytest.raises(DuplicateNodes) as exc:
                NodeSet(pts, np.zeros(200))
        assert found == loop_coincident_pair(pts) == (0.0, (20, 150))
        assert exc.value.pair == (20, 150)

    def test_plane_orthogonal_to_the_direction_matches_the_loop(self):
        # every pair falls in the window: the sweep runs through all offsets
        pts = plane_orthogonal_to_the_sweep(120, seed=3)
        pts[[30, 80]] = pts[[100, 5]] + 4e-13
        assert interpolant._coincident_pair(pts) == loop_coincident_pair(pts)
        assert loop_coincident_pair(pts)[1] == (5, 80)

    def test_plane_orthogonal_to_the_direction_keeps_memory_linear(self):
        peaks = []
        for n in (200, 800):
            pts = plane_orthogonal_to_the_sweep(n, seed=n)
            tracemalloc.start()
            try:
                assert interpolant._coincident_pair(pts) == (np.inf, None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 40 * 8 * 800  # a few dozen doubles per node, not n per node
        assert peaks[1] < 6 * peaks[0]

    def test_pair_projected_apart_by_rounding_alone(self):
        # near |x| = 1e5 a projection rounds by about 1e-12, so two nodes
        # 9e-13 apart can project further apart than 1e-12 * ||u||_2
        u, rng = interpolant._sweep_direction(3), np.random.default_rng(5)
        for _ in range(1000):
            pts = rng.uniform(-1.0, 1.0, size=(50, 3))
            pts[40, 0] = rng.uniform(5e4, 1e5)
            pts[45] = pts[40] + [0.0, 9e-13, 0.0]
            projections = pts @ u
            if abs(projections[45] - projections[40]) > 2e-12 * np.linalg.norm(u):
                break
        assert interpolant._coincident_pair(pts) == loop_coincident_pair(pts)
        assert loop_coincident_pair(pts)[1] == (40, 45)

    def test_a_far_node_leaves_the_other_windows_narrow(self):
        # each row's window grows with its own magnitude only: one node at
        # 1e200 must not send the sweep through all n offsets (about 3 ms
        # here; one window as wide as the widest takes about a minute)
        pts = np.random.default_rng(11).uniform(-1.0, 1.0, size=(20_000, 3))
        pts[[5000, 17]] = [[1e200, 0.0, 0.0], pts[19_000]]
        start = time.perf_counter()
        assert interpolant._coincident_pair(pts) == (0.0, (17, 19_000))
        assert time.perf_counter() - start < 1.0

    def test_duplicates_far_apart_in_input_order(self):
        pts = np.arange(8.0)[:, None] * np.array([[1.0, 2.0]])
        pts[5] = pts[2]
        pts[7] = pts[4]
        with pytest.raises(DuplicateNodes) as exc:
            NodeSet(pts, np.zeros(8))
        assert exc.value.pair == (2, 5) == loop_closest_pair(pts)[1]


class TestFit:
    def test_documented_example(self, fitted):
        np.testing.assert_allclose(fitted.coefficients, [1.0, 1.0], atol=1e-8)

    def test_interpolation_conditions(self, fitted):
        tol = 10 * SolverOptions().residual_tol
        assert abs(evaluate(fitted, [0.0]) - 8.0) <= tol
        assert abs(evaluate(fitted, [1.0]) - 9.0) <= tol

    def test_not_converged_raises_with_report(self):
        with pytest.raises(NotConverged) as exc:
            fit(MODEL2, NODES, 4, SolverOptions(max_iterations=1, residual_tol=1e-15))
        report = exc.value.report
        assert report.stop_reason == "max_iterations"
        assert report.iterations == 1
        assert np.all(np.isfinite(report.coefficients))

    def test_zero_values_give_zero_interpolant(self):
        nodes = NodeSet(np.array([[0.0], [1.0]]), np.zeros(2))
        s = fit(MODEL2, nodes, 4)
        np.testing.assert_allclose(feature_coefficients(s), np.zeros(2), atol=1e-10)

    def test_m2_classical_interpolant(self):
        s = fit(MODEL2, NODES, 2)
        direct = np.linalg.solve(s.gram.V @ s.gram.V.T, NODES.values)
        np.testing.assert_allclose(s.coefficients, direct, atol=1e-9)
        assert evaluate(s, [0.0]) == pytest.approx(8.0, abs=1e-9)

    def test_random_instances_interpolate(self):
        rng = np.random.default_rng(30)
        for m in (2, 4, 6):
            s = random_fit(rng, m)
            got = evaluate_many(s, s.nodes.points)
            np.testing.assert_allclose(got, s.nodes.values, atol=1e-8)


class TestEvaluate:
    def test_closed_form_values(self, fitted):
        # s_4(x) = 8 + x
        assert evaluate(fitted, [0.5]) == pytest.approx(8.5, abs=1e-8)

    def test_tensor_basis_oracle(self, fitted):
        rng = np.random.default_rng(31)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=1)
            assert evaluate(fitted, x) == pytest.approx(
                evaluate_tensor_basis(fitted, x), rel=1e-10, abs=1e-10
            )

    def test_tensor_basis_oracle_larger(self):
        rng = np.random.default_rng(32)
        model = FeatureModel.trigonometric(BOX, 8)
        nodes = NodeSet(np.linspace(-0.9, 0.9, 4)[:, None], rng.standard_normal(4))
        s = fit(model, nodes, 4)
        for _ in range(3):
            x = rng.uniform(-1, 1, size=1)
            assert evaluate(s, x) == pytest.approx(
                evaluate_tensor_basis(s, x), rel=1e-10, abs=1e-10
            )


def sum_bound(s, X):
    """The rounding bound of a K-term sum, 2 K eps sum |alpha_k phi_k|, at each row of X."""
    alpha = feature_coefficients(s)
    return 2 * alpha.size * np.finfo(float).eps * np.abs(alpha * eval_features(s.model, X)).sum(axis=1)


def within_sum_bound(s, X, got):
    """Rows of ``got`` lie within :func:`sum_bound` of the feature-matrix product."""
    return np.all(np.abs(got - eval_features(s.model, X) @ feature_coefficients(s))
                  <= sum_bound(s, X))


def tensor_grid(*axes):
    """The row-major tensor grid of the axes, as ``domain_grid`` orders it."""
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def nested_grid(axes, order):
    """The tensor grid of the axes with coordinate ``order[0]`` slowest and
    ``order[-1]`` fastest; ``(1, 0)`` is ``np.meshgrid``'s default ``xy``."""
    return tensor_grid(*[axes[j] for j in order])[:, np.argsort(order)]


FAMILIES = {"power": FeatureModel.power_series, "trig": FeatureModel.trigonometric}
TRUNCATION_BY_DIM = {1: 9, 2: 24, 3: 50}


def family_fit(family, dim):
    """An order-4 fit of a ``power`` or ``trig`` model on the box [-1, 2]^dim."""
    rng = np.random.default_rng(70 + dim)
    box = Domain([-1.0] * dim, [2.0] * dim)
    model = FAMILIES[family](box, TRUNCATION_BY_DIM[dim], decay=0.6)
    pts = rng.uniform(-1, 2, size=(5, dim))
    return fit(model, NodeSet(pts, np.cos(pts.sum(axis=1))), 4)


def custom_fit():
    """A 1-d custom-table interpolant tabulated at 0, 0.5 and 1."""
    table = np.array([[0.0], [0.5], [1.0]])
    model = FeatureModel.custom_table(table, [[1.0, 0.0, 0.0], [1.0, 0.5, 0.25],
                                              [1.0, 1.0, 1.0]])
    return fit(model, NodeSet(table, np.array([1.0, 2.0, 4.0])), 2)


def face_points(dim):
    """Points on the faces of [-1, 2]^dim and within FACE_TOLERANCE beyond them."""
    inside = np.full(dim, 0.3)
    out = []
    for j in range(dim):
        for value in (-1.0, 2.0, -1.0 - FACE_TOLERANCE / 2, 2.0 + FACE_TOLERANCE / 2):
            x = inside.copy()
            x[j] = value
            out.append(x)
    out.append(np.full(dim, 2.0 + FACE_TOLERANCE / 2))  # a corner
    return np.array(out)


class TestEvaluateMany:
    """The contraction against the feature-matrix product and the point-by-point
    dot products.  They sum in other orders, so rows agree to the rounding bound
    of a K-term dot product, 2 K eps sum |alpha_k phi_k|."""

    @pytest.fixture(scope="class")
    def trig_fit(self):
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        model = FeatureModel.trigonometric(box2, 60, decay=0.6)
        pts = np.random.default_rng(50).uniform(-1, 1, size=(12, 2))
        return fit(model, NodeSet(pts, np.sin(2 * pts[:, 0]) + pts[:, 1]), 4)

    def test_matches_evaluate_row_by_row(self, trig_fit):
        X = np.random.default_rng(51).uniform(-1, 1, size=(2500, 2))  # three blocks
        alpha = feature_coefficients(trig_fit)
        terms = np.abs(alpha * eval_features(trig_fit.model, X))
        bound = 2 * alpha.size * np.finfo(float).eps * terms.sum(axis=1)
        got = evaluate_many(trig_fit, X)
        one_by_one = np.array([evaluate(trig_fit, x) for x in X])
        seed_loop = np.array([float(alpha @ eval_features(trig_fit.model, x)) for x in X])
        assert np.all(np.abs(got - one_by_one) <= bound)
        assert np.all(np.abs(got - seed_loop) <= bound)

    def test_empty_and_single(self, trig_fit):
        assert evaluate_many(trig_fit, np.empty((0, 2))).shape == (0,)
        x = np.array([0.3, -0.2])
        assert evaluate_many(trig_fit, x).tolist() == [evaluate(trig_fit, x)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_every_family_and_dimension(self, family, dim):
        s = family_fit(family, dim)
        X = np.vstack([np.random.default_rng(72).uniform(-1, 2, size=(3000, dim)),
                       face_points(dim)])
        assert within_sum_bound(s, X, evaluate_many(s, X))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_grid_matches_evaluate_point_by_point(self, family, dim):
        # a tensor grid repeats every coordinate value across rows and blocks
        s = family_fit(family, dim)
        axis = np.concatenate([np.linspace(-1.0, 2.0, 23 if dim == 2 else 9),
                               [-0.0, 2.0 + FACE_TOLERANCE / 2]])
        X = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=1)
        got = evaluate_many(s, X)
        one_by_one = np.array([evaluate(s, x) for x in X])
        alpha = feature_coefficients(s)
        terms = np.abs(alpha * eval_features(s.model, X))
        assert np.all(np.abs(got - one_by_one)
                      <= 2 * alpha.size * np.finfo(float).eps * terms.sum(axis=1))
        assert within_sum_bound(s, X, got)

    def test_grid_memory_stays_within_blocks(self):
        # the benchmark's 2-d model shape (trig K = 120) on a 201 x 201 grid:
        # the result plus about two blocks of BLOCK_VALUES doubles; the
        # (N, K) features alone would be 37 MiB
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        model = FeatureModel.trigonometric(box2, 120, decay=0.5)
        pts = np.random.default_rng(60).uniform(-1, 1, size=(30, 2))
        s = fit(model, NodeSet(pts, np.sin(2 * pts[:, 0]) + pts[:, 1]), 4)
        axis = np.linspace(-1.0, 1.0, 201)
        X = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        evaluate_many(s, X[:10])
        tracemalloc.start()
        try:
            evaluate_many(s, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.shape[0] * 8 + 2 * 8 * features.BLOCK_VALUES

    @staticmethod
    def spy(monkeypatch, name):
        """The argument tuples of each later call of ``features.<name>``."""
        calls, function = [], getattr(features, name)

        def record(*args):
            calls.append(args)
            return function(*args)

        monkeypatch.setattr(features, name, record)
        return calls

    @staticmethod
    def block_route(monkeypatch, s, X):
        """``evaluate_many`` with the grid route off: every X goes through the block loop."""
        with monkeypatch.context() as patch:
            patch.setattr(features, "_grid_axes", lambda X: None)
            return evaluate_many(s, X)

    # grids by nesting order, slowest coordinate first: row-major in 2-d and
    # 3-d, np.meshgrid's default "xy", another 3-d order, and a row-major
    # grid with an axis of one value (its column never changes)
    GRID_ORDERS = {"2": (0, 1), "3": (0, 1, 2), "xy": (1, 0), "zxy": (2, 0, 1),
                   "size_1": (0, 1, 2)}

    @pytest.mark.parametrize("grid", list(GRID_ORDERS))
    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_grid_route_tabulates_each_axis_once(self, family, grid, monkeypatch):
        sizes = {"2": (41, 23), "xy": (41, 23), "size_1": (41, 1, 17)}.get(grid, (41, 23, 17))
        dim = len(sizes)
        s = family_fit(family, dim)
        axes = [np.linspace(-1.0, 2.0, n) for n in sizes]
        X = nested_grid(axes, self.GRID_ORDERS[grid])
        if grid == "xy":
            assert np.array_equal(X, np.stack([m.ravel() for m in np.meshgrid(*axes)], axis=1))
        evaluate_many(s, X[:1])  # builds the model's sum plan
        sorts, tables = self.spy(monkeypatch, "_distinct"), self.spy(monkeypatch, "_table")
        got = evaluate_many(s, X)
        assert sorts == []
        assert [j for _, j, _ in tables] == list(range(dim))
        assert all(np.array_equal(values, axis) for (_, _, values), axis in zip(tables, axes))
        monkeypatch.undo()
        assert within_sum_bound(s, X, got)
        blocks = self.block_route(monkeypatch, s, X)
        assert np.all(np.abs(got - blocks) <= 2 * sum_bound(s, X))

    @pytest.mark.parametrize("grid", list(GRID_ORDERS))
    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_grid_route_in_several_slabs(self, family, grid, monkeypatch):
        sizes = {"2": (120, 120), "xy": (120, 97), "size_1": (180, 1, 180)}.get(grid, (41, 23, 17))
        s = family_fit(family, len(sizes))
        X = nested_grid([np.linspace(-1.0, 2.0, n) for n in sizes], self.GRID_ORDERS[grid])
        evaluate_many(s, X[:1])
        # the least BLOCK_VALUES the route takes: its longest axis fills a block
        monkeypatch.setattr(features, "BLOCK_VALUES", max(sizes) * s.model._sum_plan[-1])
        P = s.model._sum_plan[2][1]
        assert X.shape[0] // sizes[-1] > 3 * (features.BLOCK_VALUES // (P + sizes[-1]))
        sorts = self.spy(monkeypatch, "_distinct")
        got = evaluate_many(s, X)
        assert sorts == []
        assert within_sum_bound(s, X, got)
        assert np.array_equal(got.view(np.int64), evaluate_many(s, X).view(np.int64))

    @staticmethod
    def fall_through_case(case):
        """``(interpolant, points)`` that look like a grid but go through the block loop."""
        axes = [np.linspace(-1.0, 2.0, 13), np.concatenate([np.linspace(-1.0, 2.0, 10), [0.0]])]
        X = tensor_grid(*axes)
        if case == "changed":
            X[100] = [0.5, 0.5]
        elif case == "signed_zero":
            X[np.flatnonzero(X[:, 1] == 0.0)[5], 1] = -0.0
        elif case == "swapped":
            X[[40, 41]] = X[[41, 40]]
        elif case == "last_row":  # found only by comparing the whole grid
            X[-1, 1] = 0.5
        elif case == "equal_start":  # the fast axis has no stride of its own
            X = tensor_grid(axes[0], np.concatenate([axes[1][:1], axes[1]]))
        elif case == "one_point":
            X = X[:1]
        elif case == "line":  # the slow axis at a constant fast coordinate
            X = X[::11]
        elif case == "one_dimension":
            return family_fit("trig", 1), axes[0][:, None]
        elif case == "custom":
            table = tensor_grid([0.0, 0.5, 1.0], [0.0, 1.0])
            model = FeatureModel.custom_table(table, np.column_stack(
                [np.ones(6), table[:, 0], table[:, 1], table.prod(axis=1)]))
            return fit(model, NodeSet(table[:4], np.array([1.0, 2.0, 4.0, 3.0])), 2), table
        return family_fit("power" if case == "changed" else "trig", 2), X

    @pytest.mark.parametrize("case", ["changed", "signed_zero", "swapped", "equal_start",
                                      "one_point", "line", "one_dimension", "custom", "last_row"])
    def test_grids_the_route_leaves_to_the_block_loop(self, case, monkeypatch):
        s, X = self.fall_through_case(case)
        got = evaluate_many(s, X)
        assert np.array_equal(got.view(np.int64),
                              self.block_route(monkeypatch, s, X).view(np.int64))
        assert within_sum_bound(s, X, got)
        if case in ("one_point", "line"):
            assert features._grid_axes(X) is None
        if case == "one_point":
            assert np.float64(evaluate(s, X[0])).view(np.int64) == got.view(np.int64)[0]

    def test_grid_with_a_late_point_outside_names_it(self, monkeypatch):
        s = family_fit("trig", 3)
        X = tensor_grid(np.array([-1.0, 0.5, 2.0 + 10 * FACE_TOLERANCE]),
                        np.linspace(-1.0, 2.0, 7), np.linspace(-1.0, 2.0, 5))
        message = re.escape(f"point {X[70].tolist()} outside the domain box")
        for call in (lambda: evaluate_many(s, X), lambda: self.block_route(monkeypatch, s, X)):
            with pytest.raises(PointOutsideDomain, match=message):
                call()

    def test_power_grid_overflow_names_the_first_point(self, monkeypatch):
        model = FeatureModel.power_series(Domain([-1e200, -1.0], [1e200, 1.0]), 6)
        X = tensor_grid(np.array([0.5, 1e10, 5e170]), np.array([0.0, 0.5, -1.0]))
        message = re.escape(f"features overflow at point {X[6].tolist()}")
        with pytest.raises(ValueError, match=message):
            features._feature_sum(model, X, np.ones(model.truncation))
        monkeypatch.setattr(features, "_grid_axes", lambda X: None)  # the block route
        with pytest.raises(ValueError, match=message):
            features._feature_sum(model, X, np.ones(model.truncation))

    def blocks_skip_the_sort(self, monkeypatch, points):
        """At ``points(N)`` over three full blocks and a partial one, no block
        sorts a coordinate, and the blocks give the bits each gives alone."""
        s = family_fit("trig", 3)
        step = point_blocks(s.model, 10 ** 6, s.model._sum_plan[-1])[0].stop
        X = points(3 * step + 5)
        expected = np.concatenate([evaluate_many(s, X[i:i + step])
                                   for i in range(0, X.shape[0], step)])
        sorts = self.spy(monkeypatch, "_distinct")
        got = evaluate_many(s, X)
        assert sorts == []
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_scattered_blocks_skip_the_sort(self, monkeypatch):
        rng = np.random.default_rng(74)
        self.blocks_skip_the_sort(monkeypatch, lambda count: rng.uniform(-1, 2, size=(count, 3)))

    def test_repeated_blocks_skip_the_sort(self, monkeypatch):
        # rows drawn from 5 points: every value repeats, and no order makes a grid
        pool = np.random.default_rng(76).uniform(-1, 2, size=(5, 3))
        rng = np.random.default_rng(77)
        self.blocks_skip_the_sort(monkeypatch, lambda count: pool[rng.integers(0, 5, size=count)])

    def test_point_outside_in_a_later_block_is_named(self, monkeypatch):
        s = family_fit("power", 2)
        monkeypatch.setattr(features, "BLOCK_VALUES", 8 * s.model._sum_plan[-1])
        X = np.random.default_rng(75).uniform(-1, 2, size=(40, 2))
        X[[29, 33], [0, 1]] = [2.0 + 10 * FACE_TOLERANCE, -1.5]
        with pytest.raises(PointOutsideDomain,
                           match=re.escape(f"point {X[29].tolist()} outside the domain box")):
            evaluate_many(s, X)

    def test_custom_table(self):
        s = custom_fit()
        X = np.array([[0.0], [1.0], [0.5 + TABLE_TOLERANCE / 2], [0.5], [1.0]])
        got = evaluate_many(s, X)
        assert within_sum_bound(s, X, got)
        np.testing.assert_allclose(got[[0, 1, 3]], [1.0, 4.0, 2.0], rtol=1e-12)

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_point_outside_the_box_raises(self, family):
        s = family_fit(family, 2)
        with pytest.raises(PointOutsideDomain):
            evaluate_many(s, [[0.0, 0.0], [0.0, 2.0 + 10 * FACE_TOLERANCE]])

    def test_untabulated_custom_point_raises(self):
        with pytest.raises(UntabulatedPoint):
            evaluate_many(custom_fit(), [[0.0], [0.25]])

    @pytest.mark.parametrize("make", [lambda: family_fit("power", 2),
                                      lambda: family_fit("trig", 3), custom_fit],
                             ids=["power", "trig", "custom"])
    def test_empty_input_of_any_width(self, make):
        s = make()
        d = s.model.domain.dim
        for width in (d, d + 1):
            assert evaluate_many(s, np.empty((0, width))).shape == (0,)

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_builds_no_feature_matrix(self, family, monkeypatch):
        s = family_fit(family, 3)
        X = np.random.default_rng(73).uniform(-1, 2, size=(500, 3))
        expected = evaluate_many(s, X)

        def gather(*args):
            raise AssertionError("evaluation gathered the (N, K) feature array")

        monkeypatch.setattr(features, "eval_features", gather)
        np.testing.assert_array_equal(evaluate_many(s, X), expected)


def _coarse(value):
    """0, or a value at least 1e-3 in magnitude: no product of the drawn numbers
    falls into the subnormal range, where a relative bound does not hold."""
    return value if abs(value) >= 1e-3 else 0.0


@settings(max_examples=40)
@given(family=st.sampled_from(sorted(FAMILIES)), dim=st.integers(1, 3),
       truncation=st.integers(1, 60), decay=st.floats(0.1, 1.0), grid=st.booleans(),
       data=st.data())
def test_contraction_within_sum_bound(family, dim, truncation, decay, grid, data):
    model = FAMILIES[family](Domain([-1.0] * dim, [1.0] * dim), truncation, decay=decay)
    coordinate = st.floats(-1.0, 1.0).map(_coarse)
    if grid:  # a row-major grid of 1-5 values per axis, repeats allowed
        X = tensor_grid(*[data.draw(st.lists(coordinate, min_size=1, max_size=5))
                          for _ in range(dim)])
    else:
        X = np.array(data.draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                                        min_size=1, max_size=8)))
    alpha = np.array(data.draw(st.lists(st.floats(-10.0, 10.0).map(_coarse),
                                        min_size=truncation, max_size=truncation)))
    feats = eval_features(model, X)
    bound = 2 * truncation * np.finfo(float).eps * np.abs(alpha * feats).sum(axis=1)
    assert np.all(np.abs(features._feature_sum(model, X, alpha) - feats @ alpha) <= bound)


class TestFeatureCoefficients:
    def test_example(self, fitted):
        np.testing.assert_allclose(feature_coefficients(fitted), [8.0, 1.0],
                                   atol=1e-7)

    def test_m2_is_linear_map(self):
        s = fit(MODEL2, NODES, 2)
        np.testing.assert_allclose(
            feature_coefficients(s), s.gram.V.T @ s.coefficients, rtol=1e-12
        )

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_formed_once_and_shared_read_only(self, m):
        # the load's overflow check forms alpha; evaluation and later calls share it
        s = from_json(to_json(fit(MODEL2, NODES, m)))
        alpha = feature_coefficients(s)
        np.testing.assert_array_equal(alpha, s.t ** (m - 1))
        assert not alpha.flags.writeable
        with pytest.raises(ValueError):
            alpha[0] = 0.0
        evaluate_many(s, [[0.25], [0.5]])
        assert feature_coefficients(s) is alpha
        fresh = fit(MODEL2, NODES, m)
        assert evaluate(fresh, [0.5]) == evaluate(s, [0.5])
        assert feature_coefficients(fresh) is feature_coefficients(fresh)


class TestNorms:
    def test_direct_norm_example(self):
        assert banach_norm_direct([8.0, 1.0], 4 / 3) == pytest.approx(17 ** 0.75)

    def test_direct_norm_trivial(self):
        assert banach_norm_direct(np.zeros(5), 1.5) == 0.0
        assert banach_norm_direct([1.0, 0.0, 0.0], 3.0) == pytest.approx(1.0)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            banach_norm_direct([1.0], 1.0)
        with pytest.raises(InvalidExponent):
            banach_norm_direct([1.0], np.inf)

    def test_tensor_norm_example(self, fitted):
        assert contract_m(fitted.gram, 4, fitted.coefficients) == pytest.approx(
            17.0, rel=1e-8
        )
        assert banach_norm_via_tensor(fitted) == pytest.approx(17 ** 0.75, rel=1e-8)

    def test_m2_native_norm(self):
        s = fit(MODEL2, NODES, 2)
        c = s.coefficients
        expected = float(c @ (s.gram.V @ s.gram.V.T) @ c) ** 0.5
        assert banach_norm_via_tensor(s) == pytest.approx(expected, rel=1e-10)

    def test_norm_identity_random(self):
        rng = np.random.default_rng(33)
        for m in (2, 4, 6):
            for _ in range(5):
                s = random_fit(rng, m)
                via_tensor = banach_norm_via_tensor(s)
                direct = banach_norm_direct(feature_coefficients(s), m / (m - 1))
                assert via_tensor == pytest.approx(direct, rel=1e-8)


class TestGateaux:
    def test_example(self):
        beta = gateaux_coefficients([8.0, 1.0], 4 / 3)
        np.testing.assert_allclose(beta, np.array([2.0, 1.0]) / 17 ** 0.25,
                                   rtol=1e-12)

    def test_dual_norm_is_one(self):
        rng = np.random.default_rng(34)
        for p in (4 / 3, 1.2, 2.0, 6 / 5):
            alpha = rng.standard_normal(7)
            beta = gateaux_coefficients(alpha, p)
            q = p / (p - 1)
            assert banach_norm_direct(beta, q) == pytest.approx(1.0, rel=1e-12)

    def test_single_coordinate_sign_map(self):
        beta = gateaux_coefficients([2.5, 0.0, 0.0], 4 / 3)
        np.testing.assert_allclose(beta, [1.0, 0.0, 0.0], atol=1e-15)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            gateaux_coefficients(np.zeros(3), 1.5)

    def test_duality_pairing_recovers_norm(self):
        rng = np.random.default_rng(35)
        for m in (2, 4, 6):
            s = random_fit(rng, m)
            alpha = feature_coefficients(s)
            p = m / (m - 1)
            beta = gateaux_coefficients(alpha, p)
            assert dual_pairing(alpha, beta) == pytest.approx(
                banach_norm_direct(alpha, p), rel=1e-8
            )


class TestReproducingPairing:
    def test_pairing_equals_point_evaluation(self):
        model = FeatureModel.trigonometric(BOX, 9)
        rng = np.random.default_rng(36)
        alpha = rng.standard_normal(9)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=1)
            phi_x = eval_features(model, x)
            f_x = float(alpha @ phi_x)
            assert dual_pairing(alpha, phi_x) == pytest.approx(f_x, abs=1e-12)


class TestNormMinimality:
    def test_span_perturbations_never_beat_interpolant(self):
        rng = np.random.default_rng(37)
        for m in (4, 6):
            s = random_fit(rng, m)
            p = m / (m - 1)
            base = banach_norm_direct(feature_coefficients(s), p)
            for _ in range(20):
                # random span function minus its own interpolant vanishes at nodes
                f_alpha = rng.standard_normal(s.model.truncation)
                f_values = s.gram.V @ f_alpha
                nodes_f = NodeSet(s.nodes.points, f_values)
                s_f = fit(s.model, nodes_f, m,
                          SolverOptions(residual_tol=1e-12, max_iterations=400))
                g_alpha = f_alpha - feature_coefficients(s_f)
                competitor = banach_norm_direct(
                    feature_coefficients(s) + g_alpha, p
                )
                assert base <= competitor + 1e-8


@st.composite
def fitted_models(draw):
    """A converged fit of a 1-d power or trig model at 2 to 5 jittered nodes."""
    n = draw(st.integers(2, 5))
    family = draw(st.sampled_from([FeatureModel.power_series, FeatureModel.trigonometric]))
    # K > n: trig K = n can be singular at nodes placed symmetrically about 0
    model = family(BOX, draw(st.integers(n + 1, 10)), draw(st.floats(0.3, 0.9)))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    # cell midpoints of [-0.9, 0.9], kept apart and off the periodic endpoints
    points = -0.9 + (np.arange(n) + 0.5 + np.array(jitter)) * 1.8 / n
    return fit(model, NodeSet(points, np.array(values)), draw(st.sampled_from([2, 4, 6])))


class TestSerialization:
    @settings(max_examples=40)
    @given(fitted_models())
    def test_round_trip_is_byte_stable_over_fits(self, s):
        text = to_json(s)
        assert to_json(from_json(text)) == text

    def test_round_trip_values(self, fitted):
        text = to_json(fitted)
        loaded = from_json(text)
        np.testing.assert_array_equal(loaded.coefficients, fitted.coefficients)
        np.testing.assert_array_equal(loaded.nodes.points, fitted.nodes.points)
        assert loaded.order == fitted.order
        rng = np.random.default_rng(38)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=1)
            assert evaluate(loaded, x) == evaluate(fitted, x)

    def test_round_trip_is_byte_stable(self, fitted):
        text = to_json(fitted)
        assert to_json(from_json(text)) == text

    def test_missing_key_rejected(self):
        with pytest.raises(KeyError):
            from_json("{}")

    def test_order_overflowing_coefficients_rejected(self, fitted):
        doc = json.loads(to_json(fitted))
        with pytest.raises(ValueError, match="overflow"):
            from_json(json.dumps({**doc, "order": 1e300}))

    def test_load_and_evaluate_pay_no_rank_test(self, fitted, monkeypatch):
        # rank work is the eigenvalue certificate plus any SVD fallback
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigvalsh", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        loaded = from_json(to_json(fitted))
        evaluate_many(loaded, [[0.0], [0.5]])
        assert calls == []


def cli_fit(tmp_path, monkeypatch):
    """The interpolant ``mkinterp fit`` serializes, and the one loaded from its model file."""
    written = []
    monkeypatch.setattr(commands, "to_json", lambda s: written.append(s) or to_json(s))
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    data.write_text("x1,y\n-0.6,1\n0.0,2\n0.7,0\n", encoding="utf-8")
    assert cli.main(["fit", str(data), "--out", str(out), "--order", "4",
                     "--truncation", "6"]) == 0
    return written[0], from_json(out.read_text(encoding="utf-8"))


def large_model_text():
    """An order-4 document of a 3-d ``trig`` model, K = 800, at n = 400 nodes,
    with arbitrary coefficients (loading does not solve)."""
    rng = np.random.default_rng(29)
    model = FeatureModel.trigonometric(Domain([-1.0] * 3, [1.0] * 3), 800, decay=0.8)
    return json.dumps({
        "family": "trig", "domain": {"lower": [-1.0] * 3, "upper": [1.0] * 3},
        "truncation": 800, "weights": model.weights.tolist(), "order": 4,
        "nodes": rng.uniform(-1.0, 1.0, (400, 3)).tolist(),
        "values": rng.standard_normal(400).tolist(),
        "coefficients": rng.standard_normal(400).tolist()})


class TestHeldFeatureProducts:
    """A fitted interpolant holds ``t = V^T c``, formed by the transpose of
    the sum factorization, and rebuilds its Gram on access."""

    @pytest.fixture
    def interpolants(self, tmp_path, monkeypatch):
        s = random_fit(np.random.default_rng(7), 4)
        return [s, from_json(to_json(s)), *cli_fit(tmp_path, monkeypatch)]

    def test_t_matches_v_transpose_c(self, interpolants):
        eps = np.finfo(float).eps
        for s in interpolants:
            V, c = s.gram.V, s.coefficients
            bound = 8 * s.nodes.n * eps * np.abs(c[:, None] * V).sum(axis=0)
            assert np.all(np.abs(s.t - V.T @ c) <= bound)

    def test_fitted_and_reloaded_t_are_identical(self, interpolants):
        fitted, reloaded, cli_written, cli_loaded = interpolants
        assert fitted.t.tobytes() == reloaded.t.tobytes()
        assert cli_written.t.tobytes() == cli_loaded.t.tobytes()

    def test_loading_builds_no_node_gram(self):
        text = large_model_text()
        from_json(text)  # the model's factor plan is built per model, so this warms only imports
        tracemalloc.start()
        try:
            s = from_json(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s.t.shape == (800,)
        assert peak < 1 << 20  # the 400 x 800 Gram alone is 2.44 MiB

    def test_gram_is_rebuilt_from_the_model(self, interpolants):
        for s in interpolants:
            rebuilt = FeatureGram.from_model(s.model, s.nodes.points).V
            assert s.gram.V.tobytes() == rebuilt.tobytes()
            assert s.gram is not s.gram

    def test_evaluation_reads_no_node_features(self, fitted, monkeypatch):
        calls = []
        build, features_at = FeatureGram.from_model.__func__, features.eval_features

        def counting_build(cls, model, points):
            calls.append("FeatureGram.from_model")
            return build(cls, model, points)

        def counting_features(model, x):
            calls.append(f"eval_features at {np.shape(x)}")
            return features_at(model, x)

        monkeypatch.setattr(FeatureGram, "from_model", classmethod(counting_build))
        for module in (features, tensors):
            monkeypatch.setattr(module, "eval_features", counting_features)
        fitted = from_json(to_json(fitted))
        feature_coefficients(fitted)
        evaluate(fitted, [0.25])
        evaluate_many(fitted, [[0.25], [0.5], [1.0]])
        banach_norm_via_tensor(fitted)
        assert calls == []


NODES5 = NodeSet(np.linspace(-0.8, 0.8, 5), np.cos(3 * np.linspace(-0.8, 0.8, 5)))


def saved_and_evaluated(family, K, m):
    """``(to_json text, evaluate_many of the reloaded fit)`` for truncation K, order m."""
    model = FAMILIES[family](BOX, K)
    assert type(model.truncation) is int
    s = fit(model, NODES5, m)
    assert type(s.order) is int
    text = to_json(s)
    return text, evaluate_many(from_json(text), [[-0.9], [0.1], [0.45]])


class TestIntegralParameters:
    """Every accepted spelling of the truncation K and the order m runs as the
    plain int; a bool, a fraction or a string is refused with a ValueError."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("K", [8, np.int64(8), 8.0, np.float64(8.0)], ids=repr)
    @pytest.mark.parametrize("m", [4, np.int64(4), 4.0, np.float64(4.0)], ids=repr)
    def test_spelling_runs_bit_for_bit_as_the_int(self, family, K, m):
        text, values = saved_and_evaluated(family, K, m)
        plain_text, plain_values = saved_and_evaluated(family, 8, 4)
        assert text == plain_text
        assert values.tobytes() == plain_values.tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("K", [True, 8.5, "8"], ids=repr)
    def test_other_truncations_refused(self, family, K):
        with pytest.raises(ValueError):
            FAMILIES[family](BOX, K)

    def test_bool_truncation_refused_by_the_constructor(self):
        with pytest.raises(ValueError, match="^truncation must be an integer, got True$"):
            FeatureModel(BOX, "power", True, np.ones(1), exponents=np.zeros((1, 1), int))

    @pytest.mark.parametrize("m", [True, 4.5, "4"], ids=repr)
    def test_other_orders_refused(self, m):
        with pytest.raises(ValueError):
            fit(FeatureModel.power_series(BOX, 8), NODES5, m)


SPELLINGS = [int, np.int64, float, np.float64]
REFUSED = [lambda v: True, lambda v: v + 0.5, str]  # a bool, a fraction, a string


def chain(family, dim, seed, K, m):
    """build -> fit -> to_json -> from_json -> evaluate_many on seeded nodes
    of [-1, 1]^dim, with K and m as spelled.  A custom table is K features
    wide at the nodes and the evaluation points, so its K reaches the
    library through the model file's ``truncation``, which holds K and m as
    JSON numbers: floats for a float spelling.  Returns both JSON texts and
    the values, or the text of the error that stopped the chain."""
    rng = np.random.default_rng(seed)
    box = Domain([-1.0] * dim, [1.0] * dim)
    n = int(rng.integers(2, 6))
    nodes = NodeSet(rng.uniform(-0.9, 0.9, (n, dim)), rng.uniform(-2.0, 2.0, n))
    X = rng.uniform(-1.0, 1.0, (6, dim))
    if family == "custom":
        table = np.vstack([nodes.points, X])
        model = FeatureModel.custom_table(table, rng.standard_normal((n + 6, int(K))),
                                          weights=rng.uniform(0.5, 2.0, int(K)), domain=box)
    else:
        model = FAMILIES[family](box, K, decay=0.7)
    try:
        text = to_json(fit(model, nodes, m))
        doc = {**json.loads(text), "truncation": float(K) if isinstance(K, float) else int(K),
               "order": float(m) if isinstance(m, float) else int(m)}
        loaded = from_json(json.dumps(doc))
        return text, to_json(loaded), evaluate_many(loaded, X).tobytes()
    except (NotConverged, SingularDesignWarning) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["power", "trig", "custom"]), dim=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(1, 10),
       m=st.sampled_from([2, 4, 6]), spell_K=st.sampled_from(SPELLINGS),
       spell_m=st.sampled_from(SPELLINGS), refuse=st.sampled_from(REFUSED))
def test_spellings_run_the_chain_bit_for_bit(family, dim, seed, extra, m, spell_K, spell_m,
                                             refuse):
    K = 5 + extra  # at least the 5 nodes a seed may draw, so the design can have full rank
    assert chain(family, dim, seed, spell_K(K), spell_m(m)) == chain(family, dim, seed, K, m)
    box, one = Domain([-1.0] * dim, [1.0] * dim), NodeSet(np.full((1, dim), 0.5), np.ones(1))
    doc = json.loads(to_json(fit(FeatureModel.power_series(box, K), one, m)))
    refusals = [("order", lambda: fit(FeatureModel.power_series(box, K), one, refuse(m))),
                ("order", lambda: from_json(json.dumps({**doc, "order": refuse(m)}))),
                ("truncation", lambda: from_json(json.dumps({**doc, "truncation": refuse(K)})))]
    if family != "custom":
        refusals.append(("truncation", lambda: FAMILIES[family](box, refuse(K))))
    for name, call in refusals:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()
