import hashlib
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureModel,
    NodeSet,
    OddOrderUnsupported,
    PointOutsideDomain,
    UntabulatedPoint,
    domain_grid,
    eval_features,
    fit,
    from_json,
    graded_multi_indices,
    to_json,
)
from mkinterp import features
from mkinterp.features import BLOCK_VALUES, point_blocks, tabulated
import oracles
from oracles import check_summability, eval_kernel2, eval_multikernel

BOX = Domain([-1.0], [1.0])


def monomials(k):
    return FeatureModel.power_series(BOX, k, weights=np.ones(k))


def face_table():
    """A 1-d custom table at the faces of BOX and at 0.5, two features wide."""
    return FeatureModel.custom_table([[-1.0], [0.5], [1.0]], [[1.0, -1.0], [1.0, 0.5], [1.0, 1.0]],
                                     domain=BOX)


class TestDomain:
    def test_rejects_empty_interior(self):
        with pytest.raises(ValueError):
            Domain([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("lower, upper", [([0.0], [np.inf]), ([-np.inf], [0.0]),
                                              ([np.nan], [1.0])])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError):
            Domain(lower, upper)

    def test_clamps_near_face(self):
        # x**3 at 1 + 5e-13 is not 1: the point is clamped onto the face first
        assert eval_features(monomials(4), [1.0 + 5e-13]).tolist() == [1.0, 1.0, 1.0, 1.0]
        assert eval_features(monomials(4), [-1.0 - 5e-13]).tolist() == [1.0, -1.0, 1.0, -1.0]
        assert tabulated(face_table(), [[1.0 + 5e-13], [-1.0 - 5e-13]]).tolist() == [True, True]

    def test_rejects_outside(self):
        with pytest.raises(PointOutsideDomain):
            eval_features(monomials(2), [1.5])
        with pytest.raises(PointOutsideDomain):
            tabulated(face_table(), [[1.5]])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(PointOutsideDomain):
            eval_features(monomials(2), [0.0, 0.0])
        box2 = Domain([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(PointOutsideDomain):
            eval_features(FeatureModel.power_series(box2, 3), [[0.0], [0.5]])
        # a row of width 2 is refused, not read as two 1-d points
        for call in (eval_features, tabulated):
            with pytest.raises(PointOutsideDomain,
                               match="point has dimension 2, domain has dimension 1"):
                call(face_table(), [[0.0, 0.5]])

    def test_array_of_three_dimensions_is_named_by_its_shape(self):
        with pytest.raises(PointOutsideDomain, match=re.escape(
                "point has shape (2, 2, 1), domain has dimension 1")):
            eval_features(monomials(2), np.zeros((2, 2, 1)))

    def test_contains_is_per_row(self):
        box2 = Domain([-1.0, 0.0], [1.0, 2.0])
        pts = np.array([[0.0, 1.0], [1.0 + 5e-13, 2.0], [1.5, 1.0], [0.0, -0.1],
                        [np.nan, 1.0]])
        assert box2.contains(pts).tolist() == [True, True, False, False, False]
        assert box2.contains([0.0, 1.0])

    def test_rejects_bounds_of_unequal_length(self):
        with pytest.raises(ValueError, match="domain bounds must be vectors of equal length"):
            Domain([0.0, 0.0], [1.0])

    def test_grid_needs_two_points_per_dimension(self):
        with pytest.raises(ValueError, match="grid must be at least 2 points per dimension, got 1"):
            domain_grid(BOX, 1)

    def test_rejects_no_dimension(self):
        with pytest.raises(ValueError, match="^domain must have at least one dimension$"):
            Domain([], [])

    @pytest.mark.parametrize("size", [3.0, np.float64(3.0), np.int64(3)], ids=repr)
    def test_integral_grid_size_runs_as_the_int(self, size):
        box2 = Domain([-1.0, 0.0], [1.0, 2.0])
        assert domain_grid(box2, size).tobytes() == domain_grid(box2, 3).tobytes()

    @pytest.mark.parametrize("size", [2.5, True, "3"], ids=repr)
    def test_grid_size_that_is_no_integer_refused(self, size):
        with pytest.raises(ValueError, match=re.escape(
                f"grid points per dimension must be an integer, got {size!r}")):
            domain_grid(BOX, size)

    def test_project_batch_clamps_and_rejects(self):
        model = monomials(4)
        assert same_bits(eval_features(model, [[0.5], [-1.0 - 5e-13]]),
                         eval_features(model, [[0.5], [-1.0]]))
        table = face_table()
        points = [[0.5], [-1.0 - 5e-13], [0.25]]
        assert tabulated(table, points).tolist() == [True, True, False]
        assert same_bits(eval_features(table, points[:2]), eval_features(table, [[0.5], [-1.0]]))
        for call in (lambda: eval_features(model, [[0.5], [1.5]]),
                     lambda: tabulated(table, [[0.5], [1.5]])):
            with pytest.raises(PointOutsideDomain):
                call()


class TestGradedIndices:
    def test_1d_order(self):
        assert graded_multi_indices(1, 4).tolist() == [[0], [1], [2], [3]]

    def test_2d_order(self):
        expected = [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
        assert graded_multi_indices(2, 6).tolist() == expected

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    @pytest.mark.parametrize("truncation", [0, -2])
    def test_truncation_below_one_rejected(self, family, truncation):
        with pytest.raises(ValueError, match="at least 1"):
            getattr(FeatureModel, family)(Domain([-1.0, -1.0], [1.0, 1.0]), truncation)

    # The feature order is the model file's implicit format: a saved model
    # stores only its family, K and weights, so these tables must not move.
    def test_3d_power_order(self):
        model = FeatureModel.power_series(Domain([-1.0] * 3, [1.0] * 3), 10)
        assert model.exponents.tolist() == [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
            [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]

    def test_2d_trig_order(self):
        # each graded multi-index in turn, cosine before sine per coordinate
        model = FeatureModel.trigonometric(Domain([-1.0, -1.0], [1.0, 1.0]), 13)
        assert model.frequencies.tolist() == [
            [0, 0], [1, 0], [1, 0], [0, 1], [0, 1], [2, 0], [2, 0],
            [1, 1], [1, 1], [1, 1], [1, 1], [0, 2], [0, 2]]
        assert model.trig_kinds.tolist() == [
            [0, 0], [1, 0], [2, 0], [0, 1], [0, 2], [1, 0], [2, 0],
            [1, 1], [1, 2], [2, 1], [2, 2], [0, 1], [0, 2]]

    def test_3d_trig_order_at_k_800(self):
        model = FeatureModel.trigonometric(Domain([-1.0] * 3, [1.0] * 3), 800)
        digests = [hashlib.sha256(np.ascontiguousarray(table, "<i8").tobytes()).hexdigest()
                   for table in (model.frequencies, model.trig_kinds)]
        assert model.frequencies.shape == model.trig_kinds.shape == (800, 3)
        assert digests == ["070a750a9e98036865fe3ef204a792924b775f6bc602b086d2fbe07fef9b4d9f",
                           "fcbea72b4e1336b94e602f0cc05fedf5aa2f981f1e7f619f55274665817edeec"]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_no_indices_at_count_zero(self, dim):
        assert graded_multi_indices(dim, 0).shape == (0, dim)

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    def test_integral_float_truncation_builds(self, family):
        model = getattr(FeatureModel, family)(Domain([-1.0, -1.0], [1.0, 1.0]), 8.0)
        assert model.weights.shape == (8,)

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    @pytest.mark.parametrize("truncation, message", [
        (8.5, "truncation must be an integer, got 8.5"),
        (-3, "truncation K must be at least 1")])
    def test_bad_truncation_message(self, family, truncation, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(FeatureModel, family)(Domain([-1.0, -1.0], [1.0, 1.0]), truncation)

    def test_constructor_takes_k_by_the_integer_rule_first(self):
        # a string K once reached ``K < 1`` and raised a TypeError
        with pytest.raises(ValueError, match="^truncation must be an integer, got '1'$"):
            FeatureModel(BOX, "power", "1", np.ones(1), exponents=np.zeros((1, 1), int))

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    def test_truncation_too_large_to_enumerate_refused_up_front(self, family):
        # nothing is enumerated: 10**12 one-coordinate indices would be 8 TB
        message = f"truncation K must be at most {features.MAX_TRUNCATION}, got {10 ** 12}"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(FeatureModel, family)(BOX, 10 ** 12)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    def test_truncation_bound_is_inclusive(self, family, monkeypatch):
        monkeypatch.setattr(features, "MAX_TRUNCATION", 9)
        build = getattr(FeatureModel, family)
        assert build(Domain([-1.0, -1.0], [1.0, 1.0]), 9).weights.shape == (9,)
        with pytest.raises(ValueError, match="^truncation K must be at most 9, got 10$"):
            build(Domain([-1.0, -1.0], [1.0, 1.0]), 10)
        with pytest.raises(ValueError, match="^truncation K must be at most 9, got 10$"):
            graded_multi_indices(3, 10)

    @pytest.mark.parametrize("count", [8.5, True, "8", np.float64(-0.5)], ids=repr)
    def test_graded_indices_refuse_a_count_that_is_no_integer(self, count):
        with pytest.raises(ValueError, match=re.escape(f"count must be an integer, got {count!r}")):
            graded_multi_indices(2, count)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_graded_indices_refuse_a_dim_below_one(self, dim):
        with pytest.raises(ValueError, match=f"^dim must be at least 1, got {dim}$"):
            graded_multi_indices(dim, 3)

    # 0.5 ** 1074 is the least subnormal, 0.5 ** 1075 underflows to 0
    @pytest.mark.parametrize("family, last", [("power_series", 1075), ("trigonometric", 2149)])
    def test_underflowing_default_weights_name_the_decay_and_degree(self, family, last):
        build = getattr(FeatureModel, family)
        message = "decay 0.5 gives weight 0.0 at degree 1075; weights must be finite positive reals"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(BOX, last + 1)
        assert build(BOX, last).weights[-1] == 0.5 ** 1074

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    @pytest.mark.parametrize("decay, weight, degree", [
        (1e300, "inf", 2), (1e-300, "0.0", 2), (-0.5, "-0.5", 1), (0.0, "0.0", 1)])
    def test_default_weights_name_the_first_bad_degree(self, family, decay, weight, degree):
        message = (f"decay {decay!r} gives weight {weight} at degree {degree}; "
                   "weights must be finite positive reals")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(FeatureModel, family)(Domain([-1.0, -1.0], [1.0, 1.0]), 12, decay=decay)


ORACLE_COUNTS = [0, 1, 2, 7, 8.0, 8.5, 20, 81, 120, 800, 3000]


def assert_identical(got, expected):
    """Equal nested tuples of arrays and numbers: same types, dtypes, shapes and entries."""
    assert type(got) is type(expected)
    if isinstance(expected, tuple):
        assert len(got) == len(expected)
        for part, reference in zip(got, expected):
            assert_identical(part, reference)
    elif isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
    else:
        assert got == expected


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("count", ORACLE_COUNTS)
class TestEnumerationMatchesTheGenerators:
    """The array enumeration and the sum plan equal the references in
    ``oracles`` (generators, a dict of tuples) bit for bit."""

    @staticmethod
    def model(family, dim, count):
        """The model of `count` features, or None where the constructor must
        refuse it; unit weights, which cannot underflow at K = 3000."""
        build = getattr(FeatureModel, family)
        box = Domain([-1.0] * dim, [1.0] * dim)
        if count >= 1 and float(count).is_integer():
            return build(box, count, decay=1.0)
        with pytest.raises(ValueError):
            build(box, count, decay=1.0)
        return None

    def test_graded_multi_indices(self, dim, count):
        if float(count).is_integer():
            assert_identical(graded_multi_indices(dim, count),
                             oracles.graded_multi_indices(dim, int(count)))
        else:  # no count is rounded: a fraction is refused
            with pytest.raises(ValueError, match="count must be an integer"):
                graded_multi_indices(dim, count)

    def test_power_exponents(self, dim, count):
        model = self.model("power_series", dim, count)
        if model is not None:
            assert_identical(model.exponents, oracles.graded_multi_indices(dim, int(count)))

    def test_trig_frequencies_and_kinds(self, dim, count):
        model = self.model("trigonometric", dim, count)
        if float(count).is_integer():
            expected = oracles.trig_indices(dim, int(count))
            assert_identical(features._trig_indices(dim, int(count)), expected)
        if model is not None:
            assert_identical((model.frequencies, model.trig_kinds), expected)

    @pytest.mark.parametrize("family", ["power_series", "trigonometric"])
    def test_sum_plan(self, family, dim, count):
        model = self.model(family, dim, count)
        if model is not None:
            assert_identical(model._sum_plan, oracles.sum_plan(model))


class TestEvalFeatures:
    def test_monomials_at_zero(self):
        assert eval_features(monomials(3), [0.0]).tolist() == [1.0, 0.0, 0.0]

    def test_monomials_at_one(self):
        assert eval_features(monomials(3), [1.0]).tolist() == [1.0, 1.0, 1.0]

    def test_monomial_parity(self):
        assert eval_features(monomials(3), [-1.0]).tolist() == [1.0, -1.0, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_weights(self, bad):
        with pytest.raises(ValueError):
            FeatureModel.power_series(BOX, 2, weights=[1.0, bad])

    def test_weights_enter_as_square_roots(self):
        model = FeatureModel.power_series(BOX, 2, weights=[4.0, 9.0])
        np.testing.assert_allclose(eval_features(model, [1.0]), [2.0, 3.0])

    def test_trig_first_features(self):
        model = FeatureModel.trigonometric(BOX, 3, weights=np.ones(3))
        got = eval_features(model, [0.5])
        np.testing.assert_allclose(
            got, [1.0, np.cos(np.pi * 0.5), np.sin(np.pi * 0.5)], atol=1e-15
        )


def row_by_row(model, X):
    return np.stack([eval_features(model, x) for x in X]).reshape(len(X), -1)


class TestBatchedEvalFeatures:
    """An (N, d) call equals the stack of single-point calls, exactly:
    the per-entry arithmetic is the same whatever the block."""

    BOX2 = Domain([-1.0, -1.0], [1.0, 1.0])
    MODELS = {
        "power": FeatureModel.power_series(BOX2, 15, decay=0.6),
        "trig": FeatureModel.trigonometric(BOX2, 40, decay=0.6),
        "wide_trig": FeatureModel.trigonometric(BOX2, 3000, decay=0.99),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_rows_across_blocks(self, name):
        model = self.MODELS[name]
        step = point_blocks(model, 10 ** 6)[0].stop
        N = 2 * step + 3  # three blocks, the last one partial
        X = np.random.default_rng(3).uniform(-1, 1, size=(N, 2))
        got = eval_features(model, X)
        assert got.shape == (N, model.truncation)
        np.testing.assert_array_equal(got, row_by_row(model, X))

    @pytest.mark.parametrize("points, feats", [
        ([[0.0], [1.0]], [[1.0, 0.0], [1.0, np.nan]]),
        ([[0.0], [np.inf]], [[1.0, 0.0], [1.0, 1.0]]),
        ([[np.nan], [1.0]], [[1.0, 0.0], [1.0, 1.0]]),
    ], ids=["nan_feature", "inf_point", "nan_point"])
    def test_custom_table_refuses_non_finite_entries(self, points, feats):
        with pytest.raises(ValueError, match="^table points and features must be finite$"):
            FeatureModel.custom_table(points, feats)
        with pytest.raises(ValueError, match="^table points and features must be finite$"):
            FeatureModel.custom_table(points, feats, domain=Domain([-1.0], [1.0]))

    def test_custom_table_lookup(self):
        pts = np.linspace(0.0, 1.0, 7)[:, None]
        feats = np.column_stack([np.ones(7), pts[:, 0], pts[:, 0] ** 2])
        model = FeatureModel.custom_table(pts, feats, weights=[1.0, 4.0, 9.0])
        X = pts[[6, 0, 3, 3, 5]]
        X[2:] += 1e-10  # within the lookup tolerance
        got = eval_features(model, X)
        np.testing.assert_array_equal(got, row_by_row(model, X))
        np.testing.assert_allclose(got, feats[[6, 0, 3, 3, 5]] * [1.0, 2.0, 3.0])
        with pytest.raises(UntabulatedPoint):
            eval_features(model, np.array([[0.0], [0.25]]))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_empty_batch(self, name):
        model = self.MODELS[name]
        assert eval_features(model, np.empty((0, 2))).shape == (0, model.truncation)

    def test_single_point_shape(self):
        model = self.MODELS["trig"]
        assert eval_features(model, [0.1, 0.2]).shape == (40,)
        assert eval_features(model, [[0.1, 0.2]]).shape == (1, 40)

    @pytest.mark.parametrize("name", ["power", "trig", "custom"])
    def test_single_point_is_row_zero_of_a_one_row_stack(self, name):
        if name == "custom":
            pts = np.array([[0.0, 0.5], [-0.25, 1.0]])
            model = FeatureModel.custom_table(pts, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                              weights=[1.0, 2.0, 3.0], domain=self.BOX2)
            x = pts[1]
        else:
            model, x = self.MODELS[name], np.array([-0.0, 0.7 + 1e-12])
        assert same_bits(eval_features(model, x), eval_features(model, x[None])[0])

    def test_outside_row_rejected(self):
        with pytest.raises(PointOutsideDomain):
            eval_features(self.MODELS["power"], [[0.0, 0.0], [0.0, 1.5]])

    def test_blocks_cover_every_row_once(self):
        model = self.MODELS["wide_trig"]
        blocks = point_blocks(model, 50)
        assert blocks[0].stop - blocks[0].start == BLOCK_VALUES // 3000
        assert np.concatenate([np.arange(50)[b] for b in blocks]).tolist() == list(range(50))
        assert point_blocks(model, 0) == []


def reference_features(model, X):
    """Direct per-column oracle at in-box points: each coordinate's factor is
    computed for all K columns (both cos and sin for trig, one kept by ``np.where``)."""
    X = np.clip(X, model.domain.lower, model.domain.upper)
    vals = np.ones((X.shape[0], model.truncation))
    for j in range(model.domain.dim):
        if model.family == "power":
            vals *= X[:, j:j + 1] ** model.exponents[:, j]
        else:
            arg = (np.pi * model.frequencies[:, j]) * X[:, j:j + 1]
            kinds = model.trig_kinds[:, j]
            vals *= np.where(kinds == 1, np.cos(arg), np.where(kinds == 2, np.sin(arg), 1.0))
    return vals * np.sqrt(model.weights)


def build(family, domain, K, **kwargs):
    factory = FeatureModel.power_series if family == "power" else FeatureModel.trigonometric
    return factory(domain, K, **kwargs)


def degrees(model):
    table = model.exponents if model.family == "power" else model.frequencies
    return table.sum(axis=1)


class TestFactorTables:
    """The factor-table evaluation does the oracle's float operations on
    each entry, so the two agree bit for bit."""

    # K ends mid-degree for every case but 1-d power, where each degree
    # holds one feature
    TRUNCATION = {1: 10, 2: 23, 3: 47, 4: 90}

    @pytest.mark.parametrize("family", ["power", "trig"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_reference_exactly(self, family, dim):
        box = Domain([-1.0] * dim, [1.5] * dim)
        K = self.TRUNCATION[dim]
        rng = np.random.default_rng(dim)
        model = build(family, box, K, weights=rng.uniform(0.1, 3.0, K))
        if (family, dim) != ("power", 1):
            assert degrees(build(family, box, K + 1))[K] == degrees(model)[K - 1]
        step = point_blocks(model, 10 ** 6)[0].stop
        X = rng.uniform(-1.0, 1.5, size=(2 * step + 3, dim))  # last block partial
        X[:3] = 1.5 + 5e-13  # clamped onto the upper face
        X[3:6, -1] = -1.0 - 5e-13
        X[6, 0] = 0.0
        got = eval_features(model, X)
        assert got.shape == (X.shape[0], K)
        np.testing.assert_array_equal(got, reference_features(model, X))
        np.testing.assert_array_equal(eval_features(model, X[5]),
                                      reference_features(model, X[5:6])[0])
        assert eval_features(model, np.empty((0, dim))).shape == (0, K)

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_large_model_matches_reference_exactly(self, family):
        model = build(family, Domain([-1.0] * 3, [1.0] * 3), 800)
        X = np.random.default_rng(7).uniform(-1, 1, size=(300, 3))
        np.testing.assert_array_equal(eval_features(model, X), reference_features(model, X))

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_one_column_per_distinct_factor(self, family):
        model = build(family, Domain([-1.0, -1.0], [1.0, 1.0]), 120)
        widths = [int(gather.max()) + 1 for *_, gather in model.coordinate_factors]
        if family == "power":
            distinct = [len(set(e)) for e in model.exponents.T]
        else:
            distinct = [len(set(zip(f, k)))
                        for f, k in zip(model.frequencies.T, model.trig_kinds.T)]
        assert widths == distinct
        assert distinct == ([15, 15] if family == "power" else [17, 15])

    def test_tables_built_once_per_model(self):
        model = FeatureModel.trigonometric(Domain([-1.0, -1.0], [1.0, 1.0]), 40)
        assert "coordinate_factors" not in vars(model)
        eval_features(model, [[0.1, 0.2], [0.3, -0.4]])
        tables = vars(model)["coordinate_factors"]
        eval_features(model, [0.5, 0.5])
        eval_features(model, np.zeros((5000, 2)))
        assert model.coordinate_factors is tables


class TestKernel2:
    def test_example_values(self):
        model = monomials(2)  # features (1, x)
        assert eval_kernel2(model, [0.0], [1.0]) == pytest.approx(1.0)
        assert eval_kernel2(model, [1.0], [1.0]) == pytest.approx(2.0)

    def test_symmetry(self):
        model = FeatureModel.trigonometric(BOX, 7)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z1, z2 = rng.uniform(-1, 1, size=(2, 1))
            assert eval_kernel2(model, z1, z2) == pytest.approx(
                eval_kernel2(model, z2, z1), rel=1e-14
            )


class TestMultiKernel:
    def test_m4_examples(self):
        model = monomials(2)
        assert eval_multikernel(model, 4, [[0.0]] * 4) == pytest.approx(1.0)
        assert eval_multikernel(model, 4, [[1.0]] * 4) == pytest.approx(2.0)

    def test_permutation_invariance(self):
        model = FeatureModel.trigonometric(BOX, 6)
        rng = np.random.default_rng(1)
        for m in (2, 4, 6):
            pts = rng.uniform(-1, 1, size=(m, 1))
            base = eval_multikernel(model, m, pts)
            for _ in range(5):
                perm = rng.permutation(m)
                shuffled = eval_multikernel(model, m, pts[perm])
                assert shuffled == pytest.approx(base, rel=1e-12)

    def test_m2_matches_kernel2(self):
        model = monomials(4)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z1, z2 = rng.uniform(-1, 1, size=(2, 1))
            assert eval_multikernel(model, 2, [z1, z2]) == eval_kernel2(model, z1, z2)

    def test_rank_one_reduction(self):
        model = monomials(1)
        pts = [[0.3], [-0.2], [0.9], [0.1]]
        expected = float(np.prod([eval_features(model, p)[0] for p in pts]))
        assert eval_multikernel(model, 4, pts) == pytest.approx(expected, rel=1e-14)

    def test_rejects_odd_order(self):
        with pytest.raises(OddOrderUnsupported):
            eval_multikernel(monomials(2), 3, [[0.0]] * 3)

    def test_rejects_outside_point(self):
        with pytest.raises(PointOutsideDomain):
            eval_multikernel(monomials(2), 2, [[0.0], [2.0]])


def same_bits(a, b):
    """Equal arrays, bit for bit: ``-0.0`` differs from ``0.0``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def tensor_grid(*axes):
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


class TestDistinctValueTables:
    """Repeated coordinate values, ``+-0.0`` and points clamped onto a face
    in the block loop, which tabulates every row at its own value: the bits
    are the per-feature formula's, and equal points get equal bits in
    whatever block they fall.  ``_distinct`` still finds the distinct
    exponents and frequencies of a model."""

    BOX = Domain([-1.0, -1.0, -1.0], [1.5, 1.5, 1.5])

    @staticmethod
    def repeated_grid(count):
        """A 3-d grid with repeats, ``+-0.0``, and points clamped onto a face."""
        axis = np.array([-0.0, 0.0, 0.25, -1.0 - 5e-13, 1.5 + 5e-13, 1.5, -0.75, 0.25])
        X = tensor_grid(axis, axis[::-1], axis[2:])
        return np.resize(X, (count, 3))

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_bit_identical_to_the_per_feature_formula(self, family):
        K = {"power": 47, "trig": 90}[family]
        model = build(family, self.BOX, K, weights=np.random.default_rng(5).uniform(0.1, 3.0, K))
        X = self.repeated_grid(3 * point_blocks(model, 10 ** 6)[0].stop + 5)
        got = eval_features(model, X)
        assert same_bits(got, reference_features(model, X))
        assert same_bits(got, row_by_row(model, X))
        # the signed zero reaches the output: odd powers and sines keep it
        first = np.clip(X, model.domain.lower, model.domain.upper)[:, 0]
        rows = (first == 0.0) & np.signbit(first)
        assert np.any(rows) and np.any((got[rows] == 0.0) & np.signbit(got[rows]))

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_repeats_straddling_a_block_boundary(self, family):
        model = build(family, self.BOX, 60)
        step = point_blocks(model, 10 ** 6)[0].stop
        rng = np.random.default_rng(9)
        values = rng.uniform(-1.0, 1.5, size=(4, 3))
        X = values[rng.integers(0, 4, size=2 * step + 7)]  # every row repeats across blocks
        X[step - 1:step + 1] = values[0]  # the last row of a block and the first of the next
        got = eval_features(model, X)
        assert same_bits(got, reference_features(model, X))
        assert same_bits(got[step - 1], got[step])
        alpha = rng.standard_normal(model.truncation)
        width = model._sum_plan[-1]
        sum_step = point_blocks(model, 10 ** 6, width)[0].stop
        Y = values[rng.integers(0, 4, size=2 * sum_step + 7)]
        sums = features._feature_sum(model, Y, alpha)
        singles = np.array([features._feature_sum(model, y[None, :], alpha)[0] for y in Y])
        bound = 2 * model.truncation * np.finfo(float).eps * np.abs(
            alpha * eval_features(model, Y)).sum(axis=1)
        assert np.all(np.abs(sums - singles) <= bound)
        for i in range(4):  # equal points, equal sums, in whatever block they fall
            rows = np.flatnonzero((Y == values[i]).all(axis=1))
            assert np.all(sums[rows] == sums[rows[0]])

    def test_power_overflow_names_the_first_point_in_input_order(self):
        model = FeatureModel.power_series(Domain([-1e200, -1.0], [1e200, 1.0]), 6)
        X = np.array([[0.5, 0.0], [1e10, 0.5], [5e170, 0.0], [-3e170, 1.0],
                      [2e160, 0.0], [5e170, 0.0]])
        with np.errstate(over="ignore"):
            finite = np.isfinite(reference_features(model, X)).all(axis=1)
        first = X[np.argmin(finite)].tolist()
        assert first == [5e170, 0.0]  # not the least value, nor the least bit pattern
        with pytest.raises(ValueError, match=re.escape(f"features overflow at point {first}")):
            eval_features(model, X)
        with pytest.raises(ValueError, match=re.escape(f"features overflow at point {first}")):
            features._feature_sum(model, X, np.zeros(model.truncation))

    def test_distinct_tells_signed_zeros_apart(self):
        column = np.array([0.0, -0.0, 2.0, 0.0, -0.0, np.nan, 2.0])
        values, index = features._distinct(column)
        assert np.array_equal(values[index].view(np.int64), column.view(np.int64))
        assert values.size == 4
        ints, where = features._distinct(np.array([5, 3, 5, 0, 3]))
        assert ints.tolist() == [0, 3, 5] and where.tolist() == [2, 1, 2, 0, 1]
        empty, nowhere = features._distinct(np.empty(0))
        assert empty.size == 0 and nowhere.size == 0


def rows_per_block(monkeypatch, rows, width):
    """Make :func:`point_blocks` cut blocks of ``rows`` rows of ``width`` values."""
    monkeypatch.setattr(features, "BLOCK_VALUES", rows * width)


class TestBlockRules:
    """Every block tabulates each coordinate at all of its rows, one table
    row per value, with no sort and nothing kept from the block before;
    blocks whose coordinates switch between repeats and scattered values
    give the direct formula's bits, and the first bad point is named
    whatever its block."""

    BOX = Domain([-1.0, -1.0, -1.0], [1.5, 1.5, 1.5])
    ROWS = 40

    @classmethod
    def switching_blocks(cls):
        """Four blocks of ROWS rows and a partial fifth, whose coordinates
        switch between repeats, a subset of the previous block's values and no repeats."""
        rng = np.random.default_rng(11)
        pool = np.array([-0.0, 0.0, 0.25, -1.0 - 5e-13, 1.5 + 5e-13, 1.5, -0.75])
        other = np.array([0.5, -0.5, 1.0, 0.0])

        def scattered(count=cls.ROWS):
            return rng.uniform(-1.0, 1.5, count)

        def repeats(values, count=cls.ROWS):
            return rng.choice(values, count)

        rows, half = cls.ROWS, cls.ROWS // 2
        columns = [
            [np.resize(pool, rows), repeats(pool[:3]), scattered(), repeats(pool), repeats(pool, half)],
            [np.resize(pool[::-1], rows), repeats(other), repeats(pool[2:]), repeats(pool[3:]),
             scattered(half)],
            [scattered(), scattered(), scattered(), scattered(), repeats(pool, half)],
        ]
        return np.column_stack([np.concatenate(column) for column in columns])

    # (coordinate, rows) per table: every coordinate in every block, at the
    # block's full row count, whether its values repeat or not
    TABULATED = [(j, rows) for rows in [ROWS] * 4 + [ROWS // 2] for j in range(3)]

    @pytest.fixture
    def tabulated(self, monkeypatch):
        calls = []
        table = features._table

        def spy(model, j, values):
            calls.append((j, values.size))
            return table(model, j, values)

        monkeypatch.setattr(features, "_table", spy)
        return calls

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_eval_features_bit_identical_under_every_rule(self, family, monkeypatch, tabulated):
        model = build(family, self.BOX, 47, weights=np.random.default_rng(4).uniform(0.1, 3.0, 47))
        X = self.switching_blocks()
        rows_per_block(monkeypatch, self.ROWS, model.truncation)
        got = eval_features(model, X)
        assert tabulated == self.TABULATED
        assert same_bits(got, reference_features(model, X))
        assert same_bits(got, row_by_row(model, X))

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_feature_sum_equals_each_block_alone(self, family, monkeypatch, tabulated):
        model = build(family, self.BOX, 47)
        alpha = np.random.default_rng(6).standard_normal(47)
        X = self.switching_blocks()
        rows_per_block(monkeypatch, self.ROWS, model._sum_plan[-1])
        tabulated.clear()
        got = features._feature_sum(model, X, alpha)
        assert tabulated == self.TABULATED
        blocks = point_blocks(model, X.shape[0], model._sum_plan[-1])
        assert len(blocks) == 5
        alone = np.concatenate([features._feature_sum(model, X[rows], alpha) for rows in blocks])
        assert same_bits(got, alone)

    @pytest.mark.parametrize("rule", ["reused", "unsorted"])
    def test_power_overflow_names_the_first_point_in_input_order(self, rule, monkeypatch):
        # the second coordinate's first block repeats its values, or does not
        model = FeatureModel.power_series(Domain([-1e200, -1e200], [1e200, 1e200]), 6)
        second = [0.0, 0.5, 0.0, 0.5] if rule == "reused" else [0.1, 0.2, 0.3, 0.4]
        X = np.column_stack([[0.5, 0.5, -0.5, -0.5, 0.5, -0.5, 0.5, -0.5],
                             second + [0.0, 5e170, -3e170, 2e160]])
        first = X[5].tolist()  # not the least value, nor the least bit pattern
        message = re.escape(f"features overflow at point {first}")
        for width, call in [(model.truncation, lambda: eval_features(model, X)),
                            (model._sum_plan[-1],
                             lambda: features._feature_sum(model, X, np.ones(6))),
                            (model._sum_plan[-1],
                             lambda: features._feature_adjoint(model, X, np.ones(8)))]:
            rows_per_block(monkeypatch, 4, width)
            with pytest.raises(ValueError, match=message):
                call()

    def test_point_outside_names_the_first_in_a_later_block(self, monkeypatch):
        model = build("trig", self.BOX, 47)
        X = self.switching_blocks()
        X[[130, 150], 1] = [1.5 + 1e-6, -2.0]
        rows_per_block(monkeypatch, self.ROWS, model.truncation)
        message = re.escape(f"point {X[130].tolist()} outside the domain box")
        with pytest.raises(PointOutsideDomain, match=message):
            eval_features(model, X)
        with pytest.raises(PointOutsideDomain, match=message):
            features._feature_sum(model, X, np.ones(47))
        with pytest.raises(PointOutsideDomain, match=message):
            features._feature_adjoint(model, X, np.ones(X.shape[0]))

    @pytest.mark.parametrize("family", ["power", "trig"])
    def test_feature_adjoint_tabulates_every_block(self, family, monkeypatch, tabulated):
        model = build(family, self.BOX, 47)
        X = self.switching_blocks()
        c = np.random.default_rng(8).standard_normal(X.shape[0])
        rows_per_block(monkeypatch, self.ROWS, model._sum_plan[-1])
        tabulated.clear()
        got = features._feature_adjoint(model, X, c)
        assert tabulated == self.TABULATED
        assert_adjoint_close(got, eval_features(model, X), c)


def assert_adjoint_close(t, V, c):
    """``t`` is ``V.T @ c`` to within ``8 n eps sum_i |c_i V_ik|`` per entry."""
    bound = 8 * V.shape[0] * np.finfo(float).eps * np.abs(c[:, None] * V).sum(axis=0)
    assert t.shape == (V.shape[1],)
    assert np.all(np.abs(t - V.T @ c) <= bound)


def adjoint_case(family, dim, rng):
    """``(model, X)``: a K = 40 model on [-1, 1.5]^dim and 30 points of its
    box, faces and repeated values included (``custom``: tabulated points)."""
    box = Domain([-1.0] * dim, [1.5] * dim)
    X = rng.uniform(-1.0, 1.5, (30, dim))
    X[:4] = np.array([[-1.0], [1.5], [1.5 + 5e-13], [0.25]])  # faces, one clipped, a repeat
    X[4:8, 0] = 0.25
    if family == "custom":
        table = rng.uniform(-1.0, 1.5, (12, dim))
        model = FeatureModel.custom_table(table, rng.standard_normal((12, 40)),
                                          weights=rng.uniform(0.5, 2.0, 40), domain=box)
        return model, table[rng.integers(0, 12, 30)]
    return build(family, box, 40, decay=0.7), X


class TestFeatureAdjoint:
    """``_feature_adjoint(model, X, c)`` is ``eval_features(model, X).T @ c``
    to the rounding of an n-term sum, whatever the blocks."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["power", "trig", "custom"])
    def test_agrees_with_the_gram_route(self, family, dim):
        rng = np.random.default_rng(10 * dim)
        model, X = adjoint_case(family, dim, rng)
        c = rng.standard_normal(X.shape[0])
        assert_adjoint_close(features._feature_adjoint(model, X, c), eval_features(model, X), c)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("family", ["power", "trig", "custom"])
    def test_rows_in_several_blocks(self, family, dim, monkeypatch):
        rng = np.random.default_rng(3 + dim)
        model, X = adjoint_case(family, dim, rng)
        c = rng.standard_normal(X.shape[0])
        whole = features._feature_adjoint(model, X, c)
        width = model._sum_plan[-1]
        rows_per_block(monkeypatch, 7, width)  # custom: K + 2 exceeds the table's 12 d entries
        assert len(point_blocks(model, X.shape[0], width)) == 5
        split = features._feature_adjoint(model, X, c)
        V = eval_features(model, X)
        assert_adjoint_close(split, V, c)
        assert_adjoint_close(whole, V, c)

    def test_no_rows_give_zeros(self):
        model = build("trig", Domain([-1.0, -1.0], [1.0, 1.0]), 9)
        t = features._feature_adjoint(model, np.empty((0, 2)), np.empty(0))
        assert same_bits(t, np.zeros(9))


def custom_case(dim, rng, points=12, K=40):
    """A custom table of `points` points of [-1, 1.5]^dim, K features wide
    and spanning eight decades, and 150 of its points (two on faces, one
    clamped onto one)."""
    box = Domain([-1.0] * dim, [1.5] * dim)
    table = rng.uniform(-1.0, 1.5, (points, dim))
    table[:2, 0] = [-1.0, 1.5]
    feats = rng.standard_normal((points, K)) * 10.0 ** rng.integers(-4, 4, (points, K))
    model = FeatureModel.custom_table(table, feats, weights=rng.uniform(0.5, 2.0, K), domain=box)
    X = table[rng.integers(0, points, 150)]
    X[:2] = table[1]
    X[1, 0] += 5e-13
    return model, X


class TestCustomContractions:
    """A custom table is one coordinate whose factor table is the block's
    looked-up rows: the gather, the sum plan and its transpose give the
    family's own formulas (``oracles.custom_contractions``) bit for bit, and
    a block's lookup stays within its ``BLOCK_VALUES`` however wide the table."""

    @pytest.mark.parametrize("rows", [None, 7, 23])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bit_identical_to_the_family_formulas(self, dim, rows, monkeypatch):
        rng = np.random.default_rng(40 + dim)
        model, X = custom_case(dim, rng)
        alpha, c = rng.standard_normal(model.truncation), rng.standard_normal(X.shape[0])
        if rows is not None:
            rows_per_block(monkeypatch, rows, model._sum_plan[-1])
            assert len(point_blocks(model, X.shape[0], model._sum_plan[-1])) > 1
        features_, sums, adjoint = oracles.custom_contractions(model, X, alpha, c)
        assert same_bits(eval_features(model, X), features_)
        assert same_bits(features._feature_sum(model, X, alpha), sums)
        assert same_bits(features._feature_adjoint(model, X, c), adjoint)

    def test_one_coordinate_in_the_sum_plan(self):
        model, _ = custom_case(2, np.random.default_rng(5))
        K = model.truncation
        assert len(model.coordinate_factors) == 1
        assert same_bits(model.coordinate_factors[0][0], np.arange(K))
        prefixes, (last, prefix), shape, width = model._sum_plan
        assert prefixes.shape == (1, 0) and shape == (K, 1) and width == K + 2
        assert last.tolist() == list(range(K)) and prefix.tolist() == [0] * K

    def test_a_tensor_grid_takes_the_block_loop(self, monkeypatch):
        axis = np.array([-0.5, 0.0, 0.5])
        X = tensor_grid(axis, axis)
        model = FeatureModel.custom_table(X, np.random.default_rng(6).standard_normal((9, 4)),
                                          domain=Domain([-1.0, -1.0], [1.0, 1.0]))
        monkeypatch.setattr(features, "_grid_axes", lambda X: pytest.fail("grid route taken"))
        alpha = np.ones(4)
        assert same_bits(features._feature_sum(model, X, alpha),
                         oracles.custom_contractions(model, X, alpha, np.ones(9))[1])

    @pytest.mark.parametrize("call", ["sum", "adjoint"])
    def test_lookup_stays_within_its_blocks(self, call):
        # 1,000 table points and K = 2: the plan's K + 2 values per row would
        # let a block's (B, P, d) lookup temporary grow with the table
        rng = np.random.default_rng(7)
        model, _ = custom_case(1, rng, points=1000, K=2)
        X = model.table_points[rng.integers(0, 1000, 4000)]
        contract = {"sum": lambda: features._feature_sum(model, X, np.ones(2)),
                    "adjoint": lambda: features._feature_adjoint(model, X, np.ones(4000))}[call]
        tracemalloc.start()
        try:
            contract()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * BLOCK_VALUES  # the output, one lookup and its temporaries


class TestSummability:
    def test_unit_weight_monomials(self):
        report = check_summability(monomials(3), [[-1.0], [0.0], [1.0]])
        assert report.max_abs_sum == pytest.approx(3.0)

    def test_geometric_decay_tail_shrinks(self):
        ratios = []
        for K in (4, 8, 16):
            weights = 4.0 ** -np.arange(1, K + 1)
            model = FeatureModel.power_series(BOX, K, weights=weights)
            grid = np.linspace(-1, 1, 9)[:, None]
            ratios.append(check_summability(model, grid).tail_ratio)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_single_feature_has_zero_tail(self):
        report = check_summability(monomials(1), [[0.5]])
        assert report.tail_ratio == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_summability(monomials(2), [])


class TestCustomTable:
    def test_json_round_trip(self):
        # a custom table reaches a file only inside a model: through to_json and from_json
        model = FeatureModel.custom_table([[0.0], [0.5], [1.0]],
                                          [[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]],
                                          domain=Domain([0.0], [1.0]))
        s = fit(model, NodeSet(np.array([[0.0], [1.0]]), np.array([1.0, 2.0])), 4)
        loaded = from_json(to_json(s)).model
        assert same_bits(loaded.table_points, model.table_points)
        assert same_bits(loaded.table_features, model.table_features)
        np.testing.assert_allclose(eval_features(loaded, [0.5]), [1.0, 0.5])
        assert eval_kernel2(loaded, [0.0], [1.0]) == pytest.approx(1.0)

    def test_point_dimension_must_match_domain(self):
        with pytest.raises(DimensionMismatch, match="dimension 2"):
            FeatureModel.custom_table([[0.0, 0.0], [1.0, 1.0]], [[1.0], [1.0]], domain=BOX)

    def test_parsed_document(self):
        doc = json.loads('{"points": [[0.0], [1.0]], "features": [[1.0, 0.0], [1.0, 1.0]]}')
        model = FeatureModel.custom_table(doc["points"], doc["features"])  # domain: the points' box
        assert model.truncation == 2
        np.testing.assert_array_equal(model.domain.lower, [0.0])
        np.testing.assert_array_equal(eval_features(model, [1.0]), [1.0, 1.0])

    def test_row_counts_must_match(self):
        with pytest.raises(DimensionMismatch, match="points and features row counts differ"):
            FeatureModel.custom_table([[0.0], [1.0]], [[1.0], [1.0], [1.0]])

    def test_untabulated_point_rejected(self):
        model = FeatureModel.custom_table([[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(UntabulatedPoint):
            eval_features(model, [0.25])
