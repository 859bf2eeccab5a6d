import json
import re

import numpy as np
import pytest

from mkinterp import (
    DimensionMismatch,
    Domain,
    FeatureModel,
    OddOrderUnsupported,
    PointOutsideDomain,
    UntabulatedPoint,
    eval_features,
    graded_multi_indices,
)
from mkinterp import features
from mkinterp.features import BLOCK_VALUES, point_blocks
from oracles import check_summability, eval_kernel2, eval_multikernel

BOX = Domain([-1.0], [1.0])


def monomials(k):
    return FeatureModel.power_series(BOX, k, weights=np.ones(k))


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
        x = BOX.project([1.0 + 5e-13])
        assert x[0] == 1.0

    def test_rejects_outside(self):
        with pytest.raises(PointOutsideDomain):
            BOX.project([1.5])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(PointOutsideDomain):
            BOX.project([0.0, 0.0])

    def test_contains_is_per_row(self):
        box2 = Domain([-1.0, 0.0], [1.0, 2.0])
        pts = np.array([[0.0, 1.0], [1.0 + 5e-13, 2.0], [1.5, 1.0], [0.0, -0.1],
                        [np.nan, 1.0]])
        assert box2.contains(pts).tolist() == [True, True, False, False, False]
        assert box2.contains([0.0, 1.0])

    def test_project_batch_clamps_and_rejects(self):
        np.testing.assert_array_equal(
            BOX.project([[0.5], [-1.0 - 5e-13]]), [[0.5], [-1.0]]
        )
        with pytest.raises(PointOutsideDomain):
            BOX.project([[0.5], [1.5]])


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
    """Direct per-column oracle: each coordinate's factor is computed for
    all K columns (both cos and sin for trig, one kept by ``np.where``)."""
    X = model.domain.project(X)
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
        first = model.domain.project(X)[:, 0]
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
                             lambda: features._feature_sum(model, X, np.ones(6)))]:
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
    def test_json_round_trip(self, tmp_path):
        doc = {
            "points": [[0.0], [0.5], [1.0]],
            "features": [[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]],
            "domain": {"lower": [0.0], "upper": [1.0]},
        }
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        model = FeatureModel.custom_table_from_json(path)
        np.testing.assert_allclose(eval_features(model, [0.5]), [1.0, 0.5])
        assert eval_kernel2(model, [0.0], [1.0]) == pytest.approx(1.0)

    def test_point_dimension_must_match_domain(self):
        with pytest.raises(DimensionMismatch, match="dimension 2"):
            FeatureModel.custom_table([[0.0, 0.0], [1.0, 1.0]], [[1.0], [1.0]], domain=BOX)

    def test_untabulated_point_rejected(self):
        model = FeatureModel.custom_table([[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(UntabulatedPoint):
            eval_features(model, [0.25])
